//! TCP SYN module (the port-443 discovery scan preceding the TLS scans,
//! §3.3). In the simulation a SYN probe reduces to asking the network
//! whether the port accepts connections.

use simnet::{Network, SocketAddr};

/// Probes one target; true = SYN/ACK (port open).
pub fn probe(net: &Network, dst: SocketAddr) -> bool {
    net.tcp_port_open(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::addr::Ipv4Addr;
    use simnet::{TcpAction, TcpFactory, TcpHandler};

    struct Closer;
    impl TcpHandler for Closer {
        fn on_data(&mut self, _: &[u8], _: &mut Vec<u8>) -> TcpAction {
            TcpAction::Close
        }
    }
    struct F;
    impl TcpFactory for F {
        fn accept(&self, _from: SocketAddr) -> Box<dyn TcpHandler> {
            Box::new(Closer)
        }
    }

    #[test]
    fn open_vs_closed() {
        let mut net = Network::new(1);
        let open = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 443);
        net.bind_tcp(open, Box::new(F));
        assert!(probe(&net, open));
        assert!(!probe(
            &net,
            SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 443)
        ));
    }
}
