//! TCP SYN module (the port-443 discovery scan preceding the TLS scans,
//! §3.3). In the simulation a SYN probe reduces to asking the network
//! whether the port accepts connections; the shard counts the SYN and any
//! SYN-ACK as traffic.

use simnet::{NetShard, SocketAddr};

/// Probes one target through `link`; true = SYN/ACK (port open).
pub fn probe(link: &mut NetShard<'_>, dst: SocketAddr) -> bool {
    link.tcp_port_open(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::addr::Ipv4Addr;
    use simnet::{Network, TcpAction, TcpFactory, TcpHandler};

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
        let mut link = net.shard();
        assert!(probe(&mut link, open));
        assert!(!probe(
            &mut link,
            SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 443)
        ));
    }
}
