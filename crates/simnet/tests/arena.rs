//! The `Vec<Vec<u8>>` batch API (`udp_send_batch`, `udp_recv_batch`,
//! `DatagramArena`), which only the benchmark's ladder still calls: its
//! replies are the flight API's, each in a buffer of its own.

use simnet::addr::Ipv4Addr;
use simnet::{
    DatagramArena, Datagrams, LinkProfile, Network, ReplyRateLimit, ServiceCtx, SocketAddr,
    UdpService,
};

struct Echo;

impl UdpService for Echo {
    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _from: SocketAddr, data: &[u8]) {
        let mut out = data.to_vec();
        out.reverse();
        ctx.reply(out);
    }
}

fn addr(last: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
}

/// An echo behind loss, jitter and a rate limiter: every fault draw site.
fn nasty_net() -> Network {
    let mut net = Network::new(0x5a5a);
    net.bind_udp(addr(1, 443), Box::new(Echo));
    let profile = LinkProfile {
        loss_permille: 300,
        jitter_us: 500,
        rate_limit: Some(ReplyRateLimit {
            burst: 20,
            drop_permille: 400,
        }),
        ..LinkProfile::ideal()
    };
    net.set_path_profile(addr(1, 0).ip, profile);
    net
}

#[test]
fn arena_replies_are_the_flights() {
    let flight: Vec<Vec<u8>> = (0..40u8).map(|i| vec![b'p', i]).collect();
    let net = nasty_net();
    let mut shard = net.shard();
    let mut arena = DatagramArena::new();
    let status = shard.udp_send_batch(addr(9, 7), addr(1, 443), &flight, &mut arena);
    let separate: Vec<Vec<u8>> = shard.udp_recv_batch(&mut arena).collect();

    let net2 = nasty_net();
    let mut shard2 = net2.shard();
    let mut batch = Datagrams::new();
    batch.extend(flight.iter().map(Vec::as_slice));
    let mut replies = Datagrams::new();
    let status2 =
        shard2.udp_send_flight(addr(9, 7), addr(1, 443), &batch, &mut replies, usize::MAX);
    assert_eq!(status, status2);
    assert!(!separate.is_empty());
    assert!(replies.iter().eq(separate.iter().map(Vec::as_slice)));
}
