//! Property-based tests over the wire codecs and core data structures, and
//! the weekly campaign pinned by value.

use proptest::prelude::*;

use its_over_9000::analysis::campaign::Campaign;
use its_over_9000::h3::altsvc::{format_alt_svc, parse_alt_svc, AltService};
use its_over_9000::h3::qpack::{decode_field_section, encode_field_section, Header};
use its_over_9000::internet::FaultPlan;
use its_over_9000::qcodec::{varint, Reader, Writer};
use its_over_9000::quic::frame::Frame;
use its_over_9000::quic::tparams::TransportParameters;
use its_over_9000::zmapq::FeistelPermutation;

mod common;

/// `permute_into` against the point lookups it batches: `out[k]` is
/// `permute(lo + k)` and ranks back to `lo + k`, for block lengths around
/// the lane count (private; 7, 8, 9 straddle it) and the sweep's block size,
/// with the block at the head of the domain, somewhere inside it, and ending
/// exactly at `n`.
fn block_walk_agrees_with_point_lookups(n: u64, seed: u64, lo_pick: u64) -> Result<(), String> {
    let p = FeistelPermutation::new(n, seed);
    for len in [0usize, 1, 7, 8, 9, 255, 256, 257] {
        let len = len.min(n as usize);
        let tail = n - len as u64;
        for lo in [0, lo_pick % (tail + 1), tail] {
            let mut out = vec![u64::MAX; len];
            p.permute_into(lo, &mut out);
            for (i, &v) in (lo..).zip(&out) {
                prop_assert_eq!(v, p.permute(i), "n={n} lo={lo} len={len} i={i}");
                prop_assert_eq!(p.rank(v), i, "n={n} lo={lo} len={len}");
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn varint_roundtrip(v in 0u64..(1 << 62)) {
        let mut out = Vec::new();
        varint::encode(v, &mut out);
        let (decoded, n) = varint::decode(&out).expect("decodable");
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(n, out.len());
        prop_assert_eq!(out.len(), varint::len(v));
    }

    #[test]
    fn writer_reader_roundtrip(
        a in any::<u8>(),
        b in any::<u16>(),
        c in any::<u32>(),
        d in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut w = Writer::new();
        w.put_u8(a);
        w.put_u16(b);
        w.put_u32(c);
        w.put_u64(d);
        w.put_vec16(&bytes);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.read_u8().unwrap(), a);
        prop_assert_eq!(r.read_u16().unwrap(), b);
        prop_assert_eq!(r.read_u32().unwrap(), c);
        prop_assert_eq!(r.read_u64().unwrap(), d);
        prop_assert_eq!(r.read_vec16().unwrap(), &bytes[..]);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn qpack_roundtrip(
        headers in proptest::collection::vec(
            ("[a-z][a-z0-9-]{0,15}", "[ -~&&[^\"]]{0,40}"),
            0..12,
        )
    ) {
        let headers: Vec<Header> =
            headers.iter().map(|(n, v)| Header::new(n, v)).collect();
        let encoded = encode_field_section(&headers);
        let decoded = decode_field_section(&encoded).expect("decodable");
        prop_assert_eq!(decoded, headers);
    }

    #[test]
    fn transport_params_roundtrip(
        idle in 0u64..1_000_000,
        udp in 1200u64..65527,
        data in 0u64..(1 << 40),
        stream in 0u64..(1 << 40),
        streams in 0u64..10_000,
        ade in 0u64..20,
        mad in 0u64..16_000,
        migration in any::<bool>(),
        acl in 2u64..64,
    ) {
        let tp = TransportParameters {
            max_idle_timeout: idle,
            max_udp_payload_size: udp,
            initial_max_data: data,
            initial_max_stream_data_bidi_local: stream,
            initial_max_stream_data_bidi_remote: stream,
            initial_max_stream_data_uni: stream,
            initial_max_streams_bidi: streams,
            initial_max_streams_uni: streams,
            ack_delay_exponent: ade,
            max_ack_delay: mad,
            disable_active_migration: migration,
            active_connection_id_limit: acl,
            ..TransportParameters::default()
        };
        let decoded = TransportParameters::decode(&tp.encode()).expect("decodable");
        prop_assert_eq!(decoded.config_key(), tp.config_key());
        prop_assert_eq!(decoded, tp);
    }

    #[test]
    fn stream_frame_roundtrip(
        id in 0u64..(1 << 30),
        offset in 0u64..(1 << 40),
        fin in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let frame = Frame::Stream { id, offset, fin, data: &data };
        let mut w = Writer::new();
        frame.encode(&mut w);
        let decoded = Frame::decode_all(w.as_slice()).expect("decodable");
        prop_assert_eq!(decoded, vec![frame]);
    }

    #[test]
    fn crypto_frame_roundtrip(
        offset in 0u64..(1 << 40),
        data in proptest::collection::vec(any::<u8>(), 1..800),
    ) {
        let frame = Frame::Crypto { offset, data: &data };
        let mut w = Writer::new();
        frame.encode(&mut w);
        prop_assert_eq!(Frame::decode_all(w.as_slice()).unwrap(), vec![frame]);
    }

    #[test]
    fn feistel_is_bijective(n in 1u64..50_000, seed in any::<u64>()) {
        let p = FeistelPermutation::new(n, seed);
        // Spot-check injectivity on a sample window (full check below).
        let sample = n.min(512);
        let mut seen = std::collections::HashSet::new();
        for i in 0..sample {
            let v = p.permute(i);
            prop_assert!(v < n);
            prop_assert!(seen.insert(v), "collision at {i}");
        }
    }

    #[test]
    fn feistel_block_walk_matches_point_lookups(
        n in 1u64..50_000,
        seed in any::<u64>(),
        lo_pick in any::<u64>(),
    ) {
        block_walk_agrees_with_point_lookups(n, seed, lo_pick)?;
    }

    /// The same at 2^k - 1, 2^k and 2^k + 1, where the walk domain's width
    /// steps and the share of encryptions landing outside `[0, n)` jumps.
    #[test]
    fn feistel_block_walk_matches_point_lookups_around_powers_of_two(
        k in 0u32..=24,
        below in 0u64..3,
        seed in any::<u64>(),
        lo_pick in any::<u64>(),
    ) {
        let n = ((1u64 << k) + 1 - below).max(1);
        block_walk_agrees_with_point_lookups(n, seed, lo_pick)?;
    }

    /// Full bijection check: over the whole (arbitrary, including
    /// non-power-of-two) domain, every output in `[0, n)` appears exactly
    /// once.
    #[test]
    fn feistel_is_a_permutation_of_the_full_domain(
        n in 1u64..4_096,
        seed in any::<u64>(),
    ) {
        let p = FeistelPermutation::new(n, seed);
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let v = p.permute(i);
            prop_assert!(v < n, "permute({i}) = {v} out of range");
            prop_assert!(!seen[v as usize], "permute({i}) = {v} repeated");
            seen[v as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "some outputs never produced");
    }

    /// The sharded sweep's index partition walks the permuted domain
    /// exactly once: shard ranges are contiguous, cover `[0, n)` without
    /// gaps or overlaps, and the union of their permuted outputs — taken a
    /// block at a time, as the shard loop takes them — is again the full
    /// domain.
    #[test]
    fn sharded_traversal_covers_domain_exactly_once(
        n in 1u64..4_096,
        seed in any::<u64>(),
        workers in 1usize..32,
    ) {
        let ranges = its_over_9000::zmapq::shard_ranges(n, workers);
        prop_assert!(ranges.len() <= workers.max(1));
        let mut next = 0u64;
        for &(lo, hi) in &ranges {
            prop_assert_eq!(lo, next, "gap or overlap at shard boundary");
            prop_assert!(hi > lo, "empty shard");
            next = hi;
        }
        prop_assert_eq!(next, n, "shards do not cover the domain");

        let p = FeistelPermutation::new(n, seed);
        let mut seen = vec![false; n as usize];
        let mut block = [0u64; 256];
        for &(lo, hi) in &ranges {
            for first in (lo..hi).step_by(block.len()) {
                let block = &mut block[..(hi - first).min(256) as usize];
                p.permute_into(first, block);
                for &v in &*block {
                    prop_assert!(v < n);
                    prop_assert!(!seen[v as usize], "address visited twice");
                    seen[v as usize] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "address never visited");
    }

    #[test]
    fn alt_svc_roundtrip(
        entries in proptest::collection::vec(
            ("h3(-[0-9A-Za-z]{1,4})?", 1u16..65535, proptest::option::of(1u64..1_000_000)),
            1..5,
        )
    ) {
        let services: Vec<AltService> = entries
            .iter()
            .map(|(alpn, port, ma)| AltService {
                alpn: alpn.clone(),
                host: String::new(),
                port: *port,
                max_age: *ma,
            })
            .collect();
        let parsed = parse_alt_svc(&format_alt_svc(&services));
        prop_assert_eq!(parsed, services);
    }

    #[test]
    fn aead_roundtrip_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        key in proptest::array::uniform16(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
    ) {
        let aead = its_over_9000::qcrypto::aead::Aead::new(
            its_over_9000::qcrypto::aead::AeadAlgorithm::Aes128Gcm,
            &key,
        );
        let sealed = aead.seal(&nonce, &aad, &payload);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), payload);
    }

    #[test]
    fn x25519_dh_agrees(
        a in proptest::array::uniform32(any::<u8>()),
        b in proptest::array::uniform32(any::<u8>()),
    ) {
        use its_over_9000::qcrypto::x25519;
        let pa = x25519::public_key(&a);
        let pb = x25519::public_key(&b);
        prop_assert_eq!(pa, x25519::x25519(&a, &x25519::BASEPOINT));
        prop_assert_eq!(x25519::x25519(&a, &pb), x25519::x25519(&b, &pa));
    }
}

/// One weekly (week 18) campaign at factor 0.01 over a materialized network.
fn weekly_fingerprint(seed: u64, fault: FaultPlan, workers: usize) -> u64 {
    let campaign = Campaign {
        size_factor: 0.01,
        seed,
        workers,
        fault,
        telemetry: None,
        lazy: false,
    };
    campaign.run_weekly(18).fingerprint()
}

/// Runs one clean and one faulted weekly campaign per seed, each at its own
/// worker count (1, 2, 4 and 8 each appear once), and renders
/// `golden/weekly_fingerprints.txt`. The calibrated plan must leave the
/// snapshot where the clean run put it, so the file holds one value per seed.
/// Both seeds hold the same value today: the generated universe takes almost
/// nothing from its seed (one draw per HTTPS-hinted domain), and the weekly
/// snapshot shows none of it.
fn weekly_fingerprints() -> String {
    let mut text = String::from(
        "# seed, week-18 weekly-campaign fingerprint at factor 0.01 (the same\n\
         # value under FaultPlan::none() and FaultPlan::calibrated(30))\n",
    );
    for (seed, clean_workers, faulted_workers) in [(0x9000u64, 1, 2), (0x1dea, 4, 8)] {
        let clean = weekly_fingerprint(seed, FaultPlan::none(), clean_workers);
        let faulted = weekly_fingerprint(seed, FaultPlan::calibrated(30), faulted_workers);
        assert_eq!(
            faulted, clean,
            "seed {seed:#x}: calibrated(30) at {faulted_workers} workers moved the \
             snapshot off the clean one at {clean_workers}"
        );
        text += &format!("{seed:#x} {clean:#018x}\n");
    }
    text
}

/// Weekly campaign snapshots are pinned by value, across seeds, worker
/// counts and fault plans. Same-seed repeatability is checked across
/// processes and commits: every run must land on the committed values.
#[test]
fn weekly_snapshots_are_reproducible() {
    common::golden::check("weekly_fingerprints.txt", &weekly_fingerprints());
}
