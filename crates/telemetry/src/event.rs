//! The event taxonomy: everything the scan pipeline can say about one
//! connection, packet, or fault draw, in a form stable enough to diff across
//! runs (the determinism tests compare serialized streams byte-for-byte).

/// Which fault the simulated network injected on a traced flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Forward-path datagram silently dropped.
    ForwardLoss,
    /// A reply datagram silently dropped.
    ReplyLoss,
    /// The destination's rate limiter discarded the datagram with pushback.
    RateLimited,
    /// ICMP destination unreachable came back.
    Unreachable,
    /// Jitter added to the exchange's latency, in microseconds.
    Jitter(u64),
}

impl FaultKind {
    /// Stable label used in serialized output.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ForwardLoss => "forward_loss",
            FaultKind::ReplyLoss => "reply_loss",
            FaultKind::RateLimited => "rate_limited",
            FaultKind::Unreachable => "unreachable",
            FaultKind::Jitter(_) => "jitter",
        }
    }
}

/// One typed trace event. Variants mirror qlog's transport events where the
/// pipeline has an equivalent, plus scanner- and simulation-specific ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A datagram left the scanner ("initial" / "handshake" / "1rtt" /
    /// "probe" for stateless sweep probes).
    PacketSent {
        /// Coarse packet-space classification from the first byte.
        space: &'static str,
        /// Datagram size in bytes.
        bytes: u64,
    },
    /// A datagram came back.
    PacketReceived {
        /// Coarse packet-space classification from the first byte.
        space: &'static str,
        /// Datagram size in bytes.
        bytes: u64,
    },
    /// The scan driver fired a probe timeout (peer silent).
    PtoFired {
        /// 1-based PTO ordinal within the attempt.
        count: u32,
        /// The PTO interval waited, in virtual microseconds.
        wait_us: u64,
    },
    /// A fresh connection attempt started (fresh source port).
    AttemptStarted {
        /// 0-based attempt ordinal.
        attempt: u64,
        /// Version offered first.
        version: String,
    },
    /// The scanner backed off between attempts.
    BackoffWaited {
        /// 0-based attempt that just ended without a verdict.
        attempt: u64,
        /// Backoff wait, in virtual microseconds.
        wait_us: u64,
    },
    /// Packet-protection keys became available ("initial" / "handshake" /
    /// "1rtt").
    KeyDerived {
        /// Encryption level.
        level: &'static str,
    },
    /// The connection's handshake state machine moved ("established" /
    /// "closed").
    HandshakePhase {
        /// New phase.
        phase: &'static str,
    },
    /// A Version Negotiation packet was processed.
    VersionNegotiation {
        /// Versions the server advertised, in wire order.
        server_versions: Vec<String>,
    },
    /// A valid Retry packet was accepted (address validation).
    RetryReceived,
    /// The simulated network injected a fault on this flow.
    FaultInjected {
        /// What was injected.
        fault: FaultKind,
    },
    /// The per-target verdict was decided (labels match the CSV export).
    OutcomeDecided {
        /// Outcome label ("success", "no_reply", …).
        outcome: String,
    },
    /// One fault-plan summary emitted per traced campaign.
    PlanSummary {
        /// Baseline loss in permille.
        loss_permille: u32,
        /// Rate limiters installed on alternate silent middleboxes.
        middlebox_rate_limit: bool,
        /// Ghost addresses signal ICMP unreachable.
        ghost_unreachable: bool,
        /// Per-path profile overrides installed.
        paths_overridden: u64,
    },
    /// The congestion controller moved its window (qlog
    /// `recovery:metrics_updated`).
    CwndUpdated {
        /// New congestion window in bytes.
        cwnd: u64,
        /// Slow-start threshold in bytes (`u64::MAX` prints as-is before
        /// the first loss).
        ssthresh: u64,
        /// Bytes currently in flight.
        in_flight: u64,
        /// Controller phase ("slow_start" / "avoidance" / "recovery").
        phase: &'static str,
    },
    /// Loss detection declared a sent packet lost.
    PacketLost {
        /// Packet number of the lost 1-RTT packet.
        pn: u64,
        /// Bytes the packet carried.
        bytes: u64,
        /// What triggered the declaration ("packet_threshold" /
        /// "time_threshold" / "pto").
        trigger: &'static str,
    },
    /// One finished bulk transfer's goodput measurement.
    GoodputSampled {
        /// Application bytes delivered.
        bytes: u64,
        /// Flow-local elapsed virtual time.
        elapsed_us: u64,
        /// Goodput in kilobits per second (integer so serialized traces
        /// stay byte-comparable).
        kbps: u64,
    },
    /// One RTC frame fully acknowledged.
    FrameLatency {
        /// 0-based frame ordinal within the stream.
        frame: u64,
        /// Generation-to-ack latency in flow-local virtual microseconds.
        latency_us: u64,
    },
    /// Aggregate serving rate of one host over a mux sweep (virtual time,
    /// so the value is worker-count invariant).
    HostServeRate {
        /// Connections the host served.
        conns: u64,
        /// Response-body bytes the host delivered.
        bytes: u64,
        /// Serve rate in kilobits per second of summed flow-local time.
        kbps: u64,
    },
}

impl EventKind {
    /// Stable event name used in serialized output.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PacketSent { .. } => "packet_sent",
            EventKind::PacketReceived { .. } => "packet_received",
            EventKind::PtoFired { .. } => "pto_fired",
            EventKind::AttemptStarted { .. } => "attempt_started",
            EventKind::BackoffWaited { .. } => "backoff_waited",
            EventKind::KeyDerived { .. } => "key_derived",
            EventKind::HandshakePhase { .. } => "handshake_phase",
            EventKind::VersionNegotiation { .. } => "version_negotiation",
            EventKind::RetryReceived => "retry_received",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::OutcomeDecided { .. } => "outcome_decided",
            EventKind::PlanSummary { .. } => "plan_summary",
            EventKind::CwndUpdated { .. } => "cwnd_updated",
            EventKind::PacketLost { .. } => "packet_lost",
            EventKind::GoodputSampled { .. } => "goodput_sampled",
            EventKind::FrameLatency { .. } => "frame_latency",
            EventKind::HostServeRate { .. } => "host_serve_rate",
        }
    }
}

/// One fully-attributed trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Flow-local virtual time in microseconds (0 = first probe of the
    /// target). Never wall-clock, never the shared sim clock.
    pub t_us: u64,
    /// Flow id (scan-index-derived, worker-count independent).
    pub flow: u64,
    /// 0-based event ordinal within the flow.
    pub seq: u64,
    /// Target ("addr" or "addr#sni").
    pub target: String,
    /// Calendar week of the campaign, when known.
    pub week: Option<u32>,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// Serializes the event as one JSON object (qlog-flavoured field names).
    /// Hand-rolled so the workspace stays dependency-free.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"time\":");
        push_u64(&mut s, self.t_us);
        s.push_str(",\"flow\":");
        push_u64(&mut s, self.flow);
        s.push_str(",\"seq\":");
        push_u64(&mut s, self.seq);
        s.push_str(",\"target\":");
        push_str(&mut s, &self.target);
        if let Some(w) = self.week {
            s.push_str(",\"week\":");
            push_u64(&mut s, u64::from(w));
        }
        s.push_str(",\"name\":");
        push_str(&mut s, self.kind.name());
        s.push_str(",\"data\":{");
        self.push_data(&mut s);
        s.push_str("}}");
        s
    }

    fn push_data(&self, s: &mut String) {
        match &self.kind {
            EventKind::PacketSent { space, bytes } | EventKind::PacketReceived { space, bytes } => {
                s.push_str("\"space\":");
                push_str(s, space);
                s.push_str(",\"bytes\":");
                push_u64(s, *bytes);
            }
            EventKind::PtoFired { count, wait_us } => {
                s.push_str("\"count\":");
                push_u64(s, u64::from(*count));
                s.push_str(",\"wait_us\":");
                push_u64(s, *wait_us);
            }
            EventKind::AttemptStarted { attempt, version } => {
                s.push_str("\"attempt\":");
                push_u64(s, *attempt);
                s.push_str(",\"version\":");
                push_str(s, version);
            }
            EventKind::BackoffWaited { attempt, wait_us } => {
                s.push_str("\"attempt\":");
                push_u64(s, *attempt);
                s.push_str(",\"wait_us\":");
                push_u64(s, *wait_us);
            }
            EventKind::KeyDerived { level } => {
                s.push_str("\"level\":");
                push_str(s, level);
            }
            EventKind::HandshakePhase { phase } => {
                s.push_str("\"phase\":");
                push_str(s, phase);
            }
            EventKind::VersionNegotiation { server_versions } => {
                s.push_str("\"server_versions\":[");
                for (i, v) in server_versions.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    push_str(s, v);
                }
                s.push(']');
            }
            EventKind::RetryReceived => {}
            EventKind::FaultInjected { fault } => {
                s.push_str("\"fault\":");
                push_str(s, fault.label());
                if let FaultKind::Jitter(us) = fault {
                    s.push_str(",\"jitter_us\":");
                    push_u64(s, *us);
                }
            }
            EventKind::OutcomeDecided { outcome } => {
                s.push_str("\"outcome\":");
                push_str(s, outcome);
            }
            EventKind::PlanSummary {
                loss_permille,
                middlebox_rate_limit,
                ghost_unreachable,
                paths_overridden,
            } => {
                s.push_str("\"loss_permille\":");
                push_u64(s, u64::from(*loss_permille));
                s.push_str(",\"middlebox_rate_limit\":");
                s.push_str(if *middlebox_rate_limit {
                    "true"
                } else {
                    "false"
                });
                s.push_str(",\"ghost_unreachable\":");
                s.push_str(if *ghost_unreachable { "true" } else { "false" });
                s.push_str(",\"paths_overridden\":");
                push_u64(s, *paths_overridden);
            }
            EventKind::CwndUpdated {
                cwnd,
                ssthresh,
                in_flight,
                phase,
            } => {
                s.push_str("\"cwnd\":");
                push_u64(s, *cwnd);
                s.push_str(",\"ssthresh\":");
                push_u64(s, *ssthresh);
                s.push_str(",\"in_flight\":");
                push_u64(s, *in_flight);
                s.push_str(",\"phase\":");
                push_str(s, phase);
            }
            EventKind::PacketLost { pn, bytes, trigger } => {
                s.push_str("\"pn\":");
                push_u64(s, *pn);
                s.push_str(",\"bytes\":");
                push_u64(s, *bytes);
                s.push_str(",\"trigger\":");
                push_str(s, trigger);
            }
            EventKind::GoodputSampled {
                bytes,
                elapsed_us,
                kbps,
            } => {
                s.push_str("\"bytes\":");
                push_u64(s, *bytes);
                s.push_str(",\"elapsed_us\":");
                push_u64(s, *elapsed_us);
                s.push_str(",\"kbps\":");
                push_u64(s, *kbps);
            }
            EventKind::FrameLatency { frame, latency_us } => {
                s.push_str("\"frame\":");
                push_u64(s, *frame);
                s.push_str(",\"latency_us\":");
                push_u64(s, *latency_us);
            }
            EventKind::HostServeRate { conns, bytes, kbps } => {
                s.push_str("\"conns\":");
                push_u64(s, *conns);
                s.push_str(",\"bytes\":");
                push_u64(s, *bytes);
                s.push_str(",\"kbps\":");
                push_u64(s, *kbps);
            }
        }
    }
}

fn push_u64(s: &mut String, v: u64) {
    use std::fmt::Write;
    let _ = write!(s, "{v}");
}

/// JSON string escape (quotes, backslashes, control characters).
fn push_str(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> Event {
        Event {
            t_us: 40_000,
            flow: 3,
            seq: 7,
            target: "10.0.0.1#a.example".into(),
            week: Some(18),
            kind,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let e = ev(EventKind::PacketSent {
            space: "initial",
            bytes: 1200,
        });
        assert_eq!(
            e.to_json(),
            "{\"time\":40000,\"flow\":3,\"seq\":7,\"target\":\"10.0.0.1#a.example\",\
             \"week\":18,\"name\":\"packet_sent\",\"data\":{\"space\":\"initial\",\"bytes\":1200}}"
        );
    }

    #[test]
    fn every_variant_serializes() {
        let kinds = vec![
            EventKind::PacketSent {
                space: "initial",
                bytes: 1200,
            },
            EventKind::PacketReceived {
                space: "handshake",
                bytes: 900,
            },
            EventKind::PtoFired {
                count: 2,
                wait_us: 120_000,
            },
            EventKind::AttemptStarted {
                attempt: 1,
                version: "draft-29".into(),
            },
            EventKind::BackoffWaited {
                attempt: 0,
                wait_us: 40_000,
            },
            EventKind::KeyDerived { level: "1rtt" },
            EventKind::HandshakePhase {
                phase: "established",
            },
            EventKind::VersionNegotiation {
                server_versions: vec!["draft-32".into()],
            },
            EventKind::RetryReceived,
            EventKind::FaultInjected {
                fault: FaultKind::Jitter(500),
            },
            EventKind::FaultInjected {
                fault: FaultKind::ForwardLoss,
            },
            EventKind::OutcomeDecided {
                outcome: "no_reply".into(),
            },
            EventKind::PlanSummary {
                loss_permille: 50,
                middlebox_rate_limit: true,
                ghost_unreachable: false,
                paths_overridden: 12,
            },
            EventKind::CwndUpdated {
                cwnd: 24_000,
                ssthresh: u64::MAX,
                in_flight: 13_200,
                phase: "slow_start",
            },
            EventKind::PacketLost {
                pn: 17,
                bytes: 1200,
                trigger: "packet_threshold",
            },
            EventKind::GoodputSampled {
                bytes: 1_048_576,
                elapsed_us: 740_000,
                kbps: 11_334,
            },
            EventKind::FrameLatency {
                frame: 29,
                latency_us: 41_000,
            },
            EventKind::HostServeRate {
                conns: 128,
                bytes: 4_194_304,
                kbps: 220_000,
            },
        ];
        for kind in kinds {
            let json = ev(kind.clone()).to_json();
            assert!(json.contains(kind.name()), "{json}");
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            // Balanced quotes ⇒ crude well-formedness check.
            assert_eq!(json.matches('"').count() % 2, 0, "{json}");
        }
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event {
            t_us: 0,
            flow: 0,
            seq: 0,
            target: "a\"b\\c\nd".into(),
            week: None,
            kind: EventKind::OutcomeDecided {
                outcome: "other:panic \"x\"".into(),
            },
        };
        let json = e.to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"), "{json}");
        assert!(json.contains("other:panic \\\"x\\\""), "{json}");
    }
}
