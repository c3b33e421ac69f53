//! Event sinks: where merged trace streams go.
//!
//! Sinks take `&self` (drivers share them across an `Arc`), so each sink
//! guards its interior state with a `Mutex`. That lock is *not* on the hot
//! path: workers buffer events in their own [`crate::TraceCtx`] and only the
//! single-threaded driver merge touches a sink.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;

/// RFC 7464 record separator framing a JSON text sequence.
const RECORD_SEPARATOR: u8 = 0x1e;

/// Something that accepts a stream of trace events.
pub trait EventSink: Send + Sync {
    /// Records one event. Emission order is the stream order.
    fn emit(&self, event: &Event);
    /// Flushes buffered output to its backing store (no-op by default).
    fn flush(&self) {}
}

/// Writes events as an RFC 7464 JSON text sequence (`0x1E` + JSON + `\n`
/// per record) — the same framing qlog uses for streamed traces.
pub struct JsonSeqFileSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonSeqFileSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonSeqFileSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl EventSink for JsonSeqFileSink {
    fn emit(&self, event: &Event) {
        let json = event.to_json();
        let mut w = self.writer.lock().expect("qlog writer poisoned");
        let _ = w.write_all(&[RECORD_SEPARATOR]);
        let _ = w.write_all(json.as_bytes());
        let _ = w.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("qlog writer poisoned").flush();
    }
}

/// Keeps every event in memory; the audit pass and tests read it back.
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> Self {
        MemorySink {
            events: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of every event emitted so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// Duplicates the stream to several sinks (e.g. JSON-SEQ file + in-memory
/// copy for the audit pass).
pub struct FanoutSink {
    sinks: Vec<std::sync::Arc<dyn EventSink>>,
}

impl FanoutSink {
    /// Fans out to `sinks` in order.
    pub fn new(sinks: Vec<std::sync::Arc<dyn EventSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl EventSink for FanoutSink {
    fn emit(&self, event: &Event) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Arc;

    fn ev(seq: u64) -> Event {
        Event {
            t_us: seq * 10,
            flow: 1,
            seq,
            target: "10.0.0.1".into(),
            week: None,
            kind: EventKind::RetryReceived,
        }
    }

    #[test]
    fn memory_sink_preserves_order() {
        let sink = MemorySink::new();
        for i in 0..5 {
            sink.emit(&ev(i));
        }
        let got = sink.events();
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn json_seq_file_framing() {
        let dir = std::env::temp_dir().join("telemetry-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonseq");
        let sink = JsonSeqFileSink::create(&path).unwrap();
        sink.emit(&ev(0));
        sink.emit(&ev(1));
        sink.flush();
        let bytes = std::fs::read(&path).unwrap();
        let records: Vec<&[u8]> = bytes
            .split(|&b| b == RECORD_SEPARATOR)
            .filter(|r| !r.is_empty())
            .collect();
        assert_eq!(records.len(), 2);
        for rec in records {
            assert!(rec.ends_with(b"\n"));
            let json = std::str::from_utf8(rec).unwrap().trim_end();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fanout_reaches_all_sinks() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.emit(&ev(0));
        fan.emit(&ev(1));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }
}
