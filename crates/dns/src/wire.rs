//! DNS message wire format (RFC 1035 §4). Names are encoded uncompressed;
//! decoding follows compression pointers for interoperability.

use qcodec::{CodecError, Reader, Result, Writer};

use crate::rr::{QType, RData, Record};

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
}

impl Rcode {
    fn code(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
        }
    }

    fn from_code(code: u16) -> Rcode {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            3 => Rcode::NxDomain,
            _ => Rcode::ServFail,
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: String,
    /// Queried type.
    pub qtype: QType,
}

/// A DNS message (query or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// True for responses.
    pub response: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Questions.
    pub questions: Vec<Question>,
    /// Answer records.
    pub answers: Vec<Record>,
}

/// Shortest question on the wire: root name, type, class.
const MIN_QUESTION_LEN: usize = 1 + 2 + 2;

/// Shortest record on the wire: root name, type, class, TTL, empty RDATA.
const MIN_RECORD_LEN: usize = 1 + 2 + 2 + 4 + 2;

impl Message {
    /// Builds a query.
    pub fn query(id: u16, name: &str, qtype: QType) -> Message {
        Message {
            id,
            response: false,
            rcode: Rcode::NoError,
            questions: vec![Question {
                name: name.to_string(),
                qtype,
            }],
            answers: Vec::new(),
        }
    }

    /// Builds the response skeleton for a query.
    pub fn response_to(query: &Message, rcode: Rcode, answers: Vec<Record>) -> Message {
        Message {
            id: query.id,
            response: true,
            rcode,
            questions: query.questions.clone(),
            answers,
        }
    }

    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u16(self.id);
        let mut flags = 0u16;
        if self.response {
            flags |= 0x8000; // QR
            flags |= 0x0080; // RA
        }
        flags |= 0x0100; // RD
        flags |= self.rcode.code();
        w.put_u16(flags);
        w.put_u16(self.questions.len() as u16);
        w.put_u16(self.answers.len() as u16);
        w.put_u16(0); // authority
        w.put_u16(0); // additional
        for q in &self.questions {
            encode_name(&mut w, &q.name);
            w.put_u16(q.qtype.code());
            w.put_u16(1); // IN
        }
        for rr in &self.answers {
            encode_name(&mut w, &rr.name);
            let https = matches!(rr.rdata, RData::Svc { .. })
                && self.questions.first().map(|q| q.qtype) != Some(QType::Svcb);
            w.put_u16(rr.rdata.qtype(https).code());
            w.put_u16(1);
            w.put_u32(rr.ttl);
            let mut body = Writer::new();
            rr.rdata.encode(&mut body);
            w.put_vec16(body.as_slice());
        }
        w.into_vec()
    }

    /// Decodes from wire bytes. Unknown-type answers are skipped.
    pub fn decode(bytes: &[u8]) -> Result<Message> {
        let mut r = Reader::new(bytes);
        let id = r.read_u16()?;
        let flags = r.read_u16()?;
        let response = flags & 0x8000 != 0;
        let rcode = Rcode::from_code(flags & 0x000f);
        let qdcount = r.read_u16()? as usize;
        let ancount = r.read_u16()? as usize;
        let _ns = r.read_u16()?;
        let _ar = r.read_u16()?;
        // The counts are the peer's word (≤ 65,535 each, in a 12-byte
        // header): reserve for no more entries than the bytes left can hold.
        let mut questions = Vec::with_capacity(qdcount.min(r.remaining() / MIN_QUESTION_LEN));
        for _ in 0..qdcount {
            let name = decode_name(&mut r, bytes)?;
            let qtype_code = r.read_u16()?;
            let _class = r.read_u16()?;
            let qtype = QType::from_code(qtype_code).ok_or(CodecError::Invalid("unknown qtype"))?;
            questions.push(Question { name, qtype });
        }
        let mut answers = Vec::with_capacity(ancount.min(r.remaining() / MIN_RECORD_LEN));
        for _ in 0..ancount {
            let name = decode_name(&mut r, bytes)?;
            let type_code = r.read_u16()?;
            let _class = r.read_u16()?;
            let ttl = r.read_u32()?;
            let rdata_bytes = r.read_vec16()?;
            if let Some(qtype) = QType::from_code(type_code) {
                let rdata = RData::decode(qtype, rdata_bytes)?;
                answers.push(Record { name, ttl, rdata });
            }
        }
        Ok(Message {
            id,
            response,
            rcode,
            questions,
            answers,
        })
    }
}

/// Encodes a domain name as uncompressed labels. Empty string = root.
pub fn encode_name(w: &mut Writer, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        debug_assert!(label.len() < 64, "label too long");
        w.put_vec8(label.as_bytes());
    }
    w.put_u8(0);
}

/// Decodes a domain name, following compression pointers into `full_message`.
pub fn decode_name(r: &mut Reader<'_>, full_message: &[u8]) -> Result<String> {
    let mut labels: Vec<String> = Vec::new();
    let mut jumps = 0;
    // After the first pointer jump, reads come from `full_message[pos..]`.
    let mut jumped_pos: Option<usize> = None;
    let take = |pos: &mut Option<usize>, r: &mut Reader<'_>, n: usize| -> Result<Vec<u8>> {
        match pos {
            None => Ok(r.read_bytes(n)?.to_vec()),
            Some(p) => {
                let end = p
                    .checked_add(n)
                    .ok_or(CodecError::Invalid("pointer overflow"))?;
                let bytes = full_message
                    .get(*p..end)
                    .ok_or(CodecError::Invalid("pointer past end"))?;
                *p = end;
                Ok(bytes.to_vec())
            }
        }
    };
    loop {
        let len = take(&mut jumped_pos, r, 1)?[0];
        if len == 0 {
            break;
        }
        if len & 0xc0 == 0xc0 {
            let lo = take(&mut jumped_pos, r, 1)?[0];
            let offset = ((usize::from(len) & 0x3f) << 8) | usize::from(lo);
            if offset >= full_message.len() || jumps > 8 {
                return Err(CodecError::Invalid("bad compression pointer"));
            }
            jumps += 1;
            jumped_pos = Some(offset);
            continue;
        }
        if len >= 64 {
            return Err(CodecError::Invalid("bad label length"));
        }
        let label = take(&mut jumped_pos, r, len as usize)?;
        labels.push(String::from_utf8(label).map_err(|_| CodecError::Invalid("non-UTF-8 label"))?);
    }
    Ok(labels.join("."))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svcb::SvcParams;
    use simnet::addr::Ipv4Addr;

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, "www.example.com", QType::Https);
        let decoded = Message::decode(&q.encode()).unwrap();
        assert_eq!(decoded, q);
    }

    #[test]
    fn response_roundtrip() {
        let q = Message::query(7, "example.com", QType::A);
        let resp = Message::response_to(
            &q,
            Rcode::NoError,
            vec![
                Record::new("example.com", RData::Cname("edge.cdn.example".into())),
                Record::new("edge.cdn.example", RData::A(Ipv4Addr::new(198, 51, 100, 4))),
            ],
        );
        let decoded = Message::decode(&resp.encode()).unwrap();
        assert_eq!(decoded, resp);
        assert!(decoded.response);
    }

    #[test]
    fn https_rr_message() {
        let q = Message::query(9, "cf.example", QType::Https);
        let resp = Message::response_to(
            &q,
            Rcode::NoError,
            vec![Record::new(
                "cf.example",
                RData::Svc {
                    priority: 1,
                    target: String::new(),
                    params: SvcParams {
                        alpn: vec!["h3-29".into()],
                        ipv4hint: vec![Ipv4Addr::new(104, 16, 0, 1)],
                        ..SvcParams::default()
                    },
                },
            )],
        );
        let decoded = Message::decode(&resp.encode()).unwrap();
        match &decoded.answers[0].rdata {
            RData::Svc { params, .. } => assert!(params.indicates_quic()),
            other => panic!("wrong rdata {other:?}"),
        }
    }

    #[test]
    fn nxdomain() {
        let q = Message::query(1, "nope.example", QType::A);
        let resp = Message::response_to(&q, Rcode::NxDomain, vec![]);
        let decoded = Message::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.rcode, Rcode::NxDomain);
        assert!(decoded.answers.is_empty());
    }

    #[test]
    fn name_with_pointer_decodes() {
        // Hand-build: header + question with name at offset 12, answer name
        // as pointer to offset 12.
        let q = Message::query(2, "ptr.example", QType::A);
        let mut bytes = q.encode();
        // Append one answer manually using a compression pointer.
        bytes[6] = 0; // ancount high
        bytes[7] = 1; // ancount low
        bytes.extend_from_slice(&[0xc0, 12]); // pointer to question name
        bytes.extend_from_slice(&1u16.to_be_bytes()); // type A
        bytes.extend_from_slice(&1u16.to_be_bytes()); // class IN
        bytes.extend_from_slice(&60u32.to_be_bytes()); // ttl
        bytes.extend_from_slice(&4u16.to_be_bytes()); // rdlength
        bytes.extend_from_slice(&[10, 0, 0, 1]);
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.answers[0].name, "ptr.example");
        assert_eq!(
            decoded.answers[0].rdata,
            RData::A(Ipv4Addr::new(10, 0, 0, 1))
        );
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::rr::QType;
    use proptest::prelude::*;
    use simnet::addr::Ipv4Addr;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Adds up what each thread asks the allocator for, so a test can see a
    /// reservation that `decode` drops again before it returns.
    struct CountingAlloc;

    thread_local!(static REQUESTED: Cell<usize> = const { Cell::new(0) });

    // SAFETY: every call goes to `System` with the arguments it was given
    // (`realloc` is the default `alloc` + copy, so growth is counted too);
    // the counter is a const-initialised `Cell` with no destructor, so
    // touching it neither allocates nor re-enters the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = REQUESTED.try_with(|n| n.set(n.get() + layout.size()));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Decodes; returns the bytes `decode` requested. A few hundred bytes of
    /// message never ask for more than a few KiB, `Ok` or `Err`, and what
    /// decodes holds no more entries than the bytes could carry.
    fn decode_and_check(bytes: &[u8]) -> std::result::Result<usize, String> {
        let before = REQUESTED.get();
        let decoded = Message::decode(bytes);
        let requested = REQUESTED.get() - before;
        prop_assert!(
            requested < 64 * 1024,
            "{} bytes in, {requested} requested",
            bytes.len()
        );
        if let Ok(m) = decoded {
            prop_assert!(m.questions.len() <= bytes.len() / MIN_QUESTION_LEN);
            prop_assert!(m.answers.len() <= bytes.len() / MIN_RECORD_LEN);
        }
        Ok(requested)
    }

    /// A 12-byte header announcing 65,535 questions and 65,535 records used
    /// to reserve both tables (2 MiB and more) before the first read failed.
    #[test]
    fn header_claiming_0xffff_entries_reserves_for_none() {
        for counts in [[0xff; 4], [0, 0, 0xff, 0xff]] {
            let mut header = [0u8; 12];
            header[4..8].copy_from_slice(&counts);
            assert!(Message::decode(&header).is_err());
            let requested = decode_and_check(&header).unwrap();
            assert!(requested < 1024, "decode requested {requested} bytes");
        }
    }

    proptest! {
        /// Arbitrary bytes, and a valid response with one byte overwritten,
        /// its counts overwritten, or its tail cut, decode to `Ok` or `Err` —
        /// no panic, no reservation sized by a claim (ROADMAP item 4(b)).
        #[test]
        fn decode_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            answers in 0u8..4,
            at in any::<usize>(),
            value in any::<u8>(),
            counts in any::<u32>(),
        ) {
            decode_and_check(&bytes)?;

            let query = Message::query(value.into(), "www.example.com", QType::Https);
            let records = (0..answers)
                .map(|i| Record::new("www.example.com", RData::A(Ipv4Addr::new(198, 51, 100, i))))
                .collect();
            let valid = Message::response_to(&query, Rcode::NoError, records).encode();
            prop_assert!(Message::decode(&valid).is_ok());
            let at = at % valid.len();

            let mut flipped = valid.clone();
            flipped[at] = value;
            decode_and_check(&flipped)?;
            let mut recounted = valid.clone();
            recounted[4..8].copy_from_slice(&counts.to_be_bytes());
            decode_and_check(&recounted)?;
            decode_and_check(&valid[..at])?;
        }
    }

    #[test]
    fn truncated_messages_error_not_panic() {
        let full = Message::query(5, "host.example.com", QType::Https).encode();
        for cut in 0..full.len() {
            let _ = Message::decode(&full[..cut]); // must not panic
        }
    }

    #[test]
    fn pointer_loop_is_bounded() {
        // Craft a header + a question whose name is a self-referencing pointer.
        let mut bytes = vec![0u8; 12];
        bytes[0] = 0;
        bytes[1] = 7; // id
        bytes[5] = 1; // qdcount = 1
        bytes.extend_from_slice(&[0xc0, 12]); // pointer to itself
        bytes.extend_from_slice(&1u16.to_be_bytes());
        bytes.extend_from_slice(&1u16.to_be_bytes());
        assert!(
            Message::decode(&bytes).is_err(),
            "self-pointer must be rejected"
        );
    }

    #[test]
    fn long_labels_rejected() {
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1;
        bytes.push(64); // label length 64 is illegal
        bytes.extend_from_slice(&[b'a'; 64]);
        bytes.push(0);
        bytes.extend_from_slice(&1u16.to_be_bytes());
        bytes.extend_from_slice(&1u16.to_be_bytes());
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn case_preserved_in_names() {
        let q = Message::query(9, "MixedCase.Example", QType::A);
        let decoded = Message::decode(&q.encode()).unwrap();
        assert_eq!(decoded.questions[0].name, "MixedCase.Example");
    }
}
