//! Authoritative zone data for the simulated DNS.

use std::collections::HashMap;

use crate::rr::{QType, RData, Record};

/// An in-memory record store keyed by (owner name, type).
#[derive(Debug, Default)]
pub struct ZoneDb {
    records: HashMap<(String, u16), Vec<Record>>,
    names: usize,
}

impl ZoneDb {
    /// Empty database.
    pub fn new() -> Self {
        ZoneDb::default()
    }

    /// Adds a record.
    pub fn insert(&mut self, record: Record) {
        let qtype = record.rdata.qtype(true);
        let key = (record.name.to_ascii_lowercase(), qtype.code());
        let entry = self.records.entry(key).or_default();
        if entry.is_empty() {
            self.names += 1;
        }
        entry.push(record);
    }

    /// All records of `qtype` at `name` (no CNAME chasing — see `Resolver`).
    /// SVCB queries also match HTTPS-served Svc records and vice versa is
    /// *not* true: the paper found HTTPS RRs deployed but no SVCB RRs, so
    /// zones here store Svc data under HTTPS only unless explicitly added.
    pub fn lookup(&self, name: &str, qtype: QType) -> &[Record] {
        self.records
            .get(&(name.to_ascii_lowercase(), qtype.code()))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Whether any record exists at `name` (for NXDOMAIN vs NODATA).
    pub fn name_exists(&self, name: &str) -> bool {
        let name = name.to_ascii_lowercase();
        [
            QType::A,
            QType::Aaaa,
            QType::Cname,
            QType::Https,
            QType::Svcb,
        ]
        .iter()
        .any(|t| self.records.contains_key(&(name.clone(), t.code())))
    }

    /// Number of distinct (name, type) entries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Convenience: add an A record.
    pub fn add_a(&mut self, name: &str, addr: simnet::addr::Ipv4Addr) {
        self.insert(Record::new(name, RData::A(addr)));
    }

    /// Convenience: add an AAAA record.
    pub fn add_aaaa(&mut self, name: &str, addr: simnet::addr::Ipv6Addr) {
        self.insert(Record::new(name, RData::Aaaa(addr)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::addr::Ipv4Addr;

    #[test]
    fn insert_and_lookup() {
        let mut db = ZoneDb::new();
        db.add_a("a.example", Ipv4Addr::new(10, 0, 0, 1));
        db.add_a("a.example", Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(db.lookup("a.example", QType::A).len(), 2);
        assert_eq!(
            db.lookup("A.EXAMPLE", QType::A).len(),
            2,
            "case-insensitive"
        );
        assert!(db.lookup("a.example", QType::Aaaa).is_empty());
        assert!(db.name_exists("a.example"));
        assert!(!db.name_exists("b.example"));
    }
}
