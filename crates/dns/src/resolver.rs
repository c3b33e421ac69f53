//! Recursive resolver simulation: lookup with CNAME chasing over a
//! [`ZoneDb`], standing in for the paper's local Unbound instance.

use std::sync::Arc;

use crate::rr::{QType, RData, Record};
use crate::wire::Rcode;
use crate::zone::ZoneDb;

/// A resolver over shared zone data.
#[derive(Clone)]
pub struct Resolver {
    db: Arc<ZoneDb>,
}

impl Resolver {
    /// Wraps zone data.
    pub fn new(db: Arc<ZoneDb>) -> Self {
        Resolver { db }
    }

    /// Resolves `name`/`qtype`, chasing CNAMEs up to 8 deep. Returns the
    /// response code and the full answer chain (CNAMEs included), like a
    /// recursive resolver would.
    pub fn resolve(&self, name: &str, qtype: QType) -> (Rcode, Vec<Record>) {
        let mut answers = Vec::new();
        let mut current = name.to_string();
        for _ in 0..8 {
            let direct = self.db.lookup(&current, qtype);
            if !direct.is_empty() {
                answers.extend_from_slice(direct);
                return (Rcode::NoError, answers);
            }
            let cnames = self.db.lookup(&current, QType::Cname);
            if let Some(c) = cnames.first() {
                answers.push(c.clone());
                if let RData::Cname(target) = &c.rdata {
                    current = target.clone();
                    continue;
                }
            }
            break;
        }
        if self.db.name_exists(&current) || !answers.is_empty() {
            (Rcode::NoError, answers) // NODATA
        } else {
            (Rcode::NxDomain, answers)
        }
    }

    /// The underlying zone data.
    pub fn db(&self) -> &ZoneDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RData;
    use simnet::addr::Ipv4Addr;

    fn resolver() -> Resolver {
        let mut db = ZoneDb::new();
        db.add_a("direct.example", Ipv4Addr::new(10, 1, 1, 1));
        db.insert(Record::new(
            "www.example",
            RData::Cname("edge.cdn.example".into()),
        ));
        db.add_a("edge.cdn.example", Ipv4Addr::new(10, 2, 2, 2));
        db.insert(Record::new(
            "loop.example",
            RData::Cname("loop.example".into()),
        ));
        db.add_aaaa("v6only.example", simnet::addr::Ipv6Addr::LOCALHOST);
        Resolver::new(Arc::new(db))
    }

    #[test]
    fn direct_answer() {
        let (rcode, answers) = resolver().resolve("direct.example", QType::A);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn cname_chase() {
        let (rcode, answers) = resolver().resolve("www.example", QType::A);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 2);
        assert!(matches!(answers[0].rdata, RData::Cname(_)));
        assert!(matches!(answers[1].rdata, RData::A(_)));
    }

    #[test]
    fn nxdomain_vs_nodata() {
        let (rcode, _) = resolver().resolve("missing.example", QType::A);
        assert_eq!(rcode, Rcode::NxDomain);
        let (rcode, answers) = resolver().resolve("v6only.example", QType::A);
        assert_eq!(rcode, Rcode::NoError, "NODATA is not NXDOMAIN");
        assert!(answers.is_empty());
    }

    #[test]
    fn cname_loop_bounded() {
        let (rcode, answers) = resolver().resolve("loop.example", QType::A);
        assert_eq!(rcode, Rcode::NoError);
        assert_eq!(answers.len(), 8, "loop terminated by depth bound");
    }
}
