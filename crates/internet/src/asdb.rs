//! Prefix → autonomous-system mapping (the Route Views stand-in) and the
//! AS-name table of the paper's Appendix B (Table 7).

use std::collections::HashMap;

use simnet::addr::Prefix;
use simnet::IpAddr;

/// Well-known AS numbers from the paper (Table 7 plus Facebook).
pub mod asn {
    pub const GTS_TELECOM: u32 = 5606;
    pub const IONOS: u32 = 8560;
    pub const CLOUDFLARE: u32 = 13335;
    pub const DIGITALOCEAN: u32 = 14061;
    pub const GOOGLE: u32 = 15169;
    pub const OVH: u32 = 16276;
    pub const AMAZON: u32 = 16509;
    pub const AKAMAI: u32 = 20940;
    pub const FACEBOOK: u32 = 32934;
    pub const SYNERGY: u32 = 45638;
    pub const HOSTINGER: u32 = 47583;
    pub const FASTLY: u32 = 54113;
    pub const A2_HOSTING: u32 = 55293;
    pub const JIO: u32 = 55836;
    pub const PRIVATESYSTEMS: u32 = 63410;
    pub const LINODE: u32 = 63949;
    pub const GOOGLE_CLOUD: u32 = 396982;
    pub const CLOUDFLARE_LONDON: u32 = 209242;
    pub const EUROBYTE: u32 = 210079;
}

/// The Table 7 name mapping.
pub fn well_known_names() -> Vec<(u32, &'static str)> {
    vec![
        (asn::GTS_TELECOM, "GTS Telecom SRL"),
        (asn::IONOS, "1&1 IONOS SE"),
        (asn::CLOUDFLARE, "Cloudflare, Inc."),
        (asn::DIGITALOCEAN, "DigitalOcean, LLC"),
        (asn::GOOGLE, "Google LLC"),
        (asn::OVH, "OVH SAS"),
        (asn::AMAZON, "Amazon.com, Inc."),
        (asn::AKAMAI, "Akamai International B.V."),
        (asn::FACEBOOK, "Facebook, Inc."),
        (asn::SYNERGY, "SYNERGY WHOLESALE PTY LTD"),
        (asn::HOSTINGER, "Hostinger International Limited"),
        (asn::FASTLY, "Fastly"),
        (asn::A2_HOSTING, "A2 Hosting, Inc."),
        (asn::JIO, "Reliance Jio Infocomm Limited"),
        (asn::PRIVATESYSTEMS, "PrivateSystems Networks"),
        (asn::LINODE, "Linode, LLC"),
        (asn::GOOGLE_CLOUD, "Google LLC (Cloud)"),
        (asn::CLOUDFLARE_LONDON, "Cloudflare London, LLC"),
        (asn::EUROBYTE, "EuroByte LLC"),
    ]
}

/// Longest-prefix-match AS database.
#[derive(Debug, Default)]
pub struct AsDb {
    prefixes: Vec<(Prefix, u32)>,
    names: HashMap<u32, String>,
    sorted: bool,
}

impl AsDb {
    /// Empty database pre-loaded with the Table 7 names.
    pub fn new() -> Self {
        let mut db = AsDb::default();
        for (asn, name) in well_known_names() {
            db.names.insert(asn, name.to_string());
        }
        db
    }

    /// Registers an announced prefix.
    pub fn announce(&mut self, prefix: Prefix, asn: u32) {
        self.prefixes.push((prefix, asn));
        self.sorted = false;
    }

    /// Names an AS (for generated tail ASes).
    pub fn set_name(&mut self, asn: u32, name: String) {
        self.names.insert(asn, name);
    }

    /// Finalizes for lookups (sorts by descending prefix length).
    pub fn freeze(&mut self) {
        self.prefixes.sort_by_key(|p| std::cmp::Reverse(p.0.len));
        self.sorted = true;
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: &IpAddr) -> Option<u32> {
        debug_assert!(self.sorted, "call freeze() before lookups");
        self.prefixes
            .iter()
            .find(|(p, _)| p.contains(addr))
            .map(|(_, asn)| *asn)
    }

    /// The display name for an AS.
    pub fn name(&self, asn: u32) -> String {
        self.names
            .get(&asn)
            .cloned()
            .unwrap_or_else(|| format!("AS{asn}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::addr::{Ipv4Addr, Ipv6Addr};

    #[test]
    fn longest_prefix_wins() {
        let mut db = AsDb::new();
        db.announce(Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8), 100);
        db.announce(Prefix::new(Ipv4Addr::new(10, 5, 0, 0), 16), asn::CLOUDFLARE);
        db.freeze();
        assert_eq!(
            db.lookup(&IpAddr::V4(Ipv4Addr::new(10, 5, 1, 1))),
            Some(asn::CLOUDFLARE)
        );
        assert_eq!(
            db.lookup(&IpAddr::V4(Ipv4Addr::new(10, 9, 1, 1))),
            Some(100)
        );
        assert_eq!(db.lookup(&IpAddr::V4(Ipv4Addr::new(11, 0, 0, 1))), None);
    }

    #[test]
    fn v6_prefixes() {
        let mut db = AsDb::new();
        db.announce(
            Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, 5, 0, 0, 0, 0, 0), 48),
            asn::GOOGLE,
        );
        db.freeze();
        assert_eq!(
            db.lookup(&IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 5, 1, 0, 0, 0, 1))),
            Some(asn::GOOGLE)
        );
    }

    #[test]
    fn names() {
        let db = AsDb::new();
        assert_eq!(db.name(asn::CLOUDFLARE), "Cloudflare, Inc.");
        assert_eq!(db.name(64512), "AS64512");
    }
}
