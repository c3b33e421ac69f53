//! Network addressing for the simulated Internet.
//!
//! Thin wrappers over the std IP types plus prefix (CIDR) matching used by
//! the AS database and the ZMap blocklist.

pub use std::net::{Ipv4Addr, Ipv6Addr};

/// An IPv4 or IPv6 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpAddr {
    /// IPv4.
    V4(Ipv4Addr),
    /// IPv6.
    V6(Ipv6Addr),
}

impl IpAddr {
    /// True for IPv4 addresses.
    pub fn is_v4(&self) -> bool {
        matches!(self, IpAddr::V4(_))
    }

    /// The address family as a short label ("v4" / "v6"), used in reports.
    pub fn family(&self) -> &'static str {
        match self {
            IpAddr::V4(_) => "v4",
            IpAddr::V6(_) => "v6",
        }
    }

    /// Big-endian byte representation (4 or 16 bytes).
    pub fn octets(&self) -> Vec<u8> {
        match self {
            IpAddr::V4(a) => a.octets().to_vec(),
            IpAddr::V6(a) => a.octets().to_vec(),
        }
    }

    /// A stable 128-bit integer key (IPv4 is mapped into the low 32 bits).
    pub fn as_u128(&self) -> u128 {
        match self {
            IpAddr::V4(a) => u128::from(u32::from(*a)),
            IpAddr::V6(a) => u128::from(*a),
        }
    }
}

impl From<Ipv4Addr> for IpAddr {
    fn from(a: Ipv4Addr) -> Self {
        IpAddr::V4(a)
    }
}

impl From<Ipv6Addr> for IpAddr {
    fn from(a: Ipv6Addr) -> Self {
        IpAddr::V6(a)
    }
}

impl From<u32> for IpAddr {
    fn from(v: u32) -> Self {
        IpAddr::V4(Ipv4Addr::from(v))
    }
}

impl core::fmt::Display for IpAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IpAddr::V4(a) => write!(f, "{a}"),
            IpAddr::V6(a) => write!(f, "{a}"),
        }
    }
}

/// Transport endpoint: address plus port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketAddr {
    /// IP address.
    pub ip: IpAddr,
    /// UDP/TCP port.
    pub port: u16,
}

impl SocketAddr {
    /// Builds a socket address.
    pub fn new(ip: impl Into<IpAddr>, port: u16) -> Self {
        SocketAddr {
            ip: ip.into(),
            port,
        }
    }
}

impl core::fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.ip {
            IpAddr::V4(_) => write!(f, "{}:{}", self.ip, self.port),
            IpAddr::V6(_) => write!(f, "[{}]:{}", self.ip, self.port),
        }
    }
}

/// A CIDR prefix over either family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// Network base address.
    pub base: IpAddr,
    /// Prefix length in bits.
    pub len: u8,
}

impl Prefix {
    /// Builds a prefix; the base is masked to the prefix length.
    pub fn new(base: impl Into<IpAddr>, len: u8) -> Self {
        let base = base.into();
        let max = if base.is_v4() { 32 } else { 128 };
        assert!(
            len <= max,
            "prefix length {len} too long for {}",
            base.family()
        );
        let shift_base = if base.is_v4() { 32 } else { 128 };
        let masked = if len == 0 {
            0
        } else {
            let v = base.as_u128();
            let host_bits = shift_base - u32::from(len);
            (v >> host_bits) << host_bits
        };
        let base = match base {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::from(masked as u32)),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::from(masked)),
        };
        Prefix { base, len }
    }

    /// True if `addr` is inside this prefix (families must match).
    pub fn contains(&self, addr: &IpAddr) -> bool {
        if self.base.is_v4() != addr.is_v4() {
            return false;
        }
        if self.len == 0 {
            return true;
        }
        let bits = if self.base.is_v4() { 32 } else { 128 };
        let shift = bits - u32::from(self.len);
        (self.base.as_u128() >> shift) == (addr.as_u128() >> shift)
    }

    /// Number of addresses covered (saturating at `u128::MAX`).
    pub fn size(&self) -> u128 {
        let bits = if self.base.is_v4() { 32u32 } else { 128 };
        let host = bits - u32::from(self.len);
        if host >= 128 {
            u128::MAX
        } else {
            1u128 << host
        }
    }
}

impl core::fmt::Display for Prefix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.base, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_contains() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16);
        assert!(p.contains(&IpAddr::V4(Ipv4Addr::new(10, 1, 200, 3))));
        assert!(!p.contains(&IpAddr::V4(Ipv4Addr::new(10, 2, 0, 1))));
        assert!(!p.contains(&IpAddr::V6(Ipv6Addr::LOCALHOST)));
        assert_eq!(p.size(), 65536);
    }

    #[test]
    fn prefix_masks_base() {
        let p = Prefix::new(Ipv4Addr::new(192, 168, 77, 9), 24);
        assert_eq!(p.base, IpAddr::V4(Ipv4Addr::new(192, 168, 77, 0)));
        assert_eq!(p.to_string(), "192.168.77.0/24");
    }

    #[test]
    fn v6_prefix() {
        let p = Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0), 32);
        assert!(p.contains(&IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 1, 2, 3, 4, 5, 6))));
        assert!(!p.contains(&IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb9, 0, 0, 0, 0, 0, 1))));
    }

    #[test]
    fn zero_length_prefix_contains_family() {
        let p = Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(p.contains(&IpAddr::V4(Ipv4Addr::new(255, 255, 255, 255))));
        assert!(!p.contains(&IpAddr::V6(Ipv6Addr::LOCALHOST)));
    }

    #[test]
    fn socketaddr_display() {
        assert_eq!(
            SocketAddr::new(Ipv4Addr::new(1, 2, 3, 4), 443).to_string(),
            "1.2.3.4:443"
        );
        assert_eq!(
            SocketAddr::new(Ipv6Addr::LOCALHOST, 443).to_string(),
            "[::1]:443"
        );
    }
}
