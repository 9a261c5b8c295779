//! Addressing plan of the simulated data centre.
//!
//! The paper assumes an IPv6 data centre in which applications are identified
//! by *virtual IP addresses* (VIPs) and replicated across servers identified
//! by their *physical* addresses.  This module provides a deterministic
//! addressing scheme for clients, servers, the load balancer and VIPs so that
//! every component of the workspace agrees on who is who.

use std::fmt;
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

/// Identifier of a backend server (0-based index into the server pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(pub u32);

impl ServerId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

impl From<u32> for ServerId {
    fn from(value: u32) -> Self {
        ServerId(value)
    }
}

impl From<ServerId> for u32 {
    fn from(value: ServerId) -> Self {
        value.0
    }
}

/// Deterministic addressing plan for clients, servers, VIPs and the load
/// balancer.
///
/// The defaults mirror the paper's testbed layout: the load balancer sits at
/// the edge of the data centre and advertises the VIPs; servers have
/// physical addresses on an internal prefix; clients are external.
///
/// # Example
///
/// ```
/// use srlb_net::AddressPlan;
///
/// let plan = AddressPlan::default();
/// assert_ne!(plan.server_addr(srlb_net::ServerId(0)), plan.server_addr(srlb_net::ServerId(1)));
/// assert_eq!(plan.server_of(plan.server_addr(srlb_net::ServerId(5))), Some(srlb_net::ServerId(5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressPlan {
    /// Prefix (first four 16-bit groups) of server physical addresses.
    server_prefix: [u16; 4],
    /// Prefix of client addresses.
    client_prefix: [u16; 4],
    /// Prefix of VIPs.
    vip_prefix: [u16; 4],
    /// Address of the load balancer itself.
    lb_addr: Ipv6Addr,
}

impl Default for AddressPlan {
    fn default() -> Self {
        AddressPlan {
            server_prefix: [0xfd00, 0x0, 0x0, 0x1],
            client_prefix: [0x2001, 0x0db8, 0xc11e, 0x0],
            vip_prefix: [0x2001, 0x0db8, 0x0001, 0x0],
            lb_addr: Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 0x1b),
        }
    }
}

impl AddressPlan {
    /// Creates a plan with the default prefixes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Address of the load balancer.
    pub fn lb_addr(&self) -> Ipv6Addr {
        self.lb_addr
    }

    /// Physical address of backend server `id`.
    pub fn server_addr(&self, id: impl Into<ServerId>) -> Ipv6Addr {
        let id = id.into();
        let [a, b, c, d] = self.server_prefix;
        Ipv6Addr::new(
            a,
            b,
            c,
            d,
            0,
            0,
            (id.0 >> 16) as u16,
            (id.0 & 0xffff) as u16,
        )
    }

    /// Address of client `id`.
    pub fn client_addr(&self, id: u32) -> Ipv6Addr {
        let [a, b, c, d] = self.client_prefix;
        Ipv6Addr::new(a, b, c, d, 0, 0, (id >> 16) as u16, (id & 0xffff) as u16)
    }

    /// Virtual IP address of application `app`.
    pub fn vip(&self, app: u32) -> Ipv6Addr {
        let [a, b, c, d] = self.vip_prefix;
        Ipv6Addr::new(a, b, c, d, 0, 0, (app >> 16) as u16, (app & 0xffff) as u16)
    }

    /// Reverse lookup: which server owns `addr`, if any.
    pub fn server_of(&self, addr: Ipv6Addr) -> Option<ServerId> {
        let seg = addr.segments();
        if seg[0..4] == self.server_prefix && seg[4] == 0 && seg[5] == 0 {
            Some(ServerId(((seg[6] as u32) << 16) | seg[7] as u32))
        } else {
            None
        }
    }

    /// Reverse lookup: which client owns `addr`, if any.
    pub fn client_of(&self, addr: Ipv6Addr) -> Option<u32> {
        let seg = addr.segments();
        if seg[0..4] == self.client_prefix && seg[4] == 0 && seg[5] == 0 {
            Some(((seg[6] as u32) << 16) | seg[7] as u32)
        } else {
            None
        }
    }

    /// Returns `true` if `addr` is one of the plan's VIPs.
    pub fn is_vip(&self, addr: Ipv6Addr) -> bool {
        let seg = addr.segments();
        seg[0..4] == self.vip_prefix
    }

    /// Iterator over the physical addresses of the first `n` servers.
    pub fn server_addrs(&self, n: u32) -> impl Iterator<Item = Ipv6Addr> + '_ {
        (0..n).map(move |i| self.server_addr(ServerId(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_addresses_are_distinct_and_reversible() {
        let plan = AddressPlan::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u32 {
            let addr = plan.server_addr(ServerId(i));
            assert!(seen.insert(addr), "duplicate address for server {i}");
            assert_eq!(plan.server_of(addr), Some(ServerId(i)));
            assert!(!plan.is_vip(addr));
            assert!(plan.client_of(addr).is_none());
        }
    }

    #[test]
    fn client_addresses_are_reversible() {
        let plan = AddressPlan::default();
        for i in [0u32, 1, 17, 65535, 65536, 1 << 20] {
            let addr = plan.client_addr(i);
            assert_eq!(plan.client_of(addr), Some(i));
            assert!(plan.server_of(addr).is_none());
        }
    }

    #[test]
    fn vips_are_recognized() {
        let plan = AddressPlan::default();
        let vip = plan.vip(3);
        assert!(plan.is_vip(vip));
        assert!(!plan.is_vip(plan.server_addr(ServerId(3))));
        assert!(!plan.is_vip(plan.lb_addr()));
    }

    #[test]
    fn lb_address_is_not_a_server_or_client() {
        let plan = AddressPlan::default();
        assert!(plan.server_of(plan.lb_addr()).is_none());
        assert!(plan.client_of(plan.lb_addr()).is_none());
    }

    #[test]
    fn server_addrs_iterator_matches_indexed_lookup() {
        let plan = AddressPlan::default();
        let all: Vec<_> = plan.server_addrs(12).collect();
        assert_eq!(all.len(), 12);
        for (i, addr) in all.iter().enumerate() {
            assert_eq!(*addr, plan.server_addr(ServerId(i as u32)));
        }
    }

    #[test]
    fn server_id_display_and_conversions() {
        let id = ServerId(7);
        assert_eq!(id.to_string(), "server-7");
        assert_eq!(u32::from(id), 7);
        assert_eq!(ServerId::from(7u32), id);
        assert_eq!(id.index(), 7);
    }
}
