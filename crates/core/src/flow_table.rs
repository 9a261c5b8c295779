//! The load balancer's flow table.
//!
//! The only per-flow state SRLB keeps is the mapping *flow → accepting
//! server*, learned from the SRH the server inserts into its SYN-ACK.  Every
//! subsequent packet of the flow is steered to that server so a connection
//! is always handled by the instance that accepted it.
//!
//! `FlowKey` carries a cached, finalised 64-bit hash computed once at
//! construction, so the table uses the pass-through
//! [`srlb_net::PassthroughHashBuilder`] instead of re-hashing every key with
//! SipHash on every map operation.
//!
//! The table implementation itself lives in [`crate::flow_state`]: a
//! sharded, optionally capacity-bounded store with incremental expiry.
//! [`FlowTable`] is the legacy name for that type and keeps the original
//! constructor surface (`new`, `with_default_timeout`) working unchanged.

/// The flow → server stickiness table.
///
/// Legacy name for [`crate::flow_state::FlowState`]; `FlowTable::new` builds
/// the default (unbounded, 8-shard) configuration, matching the behaviour of
/// the original single-map table while gaining incremental expiry and
/// optional capacity bounding.
pub type FlowTable = crate::flow_state::FlowState;

#[cfg(test)]
mod tests {
    use std::net::Ipv6Addr;

    use srlb_net::{FlowKey, Protocol};
    use srlb_sim::{SimDuration, SimTime};

    use super::*;

    fn flow(port: u16) -> FlowKey {
        FlowKey::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8:1::".parse().unwrap(),
            port,
            80,
            Protocol::Tcp,
        )
    }

    fn server(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfd00, 0, 0, 1, 0, 0, 0, n)
    }

    #[test]
    fn learn_lookup_remove() {
        let mut table = FlowTable::with_default_timeout();
        assert!(table.is_empty());
        assert_eq!(table.lookup(&flow(1), SimTime::ZERO), None);

        table.learn(flow(1), server(3), SimTime::ZERO);
        table.learn(flow(2), server(5), SimTime::ZERO);
        assert_eq!(table.len(), 2);
        assert_eq!(table.lookup(&flow(1), SimTime::ZERO), Some(server(3)));
        assert_eq!(table.peek(&flow(2)), Some(server(5)));

        assert_eq!(table.remove(&flow(1)), Some(server(3)));
        assert_eq!(table.remove(&flow(1)), None);
        assert_eq!(table.len(), 1);
        assert_eq!(table.inserted_total(), 2);
    }

    #[test]
    fn relearning_overwrites_owner() {
        let mut table = FlowTable::with_default_timeout();
        table.learn(flow(1), server(3), SimTime::ZERO);
        table.learn(flow(1), server(7), SimTime::ZERO);
        assert_eq!(table.len(), 1);
        assert_eq!(table.peek(&flow(1)), Some(server(7)));
    }

    #[test]
    fn idle_entries_expire_but_active_ones_survive() {
        let mut table = FlowTable::new(SimDuration::from_secs(10));
        let t0 = SimTime::ZERO;
        table.learn(flow(1), server(1), t0);
        table.learn(flow(2), server(2), t0);

        // Refresh flow 2 at t = 8s.
        let t8 = t0 + SimDuration::from_secs(8);
        assert_eq!(table.lookup(&flow(2), t8), Some(server(2)));

        // At t = 15s, flow 1 (idle 15s) expires, flow 2 (idle 7s) survives.
        let t15 = t0 + SimDuration::from_secs(15);
        assert_eq!(table.expire_idle(t15), 1);
        assert_eq!(table.peek(&flow(1)), None);
        assert_eq!(table.peek(&flow(2)), Some(server(2)));
        assert_eq!(table.expired_total(), 1);
    }

    #[test]
    fn expiry_at_exact_timeout_keeps_entry() {
        let mut table = FlowTable::new(SimDuration::from_secs(10));
        table.learn(flow(1), server(1), SimTime::ZERO);
        assert_eq!(
            table.expire_idle(SimTime::ZERO + SimDuration::from_secs(10)),
            0
        );
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn default_is_five_minutes() {
        let table = FlowTable::default();
        assert_eq!(table.len(), 0);
        assert_eq!(table, FlowTable::with_default_timeout());
    }
}
