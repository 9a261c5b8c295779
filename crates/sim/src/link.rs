//! Link latencies between nodes.
//!
//! The paper's testbed bridges the load balancer and all servers on the same
//! link, so the default topology is a uniform one-way latency; specific pairs
//! can be overridden (e.g. a slower client↔load-balancer WAN hop).
//!
//! [`Topology`] is the low-level, per-`NodeId` latency table the event loop
//! consults.  [`TopologyModel`] is its declarative, serde-round-trippable
//! counterpart: a *named* latency model (uniform, or rack/zone asymmetric)
//! that experiment specs carry and that is instantiated into a `Topology`
//! once the node layout (client, load balancer, servers) is known.

use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::time::SimDuration;

/// One-way link latencies between pairs of nodes.
///
/// Overrides are indexed by source node: `rows[a][b]`, where it exists, *is*
/// the latency of `a → b` — cells a row grew past without an override hold
/// what the default rule gives that pair, so [`Topology::latency`] (paid on
/// every send) is two indexed loads with no hashing, and falls back to the
/// default rule only beyond the rows.
#[derive(Debug, Clone)]
pub struct Topology {
    default_latency: SimDuration,
    rows: Vec<Vec<SimDuration>>,
    symmetric: bool,
}

impl Topology {
    /// A topology in which every pair of nodes is connected with the same
    /// one-way latency.
    pub fn uniform(latency: SimDuration) -> Self {
        Topology {
            default_latency: latency,
            rows: Vec::new(),
            symmetric: true,
        }
    }

    /// The default data-centre topology used by the SRLB experiments:
    /// a 50 µs one-way latency between any two nodes (bridged L2 segment).
    pub fn datacenter() -> Self {
        Self::uniform(SimDuration::from_micros(50))
    }

    /// Sets the latency of the directed link `a → b` (and `b → a` if the
    /// topology is symmetric, the default).
    pub(crate) fn set_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration) -> &mut Self {
        self.set_directed(a, b, latency);
        if self.symmetric {
            self.set_directed(b, a, latency);
        }
        self
    }

    /// The latency of `a → b` when no override names the pair.
    fn unset_latency(default_latency: SimDuration, a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            SimDuration::ZERO
        } else {
            default_latency
        }
    }

    /// Overrides the directed link `a → b`, growing row `a` (and the row
    /// table) as far as needed.
    fn set_directed(&mut self, a: NodeId, b: NodeId, latency: SimDuration) {
        if self.rows.len() <= a.index() {
            self.rows.resize_with(a.index() + 1, Vec::new);
        }
        let row = &mut self.rows[a.index()];
        for next in row.len()..=b.index() {
            row.push(Self::unset_latency(self.default_latency, a, NodeId(next)));
        }
        row[b.index()] = latency;
    }

    /// Makes subsequent [`Topology::set_link`] calls directional.
    #[cfg(test)]
    pub(crate) fn asymmetric(&mut self) -> &mut Self {
        self.symmetric = false;
        self
    }

    /// One-way latency from `a` to `b`.  Sending a message to oneself is
    /// instantaneous unless explicitly overridden.
    pub fn latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        match self.rows.get(a.index()).and_then(|row| row.get(b.index())) {
            Some(&latency) => latency,
            None => Self::unset_latency(self.default_latency, a, b),
        }
    }

    /// The default latency applied to links without an override.
    #[cfg(test)]
    pub(crate) fn default_latency(&self) -> SimDuration {
        self.default_latency
    }

    /// Multiplies the latency of every directed link touching `node` by
    /// `multiplier` — the "slow node" fault model: a degraded NIC or an
    /// oversubscribed hypervisor slows everything in and out of one box.
    ///
    /// `node_count` bounds the peer ids considered (the topology itself is
    /// a default plus overrides and has no node list).  Both directions of
    /// each pair are written as explicit overrides, each scaled from its
    /// own current latency, so asymmetric topologies stay asymmetric.
    /// Self-links are untouched.  Must be applied before the topology is
    /// handed to a sharded network, so the conservative lookahead is
    /// computed from the slowed links.
    pub fn scale_links_of(&mut self, node: NodeId, multiplier: f64, node_count: usize) {
        let scale = |d: SimDuration| {
            SimDuration::from_nanos((d.as_nanos() as f64 * multiplier).round() as u64)
        };
        for other in (0..node_count).map(NodeId) {
            if other == node {
                continue;
            }
            let out = scale(self.latency(node, other));
            let back = scale(self.latency(other, node));
            self.set_directed(node, other, out);
            self.set_directed(other, node, back);
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::datacenter()
    }
}

/// A declarative link-latency model, instantiated into a [`Topology`] once
/// the node layout is known.
///
/// The SRLB experiments wire one client, one load balancer and `N` backend
/// servers; the model decides the one-way latency of every pair.  Being
/// plain serde data, it travels inside experiment specs so that
/// latency-asymmetric topologies are a first-class experiment axis rather
/// than hand-wired `set_link` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyModel {
    /// Every pair of nodes shares the same one-way latency (the paper's
    /// bridged L2 segment).
    Uniform {
        /// One-way latency in microseconds.
        latency_us: u64,
    },
    /// Servers are spread round-robin across `racks` racks (server `i`
    /// lives in rack `i % racks`); load balancer `j` is attached to the
    /// top-of-rack switch of rack `j % racks` (a single LB lands in rack
    /// 0, as before the LB-tier refactor), and the client reaches the
    /// data centre over a longer edge link.
    ///
    /// The asymmetry matters for Service Hunting specifically: a SYN that
    /// is passed on travels server→server, so candidates in the same rack
    /// are cheaper to hunt through than candidates across the fabric.
    RackZone {
        /// Number of racks (must be at least 1).
        racks: usize,
        /// One-way latency between two nodes in the same rack, in
        /// microseconds.
        intra_rack_us: u64,
        /// One-way latency between two nodes in different racks, in
        /// microseconds.
        cross_rack_us: u64,
        /// One-way latency of any link touching the client, in
        /// microseconds.
        client_link_us: u64,
    },
}

impl TopologyModel {
    /// The paper's testbed: a uniform 50 µs one-way latency.
    pub fn paper() -> Self {
        TopologyModel::Uniform { latency_us: 50 }
    }

    /// A representative latency-asymmetric data centre: 4 racks, 15 µs
    /// within a rack, 80 µs across racks, 300 µs to the client.
    pub fn rack_zone_default() -> Self {
        TopologyModel::RackZone {
            racks: 4,
            intra_rack_us: 15,
            cross_rack_us: 80,
            client_link_us: 300,
        }
    }

    /// Checks the model's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid parameter (currently only
    /// a zero rack count).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TopologyModel::Uniform { .. } => Ok(()),
            TopologyModel::RackZone { racks, .. } if *racks == 0 => {
                Err("rack/zone topology needs at least one rack".into())
            }
            TopologyModel::RackZone { .. } => Ok(()),
        }
    }

    /// The rack that server index `i` lives in under this model (`0` for
    /// the uniform model).
    pub(crate) fn rack_of(&self, server_index: usize) -> usize {
        match *self {
            TopologyModel::Uniform { .. } => 0,
            TopologyModel::RackZone { racks, .. } => server_index % racks.max(1),
        }
    }

    /// Instantiates the model over a concrete layout: `client`, the load
    /// balancer tier `lbs` (one or more instances behind the same ECMP
    /// steering, see [`crate::Steering`]), and `servers[i]` as the node of
    /// backend index `i`.
    ///
    /// For the uniform model this is exactly
    /// [`Topology::uniform`]`(latency)`; the rack/zone model sets the
    /// cross-rack latency as the default and overrides intra-rack and
    /// client links pairwise, with load balancer `j` attached to rack
    /// `j % racks`.
    pub fn build(&self, client: NodeId, lbs: &[NodeId], servers: &[NodeId]) -> Topology {
        match *self {
            TopologyModel::Uniform { latency_us } => {
                Topology::uniform(SimDuration::from_micros(latency_us))
            }
            TopologyModel::RackZone {
                racks,
                intra_rack_us,
                cross_rack_us,
                client_link_us,
            } => {
                let racks = racks.max(1);
                let intra = SimDuration::from_micros(intra_rack_us);
                let edge = SimDuration::from_micros(client_link_us);
                let mut topo = Topology::uniform(SimDuration::from_micros(cross_rack_us));
                // The client is remote to everything.
                for &lb in lbs {
                    topo.set_link(client, lb, edge);
                }
                for &server in servers {
                    topo.set_link(client, server, edge);
                }
                // Load balancer `j` shares rack `j % racks`'s top-of-rack
                // switch: with its servers, and with its co-racked peers.
                for (j, &lb) in lbs.iter().enumerate() {
                    for (i, &server) in servers.iter().enumerate() {
                        if i % racks == j % racks {
                            topo.set_link(lb, server, intra);
                        }
                    }
                    for (j2, &peer) in lbs.iter().enumerate().skip(j + 1) {
                        if j % racks == j2 % racks {
                            topo.set_link(lb, peer, intra);
                        }
                    }
                }
                // Server pairs in the same rack.
                for (i, &a) in servers.iter().enumerate() {
                    for (j, &b) in servers.iter().enumerate().skip(i + 1) {
                        if i % racks == j % racks {
                            topo.set_link(a, b, intra);
                        }
                    }
                }
                topo
            }
        }
    }
}

impl Default for TopologyModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_latency_applies_to_every_pair() {
        let topo = Topology::uniform(SimDuration::from_micros(10));
        assert_eq!(
            topo.latency(NodeId(0), NodeId(5)),
            SimDuration::from_micros(10)
        );
        assert_eq!(
            topo.latency(NodeId(5), NodeId(0)),
            SimDuration::from_micros(10)
        );
        assert_eq!(topo.default_latency(), SimDuration::from_micros(10));
    }

    #[test]
    fn self_links_are_instantaneous() {
        let topo = Topology::datacenter();
        assert_eq!(topo.latency(NodeId(3), NodeId(3)), SimDuration::ZERO);
    }

    #[test]
    fn overrides_are_symmetric_by_default() {
        let mut topo = Topology::datacenter();
        topo.set_link(NodeId(0), NodeId(1), SimDuration::from_millis(5));
        assert_eq!(
            topo.latency(NodeId(0), NodeId(1)),
            SimDuration::from_millis(5)
        );
        assert_eq!(
            topo.latency(NodeId(1), NodeId(0)),
            SimDuration::from_millis(5)
        );
        assert_eq!(
            topo.latency(NodeId(0), NodeId(2)),
            SimDuration::from_micros(50)
        );
    }

    #[test]
    fn asymmetric_overrides_are_directional() {
        let mut topo = Topology::uniform(SimDuration::from_micros(1));
        topo.asymmetric()
            .set_link(NodeId(0), NodeId(1), SimDuration::from_millis(2));
        assert_eq!(
            topo.latency(NodeId(0), NodeId(1)),
            SimDuration::from_millis(2)
        );
        assert_eq!(
            topo.latency(NodeId(1), NodeId(0)),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn scale_links_of_slows_both_directions_preserving_asymmetry() {
        let mut topo = Topology::uniform(SimDuration::from_micros(10));
        topo.asymmetric()
            .set_link(NodeId(2), NodeId(1), SimDuration::from_micros(40));
        topo.scale_links_of(NodeId(1), 3.0, 4);
        // Outbound and inbound default links are tripled.
        assert_eq!(
            topo.latency(NodeId(1), NodeId(0)),
            SimDuration::from_micros(30)
        );
        assert_eq!(
            topo.latency(NodeId(0), NodeId(1)),
            SimDuration::from_micros(30)
        );
        // The asymmetric override scales from its own value.
        assert_eq!(
            topo.latency(NodeId(2), NodeId(1)),
            SimDuration::from_micros(120)
        );
        assert_eq!(
            topo.latency(NodeId(1), NodeId(2)),
            SimDuration::from_micros(30)
        );
        // Links not touching the node are untouched, as is the self-link.
        assert_eq!(
            topo.latency(NodeId(0), NodeId(2)),
            SimDuration::from_micros(10)
        );
        assert_eq!(topo.latency(NodeId(1), NodeId(1)), SimDuration::ZERO);
    }

    /// The override table as it was before it was indexed by source node —
    /// one map over `(from, to)` pairs — kept as the reference the rows must
    /// agree with.
    struct PairMap {
        default_latency: SimDuration,
        overrides: std::collections::HashMap<(NodeId, NodeId), SimDuration>,
    }

    impl PairMap {
        fn set_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration) {
            self.overrides.insert((a, b), latency);
            self.overrides.insert((b, a), latency);
        }

        fn latency(&self, a: NodeId, b: NodeId) -> SimDuration {
            match self.overrides.get(&(a, b)) {
                Some(&latency) => latency,
                None if a == b => SimDuration::ZERO,
                None => self.default_latency,
            }
        }

        fn scale_links_of(&mut self, node: NodeId, multiplier: f64, node_count: usize) {
            let scale = |d: SimDuration| {
                SimDuration::from_nanos((d.as_nanos() as f64 * multiplier).round() as u64)
            };
            for other in (0..node_count).map(NodeId).filter(|&other| other != node) {
                let out = scale(self.latency(node, other));
                let back = scale(self.latency(other, node));
                self.overrides.insert((node, other), out);
                self.overrides.insert((other, node), back);
            }
        }
    }

    #[test]
    fn rows_agree_with_a_pair_map_on_a_rack_zone_build_with_a_slow_node() {
        // 1 client, 3 LBs, 20 servers over 4 racks, stated from the model's
        // definition rather than from `build`'s loops.
        let (racks, intra, cross, edge) = (4usize, 15u64, 80u64, 300u64);
        let model = TopologyModel::RackZone {
            racks,
            intra_rack_us: intra,
            cross_rack_us: cross,
            client_link_us: edge,
        };
        let client = NodeId(0);
        let lbs: Vec<NodeId> = (1..4).map(NodeId).collect();
        let servers: Vec<NodeId> = (4..24).map(NodeId).collect();
        let node_count = 24;
        let rack_of = |n: NodeId| match n.0 {
            0 => None,
            1..=3 => Some((n.0 - 1) % racks),
            _ => Some((n.0 - 4) % racks),
        };
        let mut map = PairMap {
            default_latency: SimDuration::from_micros(cross),
            overrides: std::collections::HashMap::new(),
        };
        for a in (0..node_count).map(NodeId) {
            for b in (a.0 + 1..node_count).map(NodeId) {
                match (rack_of(a), rack_of(b)) {
                    (None, _) | (_, None) => map.set_link(a, b, SimDuration::from_micros(edge)),
                    (Some(x), Some(y)) if x == y => {
                        map.set_link(a, b, SimDuration::from_micros(intra));
                    }
                    _ => {}
                }
            }
        }
        let mut topo = model.build(client, &lbs, &servers);

        // Ids past the layout (an unroutable target, a late joiner) included.
        let agree = |topo: &Topology, map: &PairMap| {
            for a in (0..node_count + 3).map(NodeId) {
                for b in (0..node_count + 3).map(NodeId) {
                    assert_eq!(topo.latency(a, b), map.latency(a, b), "{a} -> {b}");
                }
            }
        };
        agree(&topo, &map);

        // A slow server, then an asymmetric override on one of its links,
        // then a slow LB on top: scaling reads its own earlier writes.
        topo.scale_links_of(servers[5], 2.5, node_count);
        map.scale_links_of(servers[5], 2.5, node_count);
        agree(&topo, &map);
        topo.asymmetric()
            .set_link(servers[5], lbs[0], SimDuration::from_micros(7));
        map.overrides
            .insert((servers[5], lbs[0]), SimDuration::from_micros(7));
        topo.scale_links_of(lbs[0], 3.0, node_count);
        map.scale_links_of(lbs[0], 3.0, node_count);
        agree(&topo, &map);
        assert_eq!(
            topo.latency(servers[5], lbs[0]),
            SimDuration::from_micros(21)
        );
        assert_ne!(
            topo.latency(lbs[0], servers[5]),
            topo.latency(servers[5], lbs[0]),
            "the asymmetric pair stays asymmetric"
        );
    }

    #[test]
    fn default_topology_is_datacenter() {
        let topo = Topology::default();
        assert_eq!(topo.default_latency(), SimDuration::from_micros(50));
    }

    #[test]
    fn uniform_model_builds_the_paper_topology() {
        let model = TopologyModel::paper();
        model.validate().unwrap();
        let servers: Vec<NodeId> = (2..6).map(NodeId).collect();
        let topo = model.build(NodeId(0), &[NodeId(1)], &servers);
        assert_eq!(
            topo.latency(NodeId(0), NodeId(4)),
            SimDuration::from_micros(50)
        );
        assert_eq!(topo.default_latency(), SimDuration::from_micros(50));
        assert_eq!(model.rack_of(7), 0);
    }

    #[test]
    fn rack_zone_model_is_latency_asymmetric() {
        let model = TopologyModel::RackZone {
            racks: 2,
            intra_rack_us: 10,
            cross_rack_us: 100,
            client_link_us: 500,
        };
        model.validate().unwrap();
        let client = NodeId(0);
        let lb = NodeId(1);
        let servers: Vec<NodeId> = (2..6).map(NodeId).collect(); // indices 0..4
        let topo = model.build(client, &[lb], &servers);

        // Servers 0 and 2 share rack 0; servers 1 and 3 share rack 1.
        assert_eq!(model.rack_of(0), 0);
        assert_eq!(model.rack_of(3), 1);
        assert_eq!(
            topo.latency(servers[0], servers[2]),
            SimDuration::from_micros(10)
        );
        assert_eq!(
            topo.latency(servers[1], servers[3]),
            SimDuration::from_micros(10)
        );
        assert_eq!(
            topo.latency(servers[0], servers[1]),
            SimDuration::from_micros(100)
        );
        // The LB sits in rack 0.
        assert_eq!(topo.latency(lb, servers[0]), SimDuration::from_micros(10));
        assert_eq!(topo.latency(lb, servers[1]), SimDuration::from_micros(100));
        // The client is remote to everything, symmetrically.
        assert_eq!(topo.latency(client, lb), SimDuration::from_micros(500));
        assert_eq!(
            topo.latency(servers[3], client),
            SimDuration::from_micros(500)
        );
    }

    #[test]
    fn rack_zone_spreads_an_lb_tier_across_racks() {
        let model = TopologyModel::RackZone {
            racks: 2,
            intra_rack_us: 10,
            cross_rack_us: 100,
            client_link_us: 500,
        };
        let client = NodeId(0);
        let lbs: Vec<NodeId> = (1..4).map(NodeId).collect(); // LB j in rack j % 2
        let servers: Vec<NodeId> = (4..8).map(NodeId).collect(); // server i in rack i % 2
        let topo = model.build(client, &lbs, &servers);

        // LB 0 (rack 0) is local to servers 0 and 2, remote to server 1.
        assert_eq!(
            topo.latency(lbs[0], servers[0]),
            SimDuration::from_micros(10)
        );
        assert_eq!(
            topo.latency(lbs[0], servers[2]),
            SimDuration::from_micros(10)
        );
        assert_eq!(
            topo.latency(lbs[0], servers[1]),
            SimDuration::from_micros(100)
        );
        // LB 1 (rack 1) is local to servers 1 and 3.
        assert_eq!(
            topo.latency(lbs[1], servers[1]),
            SimDuration::from_micros(10)
        );
        // LBs 0 and 2 share rack 0; LBs 0 and 1 do not.
        assert_eq!(topo.latency(lbs[0], lbs[2]), SimDuration::from_micros(10));
        assert_eq!(topo.latency(lbs[0], lbs[1]), SimDuration::from_micros(100));
        // Every LB is remote to the client.
        for &lb in &lbs {
            assert_eq!(topo.latency(client, lb), SimDuration::from_micros(500));
        }
    }

    #[test]
    fn rack_zone_validation_rejects_zero_racks() {
        let model = TopologyModel::RackZone {
            racks: 0,
            intra_rack_us: 1,
            cross_rack_us: 2,
            client_link_us: 3,
        };
        assert!(model.validate().is_err());
    }

    #[test]
    fn topology_model_serde_roundtrip() {
        for model in [TopologyModel::paper(), TopologyModel::rack_zone_default()] {
            let json = serde_json::to_string(&model).unwrap();
            let back: TopologyModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model);
        }
    }
}
