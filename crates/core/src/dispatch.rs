//! Candidate-server selection (paper Section II-B).
//!
//! When a new flow arrives, the load balancer selects the *list of candidate
//! servers* to place in the Service Hunting SRH.  The paper uses two servers
//! chosen uniformly at random (citing the power-of-two-choices result) but
//! notes that consistent hashing is another possibility; this module
//! implements:
//!
//! * [`RandomDispatcher`] — `k` distinct servers chosen uniformly at random
//!   (`k = 1` degenerates to the paper's RR baseline, `k = 2` is SRLB's
//!   default),
//! * [`ConsistentHashDispatcher`] — a hash ring with virtual nodes; the
//!   candidates are the first `k` distinct servers clockwise from the flow's
//!   hash (Maglev/Ananta-style flow affinity without per-flow state),
//! * [`MaglevDispatcher`] — Maglev's permutation-filled lookup table,
//! * `LoadAwareDispatcher` — a consistent-hash candidate pool re-ranked by
//!   per-server load hints (EWMA-smoothed acceptance/backlog signals fed
//!   back through [`Dispatcher::observe_load`]), after Charon-style
//!   load-aware selection.
//!
//! ## One table per tier
//!
//! A hash-based candidate list is a pure function of the flow and the
//! backend set, so every instance of a load-balancer tier must compute the
//! same one — that is what keeps a connection's candidates stable when ECMP
//! moves its packets to another instance.  The runner therefore builds one
//! dispatcher per tier membership and hands each instance a
//! [`Dispatcher::boxed_clone`]: the clones share the immutable tables behind
//! an `Arc` and start with fresh per-instance state (the load estimates of
//! `LoadAwareDispatcher`, the permutation scratch of [`RandomDispatcher`]),
//! exactly as a newly built dispatcher would.  Tables store backends as
//! `u16` indices into the shared address list, which caps a table-based
//! dispatcher at 65 536 backends.
//!
//! ## The successor table
//!
//! [`ConsistentHashDispatcher`] does not walk its ring per flow.  At build
//! time it sorts the ring's points (ties, where two backends hash to one
//! point, ordered by address) and stores, for every ring position, the
//! first `k` distinct backends clockwise from it — the answer the walk would
//! give for any hash that lands on that position.  A lookup is then:
//!
//! 1. the flow hash's top bits select a *bucket*; `buckets[b]..buckets[b+1]`
//!    is the run of points sharing those bits (the bucket count is the ring
//!    length rounded down to a power of two, so a run holds one or two
//!    points on average);
//! 2. a search inside that run finds the first point `≥` the hash (wrapping
//!    to position 0 past the last point), exactly where a binary search over
//!    the whole ring would land;
//! 3. the `k` indices of that position's successor row are read and mapped
//!    to addresses.
//!
//! On a 384-backend × 128-vnode ring that is three short reads instead of a
//! 16-step binary search over 1.2 MB plus a de-duplicating walk.
//!
//! ## Allocation-free selection
//!
//! Dispatchers write their candidates into a caller-supplied, reusable
//! [`CandidateList`] ([`Dispatcher::candidates_into`]) instead of returning
//! a fresh `Vec` per flow, so the per-flow fast path performs no heap
//! allocation.  The list's inline capacity ([`MAX_CANDIDATES`] `+ 1`)
//! leaves room for the load balancer to append the VIP and hand the same
//! buffer to [`SegmentRoutingHeader::from_route`](srlb_net::SegmentRoutingHeader::from_route).

use std::net::Ipv6Addr;
use std::sync::Arc;

use rand::RngCore;
use serde::{Deserialize, Serialize};
use srlb_metrics::Ewma;
use srlb_net::{mix64, FlowKey, MAX_SEGMENTS};

/// Maximum number of candidates a dispatcher may produce per flow: one less
/// than the SRH segment capacity, so a full candidate list plus the VIP
/// still fits in one Service Hunting route.
pub const MAX_CANDIDATES: usize = MAX_SEGMENTS - 1;

/// Largest backend set a table-based dispatcher can index (its tables hold
/// `u16` backend indices).
pub(crate) const MAX_BACKENDS: usize = 1 << u16::BITS;

/// Checks the constructor arguments every dispatcher shares and returns the
/// effective fan-out: `k` capped at the backend count.
///
/// # Panics
///
/// Panics if `servers` is empty, `k` is zero, or the capped `k` exceeds
/// [`MAX_CANDIDATES`].
fn capped_fanout(servers: &[Ipv6Addr], k: usize) -> usize {
    assert!(!servers.is_empty(), "at least one server is required");
    assert!(k > 0, "k must be at least 1");
    let k = k.min(servers.len());
    assert!(
        k <= MAX_CANDIDATES,
        "at most {MAX_CANDIDATES} candidates fit in a Service Hunting SRH"
    );
    k
}

/// The shared backend list of a table-based dispatcher.
///
/// # Panics
///
/// Panics if there are more than [`MAX_BACKENDS`] backends.
fn backend_table(servers: Vec<Ipv6Addr>) -> Arc<[Ipv6Addr]> {
    assert!(
        servers.len() <= MAX_BACKENDS,
        "a dispatcher table indexes at most {MAX_BACKENDS} backends"
    );
    servers.into()
}

/// A reusable, fixed-capacity candidate buffer.
///
/// The load balancer keeps one of these alive across flows and hands it to
/// [`Dispatcher::candidates_into`]; after the dispatcher has filled it, the
/// VIP can be appended and the whole slice used as an SRH route, all without
/// touching the allocator.
#[derive(Debug, Clone, Copy)]
pub struct CandidateList {
    addrs: [Ipv6Addr; MAX_SEGMENTS],
    len: usize,
}

impl CandidateList {
    /// Creates an empty list.
    pub fn new() -> Self {
        CandidateList {
            addrs: [Ipv6Addr::UNSPECIFIED; MAX_SEGMENTS],
            len: 0,
        }
    }

    /// Empties the list (the backing storage is retained).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends an address.
    ///
    /// # Panics
    ///
    /// Panics if the list is full ([`MAX_SEGMENTS`] entries); dispatchers
    /// are constructed with `k ≤` [`MAX_CANDIDATES`], which leaves one slot
    /// spare for the VIP.
    pub fn push(&mut self, addr: Ipv6Addr) {
        assert!(
            self.len < MAX_SEGMENTS,
            "candidate list capacity ({MAX_SEGMENTS}) exceeded"
        );
        self.addrs[self.len] = addr;
        self.len += 1;
    }

    /// Number of addresses currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the list holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live addresses as a slice.
    pub fn as_slice(&self) -> &[Ipv6Addr] {
        &self.addrs[..self.len]
    }

    /// Returns `true` if `addr` is already in the list.
    pub fn contains(&self, addr: &Ipv6Addr) -> bool {
        self.as_slice().contains(addr)
    }
}

impl Default for CandidateList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for CandidateList {
    type Target = [Ipv6Addr];

    fn deref(&self) -> &[Ipv6Addr] {
        self.as_slice()
    }
}

/// Draws a uniform integer in `0..n` with Lemire-style rejection sampling
/// (no modulo bias).
///
/// The naive `next_u64() % n` over-selects small residues by up to
/// `2⁶⁴ mod n` draws; the widening-multiply method maps the raw draw to
/// `0..n` through a 128-bit product and rejects only the (vanishingly few)
/// draws that land in the biased low fringe.
fn bounded(rng: &mut dyn RngCore, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (n as u128);
    let mut low = m as u64;
    if low < n {
        // 2^64 mod n, computed without 128-bit division.
        let threshold = n.wrapping_neg() % n;
        while low < threshold {
            x = rng.next_u64();
            m = (x as u128) * (n as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

/// A candidate-selection policy.
pub trait Dispatcher: std::fmt::Debug + Send {
    /// Writes the ordered candidate list for a new flow into `out` (without
    /// the trailing VIP segment, which the load balancer appends).  The
    /// buffer is cleared first; on return it holds exactly
    /// [`Dispatcher::fanout`] (capped at the server count) distinct
    /// addresses.  Performs no heap allocation.
    fn candidates_into(&mut self, flow: &FlowKey, rng: &mut dyn RngCore, out: &mut CandidateList);

    /// Number of candidates produced per flow.
    fn fanout(&self) -> usize;

    /// Short name for reports.
    fn name(&self) -> String;

    /// The current backend set, in construction order.
    fn backends(&self) -> &[Ipv6Addr];

    /// A new instance over the same backend set that shares this one's
    /// immutable tables and starts with fresh per-instance state (load
    /// estimates, scratch buffers) — indistinguishable from building the
    /// same configuration again, without the build.  The runner builds one
    /// dispatcher per tier membership and gives every load-balancer
    /// instance a clone.
    fn boxed_clone(&self) -> Box<dyn Dispatcher>;

    /// Feeds a per-server load observation (e.g. the hint a server attached
    /// to its acceptance SYN-ACK), timestamped in seconds.  Load-oblivious
    /// dispatchers ignore it; `LoadAwareDispatcher` folds it into its
    /// per-server EWMA.  Performs no heap allocation.
    fn observe_load(&mut self, _server: Ipv6Addr, _load: f64, _now_s: f64) {}
}

/// `k` distinct servers chosen uniformly at random.
#[derive(Debug, Clone)]
pub struct RandomDispatcher {
    servers: Arc<[Ipv6Addr]>,
    k: usize,
    /// Persistent index permutation for the partial Fisher-Yates draw,
    /// starting as the identity; any permutation is a valid state, so it is
    /// never reset between flows.
    scratch: Vec<u32>,
}

impl RandomDispatcher {
    /// Creates a dispatcher picking `k` distinct servers from `servers`.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty, `k` is zero, or `k` (after capping at
    /// the server count) exceeds [`MAX_CANDIDATES`].
    pub fn new(servers: Vec<Ipv6Addr>, k: usize) -> Self {
        let k = capped_fanout(&servers, k);
        Self::over(servers.into(), k)
    }

    /// A dispatcher over an already-checked backend list, with a fresh
    /// (identity) permutation.
    fn over(servers: Arc<[Ipv6Addr]>, k: usize) -> Self {
        let scratch = (0..servers.len() as u32).collect();
        RandomDispatcher {
            servers,
            k,
            scratch,
        }
    }

    /// The paper's default: two random candidates.
    pub fn power_of_two(servers: Vec<Ipv6Addr>) -> Self {
        Self::new(servers, 2)
    }

    /// The RR baseline: a single random server (no hunting).
    pub fn single_random(servers: Vec<Ipv6Addr>) -> Self {
        Self::new(servers, 1)
    }
}

impl Dispatcher for RandomDispatcher {
    fn candidates_into(&mut self, _flow: &FlowKey, rng: &mut dyn RngCore, out: &mut CandidateList) {
        // Partial Fisher-Yates over the persistent index permutation: draw k
        // distinct servers without rebuilding `(0..n)` per flow.
        out.clear();
        let n = self.servers.len();
        for i in 0..self.k {
            let j = i + bounded(rng, (n - i) as u64) as usize;
            self.scratch.swap(i, j);
            out.push(self.servers[self.scratch[i] as usize]);
        }
    }

    fn fanout(&self) -> usize {
        self.k
    }

    fn name(&self) -> String {
        format!("random-{}", self.k)
    }

    fn backends(&self) -> &[Ipv6Addr] {
        &self.servers
    }

    fn boxed_clone(&self) -> Box<dyn Dispatcher> {
        Box::new(Self::over(Arc::clone(&self.servers), self.k))
    }
}

/// A consistent-hashing ring with virtual nodes, answered from a successor
/// table (see the [module docs](self#the-successor-table)).
#[derive(Debug, Clone)]
pub struct ConsistentHashDispatcher {
    servers: Arc<[Ipv6Addr]>,
    /// Ring points in ascending order; points shared by several backends
    /// are ordered by backend address.
    points: Arc<[u64]>,
    /// `k` backend indices per ring position: row `i` is the first `k`
    /// distinct backends clockwise from `points[i]`, in ring order.
    succ: Arc<[u16]>,
    /// `buckets[b]` is the first position whose point's top bits (the bits
    /// above `shift`) are `≥ b`; the last entry is the ring length.
    buckets: Arc<[u32]>,
    /// Right shift that maps a hash to its bucket.
    shift: u32,
    k: usize,
}

impl ConsistentHashDispatcher {
    /// Creates a ring with `vnodes` virtual nodes per server, returning `k`
    /// candidates per flow.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty, holds an address twice or more than
    /// 65 536 addresses, `k`/`vnodes` is zero, or `k` (after capping at the
    /// server count) exceeds [`MAX_CANDIDATES`].
    pub fn new(servers: Vec<Ipv6Addr>, vnodes: usize, k: usize) -> Self {
        let k = capped_fanout(&servers, k);
        assert!(
            vnodes > 0,
            "at least one virtual node per server is required"
        );
        let servers = backend_table(servers);
        let mut distinct = servers.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            servers.len(),
            "backend addresses must be distinct"
        );

        // `(point, backend index)`, ordered by point and then by address.
        let mut ring = Vec::with_capacity(servers.len() * vnodes);
        for (i, server) in servers.iter().enumerate() {
            for v in 0..vnodes {
                ring.push((Self::point(*server, v as u64), i as u16));
            }
        }
        ring.sort_unstable_by_key(|&(point, i)| (point, servers[usize::from(i)]));
        let len = ring.len();
        assert!(
            u32::try_from(len).is_ok(),
            "the ring must have fewer than 2^32 points"
        );

        // The walk every lookup used to make, once per position.
        let mut succ = Vec::with_capacity(len * k);
        for start in 0..len {
            let row = succ.len();
            for i in 0..len {
                let server = ring[(start + i) % len].1;
                if !succ[row..].contains(&server) {
                    succ.push(server);
                    if succ.len() - row == k {
                        break;
                    }
                }
            }
        }

        let bits = len.ilog2().max(1);
        let shift = u64::BITS - bits;
        let mut buckets = Vec::with_capacity((1 << bits) + 1);
        let mut position = 0;
        for bucket in 0..1u64 << bits {
            while position < len && ring[position].0 >> shift < bucket {
                position += 1;
            }
            buckets.push(position as u32);
        }
        buckets.push(len as u32);

        ConsistentHashDispatcher {
            servers,
            points: ring.iter().map(|&(point, _)| point).collect(),
            succ: succ.into(),
            buckets: buckets.into(),
            shift,
            k,
        }
    }

    fn point(server: Ipv6Addr, vnode: u64) -> u64 {
        // FNV-1a over the address octets and the vnode index, followed by a
        // SplitMix64 finaliser: FNV alone leaves the high bits (which drive
        // the ring ordering) poorly mixed for short, similar inputs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in server.octets() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for b in vnode.to_be_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        mix64(h)
    }

    /// Number of points on the ring.
    pub fn ring_size(&self) -> usize {
        self.points.len()
    }

    /// Writes the candidates for ring position `hash` into `out` (cleared
    /// first): the first `k` distinct backends clockwise from the first
    /// point `≥ hash`, wrapping past the last point to the first.
    /// [`Dispatcher::candidates_into`] is this at the flow's stable hash.
    pub fn candidates_for_hash(&self, hash: u64, out: &mut CandidateList) {
        out.clear();
        let bucket = (hash >> self.shift) as usize;
        let lo = self.buckets[bucket] as usize;
        let hi = self.buckets[bucket + 1] as usize;
        let mut position = lo + self.points[lo..hi].partition_point(|&p| p < hash);
        if position == self.points.len() {
            position = 0;
        }
        let row = position * self.k;
        for &server in &self.succ[row..row + self.k] {
            out.push(self.servers[usize::from(server)]);
        }
    }
}

impl Dispatcher for ConsistentHashDispatcher {
    fn candidates_into(&mut self, flow: &FlowKey, _rng: &mut dyn RngCore, out: &mut CandidateList) {
        // The flow key's cached stable hash is already SplitMix64-finalised,
        // so it is used as the ring position directly.
        self.candidates_for_hash(flow.stable_hash(), out);
    }

    fn fanout(&self) -> usize {
        self.k
    }

    fn name(&self) -> String {
        format!("consistent-hash-{}x{}", self.servers.len(), self.k)
    }

    fn backends(&self) -> &[Ipv6Addr] {
        &self.servers
    }

    fn boxed_clone(&self) -> Box<dyn Dispatcher> {
        Box::new(self.clone())
    }
}

/// A Maglev-style lookup table (Eisenbud et al., NSDI 2016).
///
/// Each server fills the table following its own permutation of the table
/// slots, producing near-uniform slot ownership with minimal disruption on
/// membership change.  Candidates for a flow are the owners of `k`
/// consecutive slots starting at the flow's hash.
#[derive(Debug, Clone)]
pub struct MaglevDispatcher {
    servers: Arc<[Ipv6Addr]>,
    /// Slot owners, as indices into `servers`.
    table: Arc<[u16]>,
    k: usize,
}

impl MaglevDispatcher {
    /// Builds the lookup table.  `table_size` should be a prime noticeably
    /// larger than the number of servers (Maglev uses 65537 by default; the
    /// tests use smaller primes).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or holds more than 65 536 addresses, `k`
    /// is zero (or exceeds [`MAX_CANDIDATES`] after capping at the server
    /// count), or `table_size` is smaller than the number of servers or 2.
    pub fn new(servers: Vec<Ipv6Addr>, table_size: usize, k: usize) -> Self {
        let k = capped_fanout(&servers, k);
        assert!(
            table_size >= servers.len().max(2),
            "table must be at least as large as the server set (and 2)"
        );
        let servers = backend_table(servers);
        let n = servers.len();
        let m = table_size;

        // Per-server permutation parameters (offset, skip), as in the paper.
        let params: Vec<(usize, usize)> = servers
            .iter()
            .map(|s| {
                let h1 = Self::hash(s, 0xdead_beef);
                let h2 = Self::hash(s, 0x1234_5678);
                ((h1 % m as u64) as usize, (h2 % (m as u64 - 1) + 1) as usize)
            })
            .collect();

        let mut table = vec![0u16; m];
        let mut taken = vec![false; m];
        let mut next = vec![0usize; n];
        let mut filled = 0;
        while filled < m {
            for i in 0..n {
                if filled == m {
                    break;
                }
                // Find this server's next preferred empty slot.
                loop {
                    let (offset, skip) = params[i];
                    let slot = (offset + skip * next[i]) % m;
                    next[i] += 1;
                    if !taken[slot] {
                        taken[slot] = true;
                        table[slot] = i as u16;
                        filled += 1;
                        break;
                    }
                }
            }
        }
        MaglevDispatcher {
            servers,
            table: table.into(),
            k,
        }
    }

    fn hash(server: &Ipv6Addr, salt: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
        for b in server.octets() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The lookup table size.
    pub fn table_size(&self) -> usize {
        self.table.len()
    }

    /// Fraction of table slots owned by each distinct server, for uniformity
    /// checks.
    #[cfg(test)]
    fn ownership(&self) -> std::collections::HashMap<Ipv6Addr, usize> {
        let mut map = std::collections::HashMap::new();
        for &s in self.table.iter() {
            *map.entry(self.servers[usize::from(s)]).or_insert(0) += 1;
        }
        map
    }
}

impl Dispatcher for MaglevDispatcher {
    fn candidates_into(&mut self, flow: &FlowKey, _rng: &mut dyn RngCore, out: &mut CandidateList) {
        out.clear();
        let m = self.table.len();
        // The cached stable hash is already finalised; index directly.
        let start = (flow.stable_hash() % m as u64) as usize;
        for i in 0..m {
            let server = self.servers[usize::from(self.table[(start + i) % m])];
            if !out.contains(&server) {
                out.push(server);
                if out.len() == self.k {
                    break;
                }
            }
        }
    }

    fn fanout(&self) -> usize {
        self.k
    }

    fn name(&self) -> String {
        format!("maglev-{}x{}", self.servers.len(), self.k)
    }

    fn backends(&self) -> &[Ipv6Addr] {
        &self.servers
    }

    fn boxed_clone(&self) -> Box<dyn Dispatcher> {
        Box::new(self.clone())
    }
}

/// Load-aware candidate selection: a consistent-hash pool re-ranked by
/// per-server load.
///
/// A [`ConsistentHashDispatcher`] produces a deterministic pool of `pool`
/// candidates per flow; the `k` least-loaded of those (by EWMA-smoothed load
/// hints fed in through [`Dispatcher::observe_load`]) become the Service
/// Hunting candidates, in ascending-load order.  Servers with no observation
/// yet count as load 0 so a fresh dispatcher (or clone) degenerates to the
/// pool's natural ring order; ties keep ring order too, so selection is
/// fully deterministic.
#[derive(Debug, Clone)]
pub(crate) struct LoadAwareDispatcher {
    inner: ConsistentHashDispatcher,
    k: usize,
    /// Per-server EWMA of observed load, in `inner` backend order.
    loads: Vec<(Ipv6Addr, Ewma)>,
    /// Persistent buffer for the inner pool, so re-ranking allocates nothing.
    scratch: CandidateList,
}

impl LoadAwareDispatcher {
    /// Creates a dispatcher drawing a `pool`-wide consistent-hash candidate
    /// pool (with `vnodes` virtual nodes per server) and selecting the `k`
    /// least-loaded candidates from it.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty, `vnodes`/`pool`/`k` is zero, or `pool`
    /// (after capping at the server count) exceeds [`MAX_CANDIDATES`].
    pub(crate) fn new(servers: Vec<Ipv6Addr>, vnodes: usize, pool: usize, k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        Self::over(ConsistentHashDispatcher::new(servers, vnodes, pool), k)
    }

    /// A dispatcher re-ranking `inner`'s pool, with no load observed yet.
    fn over(inner: ConsistentHashDispatcher, k: usize) -> Self {
        let loads = inner
            .backends()
            .iter()
            .map(|&addr| (addr, Ewma::new()))
            .collect();
        LoadAwareDispatcher {
            k: k.min(inner.fanout()),
            inner,
            loads,
            scratch: CandidateList::new(),
        }
    }

    /// The pool width (number of consistent-hash candidates re-ranked per
    /// flow).
    #[cfg(test)]
    fn pool(&self) -> usize {
        self.inner.fanout()
    }

    /// The current smoothed load estimate for `server` (0 if never
    /// observed).
    pub(crate) fn load_of(&self, server: &Ipv6Addr) -> f64 {
        self.loads
            .iter()
            .find(|(addr, _)| addr == server)
            .and_then(|(_, ewma)| ewma.value())
            .unwrap_or(0.0)
    }
}

impl Dispatcher for LoadAwareDispatcher {
    fn candidates_into(&mut self, flow: &FlowKey, rng: &mut dyn RngCore, out: &mut CandidateList) {
        self.inner.candidates_into(flow, rng, &mut self.scratch);
        out.clear();
        // Selection sort of the k smallest: the pool is at most
        // MAX_CANDIDATES wide, so two nested linear scans beat anything
        // requiring scratch allocations.
        for _ in 0..self.k {
            let mut best: Option<(usize, f64)> = None;
            for (i, addr) in self.scratch.as_slice().iter().enumerate() {
                if out.contains(addr) {
                    continue;
                }
                let load = self.load_of(addr);
                if best.is_none_or(|(_, b)| load < b) {
                    best = Some((i, load));
                }
            }
            let (i, _) = best.expect("pool is at least as wide as k"); // srlb-lint: allow(panic-hygiene) -- loop invariant: out.len() < k ≤ scratch.len(), so an unpicked candidate always exists
            out.push(self.scratch.as_slice()[i]);
        }
    }

    fn fanout(&self) -> usize {
        self.k
    }

    fn name(&self) -> String {
        format!("load-aware-{}of{}", self.k, self.inner.fanout())
    }

    fn backends(&self) -> &[Ipv6Addr] {
        self.inner.backends()
    }

    fn boxed_clone(&self) -> Box<dyn Dispatcher> {
        // Load estimates are what one instance has observed, not part of
        // the configuration: a clone starts estimating afresh.
        Box::new(Self::over(self.inner.clone(), self.k))
    }

    fn observe_load(&mut self, server: Ipv6Addr, load: f64, now_s: f64) {
        if let Some((_, ewma)) = self.loads.iter_mut().find(|(addr, _)| *addr == server) {
            ewma.observe(now_s, load);
        }
    }
}

/// Serialisable dispatcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatcherConfig {
    /// `k` servers chosen uniformly at random.
    Random {
        /// Number of candidates per flow.
        k: usize,
    },
    /// Consistent hashing with virtual nodes.
    ConsistentHash {
        /// Virtual nodes per server.
        vnodes: usize,
        /// Number of candidates per flow.
        k: usize,
    },
    /// Maglev lookup table.
    Maglev {
        /// Lookup table size (use a prime).
        table_size: usize,
        /// Number of candidates per flow.
        k: usize,
    },
    /// Consistent-hash pool re-ranked by per-server load hints.
    LoadAware {
        /// Virtual nodes per server on the inner ring.
        vnodes: usize,
        /// Width of the candidate pool drawn from the ring.
        pool: usize,
        /// Number of (least-loaded) candidates selected from the pool.
        k: usize,
    },
}

impl DispatcherConfig {
    /// The paper's default: two random candidates.
    pub fn paper_default() -> Self {
        DispatcherConfig::Random { k: 2 }
    }

    /// Builds the dispatcher over the given server set.
    pub fn build(&self, servers: Vec<Ipv6Addr>) -> Box<dyn Dispatcher> {
        match *self {
            DispatcherConfig::Random { k } => Box::new(RandomDispatcher::new(servers, k)),
            DispatcherConfig::ConsistentHash { vnodes, k } => {
                Box::new(ConsistentHashDispatcher::new(servers, vnodes, k))
            }
            DispatcherConfig::Maglev { table_size, k } => {
                Box::new(MaglevDispatcher::new(servers, table_size, k))
            }
            DispatcherConfig::LoadAware { vnodes, pool, k } => {
                Box::new(LoadAwareDispatcher::new(servers, vnodes, pool, k))
            }
        }
    }

    /// Number of candidates per flow.
    pub fn fanout(&self) -> usize {
        match *self {
            DispatcherConfig::Random { k }
            | DispatcherConfig::ConsistentHash { k, .. }
            | DispatcherConfig::Maglev { k, .. }
            | DispatcherConfig::LoadAware { k, .. } => k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlb_net::{AddressPlan, Protocol, ServerId};
    use srlb_sim::SimRng;

    fn servers(n: u32) -> Vec<Ipv6Addr> {
        let plan = AddressPlan::default();
        (0..n).map(|i| plan.server_addr(ServerId(i))).collect()
    }

    fn flow(port: u16) -> FlowKey {
        let plan = AddressPlan::default();
        FlowKey::new(plan.client_addr(0), plan.vip(0), port, 80, Protocol::Tcp)
    }

    /// The candidates `d` writes for `f`, in a list of their own.
    fn pick(d: &mut dyn Dispatcher, f: &FlowKey, rng: &mut SimRng) -> CandidateList {
        let mut out = CandidateList::new();
        d.candidates_into(f, rng, &mut out);
        out
    }

    #[test]
    fn bounded_draw_is_in_range_and_unbiased_at_tiny_n() {
        let mut rng = SimRng::new(11);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[bounded(&mut rng, 3) as usize] += 1;
        }
        for c in counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 500.0,
                "bounded(3) should be uniform, got {counts:?}"
            );
        }
    }

    #[test]
    fn candidate_list_push_clear_contains() {
        let mut list = CandidateList::new();
        assert!(list.is_empty());
        let a = flow(1).client();
        list.push(a);
        assert_eq!(list.len(), 1);
        assert!(list.contains(&a));
        assert_eq!(&*list, &[a][..]);
        list.clear();
        assert!(list.is_empty());
        assert_eq!(CandidateList::default().len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn candidate_list_overflow_panics() {
        let mut list = CandidateList::new();
        for s in servers(MAX_SEGMENTS as u32 + 1) {
            list.push(s);
        }
    }

    #[test]
    fn candidates_into_reuses_the_buffer() {
        let mut d = RandomDispatcher::power_of_two(servers(12));
        let mut rng = SimRng::new(1);
        let mut out = CandidateList::new();
        for port in 0..100 {
            d.candidates_into(&flow(port), &mut rng, &mut out);
            assert_eq!(out.len(), 2);
            assert_ne!(out.as_slice()[0], out.as_slice()[1]);
        }
    }

    #[test]
    fn random_dispatcher_returns_distinct_candidates() {
        let mut d = RandomDispatcher::power_of_two(servers(12));
        let mut rng = SimRng::new(1);
        for port in 0..1000 {
            let c = pick(&mut d, &flow(port), &mut rng);
            assert_eq!(c.len(), 2);
            assert_ne!(c[0], c[1], "candidates must be distinct");
        }
        assert_eq!(d.fanout(), 2);
        assert_eq!(d.name(), "random-2");
    }

    #[test]
    fn random_dispatcher_is_roughly_uniform() {
        let all = servers(12);
        let mut d = RandomDispatcher::single_random(all.clone());
        let mut rng = SimRng::new(7);
        let mut counts = std::collections::HashMap::new();
        let trials = 24_000;
        for port in 0..trials {
            let c = pick(&mut d, &flow(port as u16), &mut rng);
            *counts.entry(c[0]).or_insert(0usize) += 1;
        }
        for s in &all {
            let count = counts.get(s).copied().unwrap_or(0);
            let expected = trials / 12;
            assert!(
                (count as f64 - expected as f64).abs() < expected as f64 * 0.15,
                "server {s} got {count}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn random_dispatcher_k_capped_at_server_count() {
        let mut d = RandomDispatcher::new(servers(3), 10);
        let mut rng = SimRng::new(1);
        let c = pick(&mut d, &flow(1), &mut rng);
        assert_eq!(c.len(), 3);
        let unique: std::collections::HashSet<_> = c.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    #[should_panic(expected = "candidates fit")]
    fn random_dispatcher_rejects_oversized_fanout() {
        RandomDispatcher::new(servers(16), MAX_CANDIDATES + 1);
    }

    #[test]
    fn consistent_hash_is_deterministic_per_flow() {
        let mut d = ConsistentHashDispatcher::new(servers(12), 100, 2);
        let mut rng = SimRng::new(1);
        let a = pick(&mut d, &flow(42), &mut rng);
        let b = pick(&mut d, &flow(42), &mut rng);
        assert_eq!(a[..], b[..], "same flow must map to the same candidates");
        assert_eq!(a.len(), 2);
        assert_ne!(a[0], a[1]);
        assert_eq!(d.ring_size(), 1200);
        assert!(d.name().starts_with("consistent-hash"));
    }

    #[test]
    fn consistent_hash_spreads_flows() {
        let mut d = ConsistentHashDispatcher::new(servers(12), 512, 1);
        let mut rng = SimRng::new(1);
        let mut counts = std::collections::HashMap::new();
        for port in 0..12_000u32 {
            let f = FlowKey::new(
                AddressPlan::default().client_addr(port),
                AddressPlan::default().vip(0),
                (port % 60_000) as u16,
                80,
                Protocol::Tcp,
            );
            let c = pick(&mut d, &f, &mut rng);
            *counts.entry(c[0]).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 12, "every server should receive some flows");
        let max = counts.values().max().unwrap();
        let min = counts.values().min().unwrap();
        assert!(
            *max < min * 4,
            "consistent hashing with many virtual nodes should be reasonably balanced \
             (min {min}, max {max})"
        );
    }

    #[test]
    fn maglev_table_is_nearly_uniform() {
        let d = MaglevDispatcher::new(servers(12), 2039, 2);
        assert_eq!(d.table_size(), 2039);
        let ownership = d.ownership();
        assert_eq!(ownership.len(), 12);
        let max = ownership.values().max().unwrap();
        let min = ownership.values().min().unwrap();
        // Maglev guarantees near-perfect balance of slot ownership.
        assert!(
            max - min <= 2039 / 12 / 5 + 2,
            "maglev ownership should be near-uniform (min {min}, max {max})"
        );
    }

    #[test]
    fn maglev_is_deterministic_and_distinct() {
        let mut d = MaglevDispatcher::new(servers(12), 251, 2);
        let mut rng = SimRng::new(1);
        let a = pick(&mut d, &flow(7), &mut rng);
        let b = pick(&mut d, &flow(7), &mut rng);
        assert_eq!(a[..], b[..]);
        assert_eq!(a.len(), 2);
        assert_ne!(a[0], a[1]);
        assert_eq!(d.fanout(), 2);
        assert!(d.name().starts_with("maglev"));
    }

    #[test]
    fn config_builds_each_kind() {
        assert_eq!(DispatcherConfig::paper_default().fanout(), 2);
        let mut rng = SimRng::new(1);
        // (servers, configured k, fan-out): k is capped at the server count,
        // and a build over a grown set gets the configured k back.
        for (n, k, fanout) in [(4, 2, 2), (2, 4, 2), (10, 4, 4)] {
            for config in [
                DispatcherConfig::Random { k },
                DispatcherConfig::ConsistentHash { vnodes: 16, k },
                DispatcherConfig::Maglev { table_size: 53, k },
                DispatcherConfig::LoadAware {
                    vnodes: 16,
                    pool: k + 1,
                    k,
                },
            ] {
                let mut d = config.build(servers(n));
                assert_eq!(pick(d.as_mut(), &flow(3), &mut rng).len(), fanout);
                assert_eq!(d.fanout(), fanout, "{config:?} over {n} servers");
                assert_eq!(config.fanout(), k);
            }
        }
    }

    #[test]
    fn boxed_clone_shares_tables_and_answers_alike() {
        let s = servers(12);
        let ring = ConsistentHashDispatcher::new(s.clone(), 64, 3);
        let copy = ring.clone();
        assert!(Arc::ptr_eq(&ring.points, &copy.points));
        assert!(Arc::ptr_eq(&ring.succ, &copy.succ));
        assert!(Arc::ptr_eq(&ring.buckets, &copy.buckets));
        let maglev = MaglevDispatcher::new(s.clone(), 251, 3);
        assert!(Arc::ptr_eq(&maglev.table, &maglev.clone().table));

        for config in [
            DispatcherConfig::ConsistentHash { vnodes: 64, k: 3 },
            DispatcherConfig::Maglev {
                table_size: 251,
                k: 3,
            },
            DispatcherConfig::Random { k: 2 },
            DispatcherConfig::LoadAware {
                vnodes: 64,
                pool: 4,
                k: 2,
            },
        ] {
            // Per-instance state a clone must not inherit: an observed load
            // and the permutation left by earlier draws.
            let mut original = config.build(s.clone());
            original.observe_load(s[0], 10.0, 0.0);
            let mut rng = SimRng::new(9);
            for port in 0..50 {
                pick(original.as_mut(), &flow(port), &mut rng);
            }
            let mut clone = original.boxed_clone();
            assert!(std::ptr::eq(original.backends(), clone.backends()));
            let mut fresh = config.build(s.clone());
            let (mut a, mut b) = (SimRng::new(5), SimRng::new(5));
            for port in 0..200 {
                assert_eq!(
                    pick(clone.as_mut(), &flow(port), &mut a)[..],
                    pick(fresh.as_mut(), &flow(port), &mut b)[..],
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_server_set_panics() {
        RandomDispatcher::new(vec![], 2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_ring_backends_panic() {
        let s = servers(3);
        ConsistentHashDispatcher::new(vec![s[0], s[1], s[0]], 8, 2);
    }

    #[test]
    fn load_aware_defaults_to_ring_order_without_observations() {
        let s = servers(12);
        let mut aware = LoadAwareDispatcher::new(s.clone(), 64, 4, 2);
        let mut pool = ConsistentHashDispatcher::new(s, 64, 4);
        let mut rng = SimRng::new(1);
        for port in 0..200 {
            let chosen = pick(&mut aware, &flow(port), &mut rng);
            let ring = pick(&mut pool, &flow(port), &mut rng);
            assert_eq!(
                chosen[..],
                ring[..2],
                "unobserved loads must preserve ring order"
            );
        }
        assert_eq!(aware.fanout(), 2);
        assert_eq!(aware.pool(), 4);
        assert_eq!(aware.name(), "load-aware-2of4");
    }

    #[test]
    fn load_aware_steers_away_from_loaded_servers() {
        let s = servers(12);
        let mut aware = LoadAwareDispatcher::new(s.clone(), 64, 4, 2);
        let mut pool = ConsistentHashDispatcher::new(s, 64, 4);
        let mut rng = SimRng::new(1);

        let f = flow(42);
        let ring = pick(&mut pool, &f, &mut rng);
        // Mark the first two ring candidates heavily loaded; the tail two
        // (still load 0) must now win, in ring order.
        aware.observe_load(ring[0], 10.0, 0.0);
        aware.observe_load(ring[1], 10.0, 0.0);
        assert_eq!(pick(&mut aware, &f, &mut rng)[..], [ring[2], ring[3]]);
        assert!(aware.load_of(&ring[0]) > 9.0);

        // The least-loaded of the loaded pair still outranks the other.
        aware.observe_load(ring[2], 20.0, 1.0);
        aware.observe_load(ring[3], 20.0, 1.0);
        assert_eq!(pick(&mut aware, &f, &mut rng)[0], ring[0]);
    }

    #[test]
    fn load_aware_pool_and_k_are_capped_at_server_count() {
        let d = LoadAwareDispatcher::new(servers(3), 16, 6, 4);
        assert_eq!(d.pool(), 3);
        assert_eq!(d.fanout(), 3);
    }

    #[test]
    fn observe_load_is_a_no_op_for_oblivious_dispatchers() {
        let s = servers(4);
        let mut rng = SimRng::new(2);
        let mut plain = RandomDispatcher::power_of_two(s.clone());
        let mut observed = RandomDispatcher::power_of_two(s.clone());
        observed.observe_load(s[0], 100.0, 0.0);
        assert_eq!(
            pick(&mut plain, &flow(5), &mut rng.clone())[..],
            pick(&mut observed, &flow(5), &mut rng)[..]
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        RandomDispatcher::new(servers(2), 0);
    }
}
