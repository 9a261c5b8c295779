//! Persistent worker pool for conservative-window sharded execution.
//!
//! `WorkerPool` owns `S - 1` long-lived worker threads (the calling thread
//! doubles as the worker for shard 0 *and* the window coordinator).  Between
//! run segments the workers park on a condvar; within a segment every window
//! costs two waits on a lightweight `SenseBarrier` instead of the
//! per-window channel round-trips (and their OS wakeups) the previous
//! implementation paid.
//!
//! # Window protocol
//!
//! Each window has a **compute phase** and a **coordinator phase** separated
//! by barriers:
//!
//! 1. *Compute* (all shards in parallel): ingest the mailboxes published at
//!    the previous barrier in ascending source-shard order (events carry
//!    globally unique keys, so ingestion order only needs to be
//!    deterministic), process local events below this shard's horizon, then
//!    publish per-destination outboxes, the earliest outbound event time per
//!    destination, and the shard's next local event time.
//! 2. *Barrier*, then *coordinate* (main thread only): fold each worker's
//!    published state into `effective_next[d]` — the earliest event that can
//!    still reach shard `d` — fast-forward the window start to the global
//!    minimum (skipping all empty windows in one step), and either finish the
//!    segment or publish fresh per-shard horizons and a window budget.
//! 3. *Barrier*, repeat.
//!
//! # Per-shard horizons and window coalescing
//!
//! Shard `d` may safely process every local event strictly below
//! `h[d] = lookahead + min(min over s != d of effective_next[s],
//! t0 + lookahead)` where `t0` is the global minimum.  The first term bounds
//! arrivals cut from a foreign shard's *existing* work: any event shard `s`
//! has yet to process happens at `effective_next[s]` or later, so anything
//! it sends to `d` arrives at `effective_next[s] + lookahead` or later.  The
//! `t0 + lookahead` cap bounds *reaction chains*: a peer that looks idle
//! until far in the future can still be woken by a message sent during this
//! very window — the earliest such wakeup is `t0 + lookahead`, so its reply
//! can land at `d` as early as `t0 + 2 * lookahead` (and by induction no
//! multi-hop chain arrives earlier).  A shard whose peers are *all* idle
//! with no mail in flight (`h[d]` unbounded) coalesces what would have been
//! many windows into one compute phase; it must, however, stop after the
//! time-group that produces its first cross-shard send — no reaction chain
//! can start before that send, and a two-hop reply routed back through
//! another shard could otherwise land in its processed past.
//!
//! # Outbox exchange
//!
//! Cross-shard events travel through `2 * S * S` mailbox slots, double
//! buffered by window parity: a shard publishing in window `k` swaps its
//! outbox vector with slot `(k & 1, src, dst)` while the receiver is still
//! draining slot `(1 - k & 1, src, dst)` from the previous window, so the
//! exchange is wait-free in the steady state, preserves vector capacity
//! (alloc-free warm path), and never contends a lock that is actually held.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::core::SimCore;
use crate::event::Mail;
use crate::time::SimTime;

/// Sentinel for "no event" in the atomic time slots.
const NO_TIME: u64 = u64::MAX;

/// Coordinator command published between the two window barriers.
const CMD_RUN: u8 = 0;
const CMD_FINISH: u8 = 1;

fn enc(t: Option<SimTime>) -> u64 {
    t.map_or(NO_TIME, SimTime::as_nanos)
}

fn dec(v: u64) -> Option<SimTime> {
    (v != NO_TIME).then(|| SimTime::from_nanos(v))
}

/// Acquires a mutex even if a peer thread panicked while holding it; the
/// pool's own `poisoned` flag (set by the `catch_unwind` wrappers around
/// every compute phase) is what actually propagates worker panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A classic sense-reversing barrier with a spin → yield → park waiting
/// ladder.  Unlike `std::sync::Barrier` it exposes the caller-held sense, so
/// long-lived participants can reuse one barrier for an unbounded number of
/// phases without ABA confusion, and short waits resolve without a syscall.
pub(crate) struct SenseBarrier {
    parties: usize,
    arrived: AtomicUsize,
    sense: AtomicU8,
    gate: Mutex<()>,
    cv: Condvar,
    spin_limit: u32,
}

impl SenseBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        // Spinning only helps when every participant can actually run at
        // once; on an oversubscribed host, park almost immediately.
        let can_spin = std::thread::available_parallelism().is_ok_and(|n| n.get() >= parties);
        SenseBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            sense: AtomicU8::new(0),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            spin_limit: if can_spin { 4096 } else { 1 },
        }
    }

    /// Blocks until all parties have called `wait` with the same `local`
    /// sense.  `local` flips on every call and must be thread-local state
    /// initialised to 0.
    pub(crate) fn wait(&self, local: &mut u8) {
        let next = 1 - *local;
        *local = next;
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            // Publish the new sense under the gate so a parked waiter cannot
            // miss the notify between its re-check and its condvar wait.
            let guard = lock(&self.gate);
            self.sense.store(next, Ordering::Release);
            drop(guard);
            self.cv.notify_all();
            return;
        }
        let mut spins = 0u32;
        while self.sense.load(Ordering::Acquire) != next {
            spins += 1;
            if spins < self.spin_limit {
                std::hint::spin_loop();
            } else if spins < self.spin_limit + 32 {
                std::thread::yield_now();
            } else {
                let mut guard = lock(&self.gate);
                while self.sense.load(Ordering::Acquire) != next {
                    guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
                return;
            }
        }
    }
}

/// Session handshake: bumped once per run segment to wake parked workers.
struct Session {
    generation: u64,
    shutdown: bool,
}

/// All state shared between the coordinator and the workers.
///
/// Plain data slots (`horizons`, `next_time`, `out_min`, …) are written on
/// one side of a barrier and read on the other; the barrier's release/acquire
/// chain orders them, so the atomics only need to exist for `Sync`, not for
/// standalone synchronisation.
struct Shared<M> {
    shards: usize,
    barrier: SenseBarrier,
    session: Mutex<Session>,
    session_cv: Condvar,
    /// Per-shard exclusive processing horizon for the current window, in
    /// nanos (`NO_TIME` = unbounded: run until the first cross-shard send).
    horizons: Vec<AtomicU64>,
    /// Inclusive policy time bound for the whole segment (`NO_TIME` = none).
    until: AtomicU64,
    /// Per-shard event cap for the current window (`u64::MAX` = unlimited).
    window_budget: AtomicU64,
    /// [`CMD_RUN`] or [`CMD_FINISH`], published in the coordinator phase.
    command: AtomicU8,
    /// Earliest event still queued locally on each shard, post-window.
    next_time: Vec<AtomicU64>,
    /// Events processed by each shard in the last window.
    processed: Vec<AtomicU64>,
    /// Whether a node on this shard requested a stop.
    stopped: Vec<AtomicBool>,
    /// Earliest event time published into mailbox `src → dst` this window
    /// (`NO_TIME` = nothing sent), flattened `[src * shards + dst]`.
    out_min: Vec<AtomicU64>,
    /// Double-buffered cross-shard mailboxes, flattened
    /// `[parity * shards² + src * shards + dst]`.
    mail: Vec<Mutex<Mail<M>>>,
    /// Hand-off slots for the worker cores, indexed by shard (0 unused).
    slots: Vec<Mutex<Option<SimCore<M>>>>,
    /// Set when any compute phase panicked; the segment winds down through
    /// the normal protocol and the coordinator re-raises at the end.
    poisoned: AtomicBool,
}

impl<M> Shared<M> {
    fn new(shards: usize) -> Self {
        Shared {
            shards,
            barrier: SenseBarrier::new(shards),
            session: Mutex::new(Session {
                generation: 0,
                shutdown: false,
            }),
            session_cv: Condvar::new(),
            horizons: (0..shards).map(|_| AtomicU64::new(NO_TIME)).collect(),
            until: AtomicU64::new(NO_TIME),
            window_budget: AtomicU64::new(u64::MAX),
            command: AtomicU8::new(CMD_RUN),
            next_time: (0..shards).map(|_| AtomicU64::new(NO_TIME)).collect(),
            processed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            stopped: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            out_min: (0..shards * shards)
                .map(|_| AtomicU64::new(NO_TIME))
                .collect(),
            mail: (0..2 * shards * shards)
                .map(|_| Mutex::new(Mail::default()))
                .collect(),
            slots: (0..shards).map(|_| Mutex::new(None)).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn mail_slot(&self, parity: usize, src: usize, dst: usize) -> &Mutex<Mail<M>> {
        &self.mail[parity * self.shards * self.shards + src * self.shards + dst]
    }

    /// Drains every mailbox published for `shard` at parity `parity`, in
    /// ascending source-shard order (deterministic; final ordering is by
    /// event key inside the queue anyway).
    fn ingest_mail(&self, shard: usize, parity: usize, core: &mut SimCore<M>) {
        for src in 0..self.shards {
            if src == shard {
                continue;
            }
            core.ingest(&mut lock(self.mail_slot(parity, src, shard)));
        }
    }

    /// One shard's compute phase: ingest last window's mail, run below the
    /// published horizon, publish outboxes + queue state.  Panics in node
    /// callbacks poison the pool instead of deadlocking the barrier.
    fn run_window(&self, shard: usize, parity: usize, core: &mut SimCore<M>) {
        let ok = panic::catch_unwind(AssertUnwindSafe(|| {
            self.run_window_inner(shard, parity, core)
        }))
        .is_ok();
        if !ok {
            self.poisoned.store(true, Ordering::Release);
            for dst in 0..self.shards {
                self.out_min[shard * self.shards + dst].store(NO_TIME, Ordering::Relaxed);
            }
            self.next_time[shard].store(NO_TIME, Ordering::Relaxed);
            self.processed[shard].store(0, Ordering::Relaxed);
            self.stopped[shard].store(true, Ordering::Relaxed);
        }
    }

    fn run_window_inner(&self, shard: usize, parity: usize, core: &mut SimCore<M>) {
        self.ingest_mail(shard, parity ^ 1, core);
        let horizon = dec(self.horizons[shard].load(Ordering::Relaxed));
        let until = dec(self.until.load(Ordering::Relaxed));
        let budget = self.window_budget.load(Ordering::Relaxed);
        let processed = if self.poisoned.load(Ordering::Acquire) {
            0
        } else {
            core.run_window(horizon, until, budget)
        };
        core.publish_outboxes(|dst, outbox| {
            let min = outbox.min_time();
            self.out_min[shard * self.shards + dst].store(enc(min), Ordering::Relaxed);
            if min.is_some() {
                let mut mailbox = lock(self.mail_slot(parity, shard, dst));
                std::mem::swap(&mut *mailbox, outbox);
            }
        });
        self.next_time[shard].store(enc(core.peek_time()), Ordering::Relaxed);
        self.processed[shard].store(processed, Ordering::Relaxed);
        self.stopped[shard].store(core.stop_requested(), Ordering::Relaxed);
    }
}

/// Body of a persistent worker thread for `shard`.
fn worker_loop<M>(shared: Arc<Shared<M>>, shard: usize) {
    let mut sense = 0u8;
    let mut seen_generation = 0u64;
    loop {
        // Park between segments.
        {
            let mut session = lock(&shared.session);
            loop {
                if session.shutdown {
                    return;
                }
                if session.generation != seen_generation {
                    seen_generation = session.generation;
                    break;
                }
                session = shared
                    .session_cv
                    .wait(session)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let mut core = lock(&shared.slots[shard]).take();
        if core.is_none() {
            // Unreachable (the coordinator slots every core before bumping
            // the generation), but poison rather than risk a wedged barrier.
            shared.poisoned.store(true, Ordering::Release);
        }
        let mut parity = 0usize;
        loop {
            if let Some(core) = core.as_mut() {
                shared.run_window(shard, parity, core);
            }
            shared.barrier.wait(&mut sense); // compute done
            shared.barrier.wait(&mut sense); // coordinator decided
            if shared.command.load(Ordering::Relaxed) == CMD_FINISH {
                if let Some(mut core) = core.take() {
                    shared.ingest_mail(shard, parity, &mut core);
                    *lock(&shared.slots[shard]) = Some(core);
                }
                shared.barrier.wait(&mut sense); // cores parked
                break;
            }
            parity ^= 1;
        }
    }
}

/// Long-lived threads + shared window state for one multi-shard
/// [`Network`](crate::Network).
pub(crate) struct WorkerPool<M> {
    shared: Arc<Shared<M>>,
    handles: Vec<JoinHandle<()>>,
    main_sense: u8,
    /// Conservative lookahead (min cross-shard link latency) in nanos.
    lookahead_nanos: u64,
    /// Scratch: `effective_next` per shard, reused across windows.
    eff: Vec<u64>,
}

impl<M: Send + 'static> WorkerPool<M> {
    /// Spawns `shards - 1` parked worker threads (the caller is shard 0).
    pub(crate) fn new(shards: usize, lookahead_nanos: u64) -> Self {
        let shared = Arc::new(Shared::new(shards));
        let handles = (1..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("srlb-shard-{shard}"))
                    .spawn(move || worker_loop(shared, shard))
                    .expect("spawning a sharded worker thread failed") // srlb-lint: allow(panic-hygiene) -- thread creation fails only on resource exhaustion; there is no useful degraded mode
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            main_sense: 0,
            lookahead_nanos,
            eff: vec![NO_TIME; shards],
        }
    }

    /// Runs one conservative-window segment over `cores` (one per shard,
    /// shard order).  Cores are lent to the workers for the duration and are
    /// all back in `cores`, with all cross-shard mail ingested, on return.
    ///
    /// # Panics
    ///
    /// Re-raises (as a generic panic) any panic that occurred in a node
    /// callback on a worker thread.
    pub(crate) fn run_segment(
        &mut self,
        cores: &mut Vec<SimCore<M>>,
        until: Option<SimTime>,
        max_events: Option<u64>,
    ) {
        let shards = self.shared.shards;
        debug_assert_eq!(cores.len(), shards);
        let shared = Arc::clone(&self.shared);

        // Bootstrap: compute the first window from the cores directly (all
        // mailboxes are empty between segments).
        shared.until.store(enc(until), Ordering::Relaxed);
        for (shard, core) in cores.iter().enumerate() {
            self.eff[shard] = enc(core.peek_time());
        }
        let mut total = 0u64;
        if self.finish_or_publish(&mut total, until, max_events) {
            // Nothing runnable: no reason to wake the workers at all.
            return;
        }

        // Lend cores 1..S to the workers and open the segment.
        for shard in (1..shards).rev() {
            let core = cores.pop().expect("one core per shard"); // srlb-lint: allow(panic-hygiene) -- debug_assert above pins cores.len() == shards
            *lock(&shared.slots[shard]) = Some(core);
        }
        {
            let mut session = lock(&shared.session);
            session.generation += 1;
            drop(session);
            shared.session_cv.notify_all();
        }

        // Window loop: the main thread is the worker for shard 0 plus the
        // coordinator between the barriers.
        let core0 = &mut cores[0];
        let mut parity = 0usize;
        let mut finished = false;
        while !finished {
            shared.run_window(0, parity, core0);
            self.main_sense_wait(); // compute done
            finished = self.coordinate(&mut total, until, max_events);
            self.main_sense_wait(); // decision published
            if finished {
                shared.ingest_mail(0, parity, core0);
            }
            parity ^= 1;
        }
        self.main_sense_wait(); // workers parked their cores

        for shard in 1..shards {
            let core = lock(&shared.slots[shard]).take();
            match core {
                Some(core) => cores.push(core),
                // A worker lost its core mid-panic; fall through to the
                // poison re-raise below with the cores we have.
                None => break,
            }
        }
        if shared.poisoned.load(Ordering::Acquire) {
            panic!("a sharded worker panicked while processing events"); // srlb-lint: allow(panic-hygiene) -- re-raises a node-callback panic captured on a worker thread; swallowing it would silently corrupt results
        }
    }

    fn main_sense_wait(&mut self) {
        self.shared.barrier.wait(&mut self.main_sense);
    }

    /// Coordinator phase: folds the workers' published window state into the
    /// finish-or-continue decision.  Returns `true` when the segment is done.
    fn coordinate(
        &mut self,
        total: &mut u64,
        until: Option<SimTime>,
        max_events: Option<u64>,
    ) -> bool {
        let shards = self.shared.shards;
        let mut stopped = false;
        for d in 0..shards {
            *total += self.shared.processed[d].load(Ordering::Relaxed);
            stopped |= self.shared.stopped[d].load(Ordering::Relaxed);
            let mut next = self.shared.next_time[d].load(Ordering::Relaxed);
            for src in 0..shards {
                next = next.min(self.shared.out_min[src * shards + d].load(Ordering::Relaxed));
            }
            self.eff[d] = next;
        }
        let finish = stopped
            || self.shared.poisoned.load(Ordering::Acquire)
            || self.finish_or_publish(total, until, max_events);
        self.shared
            .command
            .store(if finish { CMD_FINISH } else { CMD_RUN }, Ordering::Relaxed);
        finish
    }

    /// Shared tail of bootstrap and coordination: given fresh
    /// `effective_next` values in `self.eff`, decide whether the segment is
    /// over; if not, publish per-shard horizons and the window budget.
    /// Returns `true` to finish.
    fn finish_or_publish(
        &mut self,
        total: &mut u64,
        until: Option<SimTime>,
        max_events: Option<u64>,
    ) -> bool {
        let shared = &self.shared;
        let shards = shared.shards;
        // Global minimum next-event time: the fast-forwarded window start.
        let t0 = self.eff.iter().copied().min().unwrap_or(NO_TIME);
        if t0 == NO_TIME {
            return true;
        }
        if until.is_some_and(|u| t0 > u.as_nanos()) {
            return true;
        }
        if max_events.is_some_and(|m| *total >= m) {
            return true;
        }
        // h[d] = lookahead + min(min over s != d of eff[s], t0 + lookahead),
        // via min + second-min.  The first term bounds arrivals cut from
        // another shard's *existing* work (>= eff[s] + lookahead); the
        // `t0 + lookahead` cap bounds *reaction chains* — a peer that is
        // currently idle until far in the future can still be woken by a
        // message sent during this very window (earliest at t0 + lookahead)
        // and its reply can land at d as early as t0 + 2 * lookahead.
        let cap = t0.saturating_add(self.lookahead_nanos);
        let (mut lo, mut lo_count, mut second) = (NO_TIME, 0usize, NO_TIME);
        for &e in &self.eff {
            if e < lo {
                second = lo;
                lo = e;
                lo_count = 1;
            } else if e == lo {
                lo_count += 1;
            } else if e < second {
                second = e;
            }
        }
        for d in 0..shards {
            let others = if self.eff[d] == lo && lo_count == 1 {
                second
            } else {
                lo
            };
            let h = if others == NO_TIME {
                // Every other shard is provably idle with no mail in flight:
                // run unbounded; `SimCore::run_window` stops at the first
                // cross-shard send, before any reaction chain can start.
                NO_TIME
            } else {
                others.min(cap).saturating_add(self.lookahead_nanos)
            };
            shared.horizons[d].store(h, Ordering::Relaxed);
        }
        shared.window_budget.store(
            max_events.map_or(u64::MAX, |m| m - *total),
            Ordering::Relaxed,
        );
        false
    }
}

impl<M> Drop for WorkerPool<M> {
    fn drop(&mut self) {
        {
            let mut session = lock(&self.shared.session);
            session.shutdown = true;
        }
        self.shared.session_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Drives `rounds` full round-trips of a `SenseBarrier` across `parties`
/// threads and returns once all of them have finished.  Pure synchronisation
/// work — exists so the bench crate can measure per-window barrier overhead
/// without reaching into the pool internals (the caller times the call).
pub fn barrier_rounds(parties: usize, rounds: u64) {
    let barrier = Arc::new(SenseBarrier::new(parties));
    let spawned: Vec<JoinHandle<()>> = (1..parties)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut sense = 0u8;
                for _ in 0..rounds {
                    barrier.wait(&mut sense);
                }
            })
        })
        .collect();
    let mut sense = 0u8;
    for _ in 0..rounds {
        barrier.wait(&mut sense);
    }
    for handle in spawned {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sense_barrier_round_trips_across_threads() {
        // Completes (rather than deadlocking) across many reuse cycles.
        barrier_rounds(3, 500);
    }

    #[test]
    fn sense_barrier_single_party_is_free() {
        let barrier = SenseBarrier::new(1);
        let mut sense = 0u8;
        for _ in 0..10 {
            barrier.wait(&mut sense);
        }
    }
}
