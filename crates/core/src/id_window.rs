//! A sliding window over increasing ids.
//!
//! The client's outstanding requests are born in id order (the workload
//! contract), die in any order, and mostly die young: at any moment the
//! live ones are a short, nearly contiguous run of ids.  [`IdWindow`] keeps
//! them in a ring in id order, so finding one is an offset from the oldest
//! (or, where ids have gaps, a binary search), inserting is a push at the
//! back, and a traversal is in id order with nothing to sort — no hashing
//! and no tree nodes.

use std::collections::VecDeque;

/// How many removed entries may sit in the ring — this many per live entry
/// plus a floor — before it is compacted.  Compaction leaves id gaps behind
/// (lookups across them fall back to binary search), so it must not fire on
/// the dead slots an ordinary slow request at the front leaves until it
/// completes: up to 30 per live entry at ~35 live and 13 per live entry at
/// ~1 100 live in the repository's benchmark workloads.  The floor is about
/// 0.4 MB of client in-flight records.
const DEAD_PER_LIVE: usize = 16;
const DEAD_FLOOR: usize = 4096;

/// A map from strictly increasing `u64` ids to values, tuned for ids that
/// are removed roughly in the order they were inserted.
///
/// Lookups are O(1) while the ring has no id gaps and O(log n) otherwise;
/// memory is O(live entries) even if the oldest entry is never removed.
#[derive(Debug, Clone)]
pub struct IdWindow<T> {
    /// `(id, value)` in strictly increasing id order.  A removed entry
    /// leaves `None` behind until it reaches the front (and is popped) or
    /// the ring is compacted, so the front slot is always live.
    slots: VecDeque<(u64, Option<T>)>,
    live: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> IdWindow<T> {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Adds `value` under `id`.
    ///
    /// # Panics
    ///
    /// Panics unless `id` is greater than every id still in the window —
    /// the order everything else here relies on.
    pub fn insert(&mut self, id: u64, value: T) {
        assert!(
            self.slots.back().is_none_or(|&(last, _)| last < id),
            "ids must be inserted in increasing order"
        );
        self.slots.push_back((id, Some(value)));
        self.live += 1;
    }

    /// The ring position of `id`'s slot (live or not).
    fn position(&self, id: u64) -> Option<usize> {
        let oldest = self.slots.front()?.0;
        let offset = usize::try_from(id.checked_sub(oldest)?).ok()?;
        // Ids increase strictly, so the slot is at most `offset` in; with no
        // gaps in between it is exactly there.
        match self.slots.get(offset) {
            Some(&(at, _)) if at == id => Some(offset),
            _ => self.slots.binary_search_by_key(&id, |&(at, _)| at).ok(),
        }
    }

    /// The live value under `id`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let position = self.position(id)?;
        self.slots[position].1.as_mut()
    }

    /// Removes and returns the live value under `id`.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let position = self.position(id)?;
        let value = self.slots[position].1.take()?;
        self.live -= 1;
        while self.slots.front().is_some_and(|(_, v)| v.is_none()) {
            self.slots.pop_front();
        }
        // Behind an entry that stays (a request that never completes) the
        // dead slots would otherwise pile up for the rest of the run.
        if self.slots.len() - self.live > DEAD_PER_LIVE * self.live + DEAD_FLOOR {
            self.slots.retain(|(_, v)| v.is_some());
        }
        Some(value)
    }

    /// Consumes the window, yielding the live values in id order.
    pub fn into_values(self) -> impl Iterator<Item = T> {
        self.slots.into_iter().filter_map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_are_found_by_offset_and_heads_are_popped() {
        let mut w = IdWindow::new();
        for id in 10..20u64 {
            w.insert(id, id * 2);
        }
        assert_eq!(w.len(), 10);
        assert_eq!(w.get_mut(9), None);
        assert_eq!(w.get_mut(20), None);
        *w.get_mut(15).unwrap() += 1;
        assert_eq!(w.remove(15), Some(31));
        assert_eq!(w.remove(15), None, "a dead slot holds nothing");
        assert_eq!(w.slots.len(), 10, "mid-window removal leaves its slot");
        assert_eq!(w.remove(10), Some(20));
        assert_eq!(w.remove(11), Some(22));
        assert_eq!(w.slots.front().unwrap().0, 12, "finished heads are popped");
        assert_eq!(w.len(), 7);
        assert_eq!(
            w.into_values().collect::<Vec<_>>(),
            vec![24, 26, 28, 32, 34, 36, 38]
        );
    }

    #[test]
    fn gapped_ids_fall_back_to_binary_search() {
        let mut w = IdWindow::new();
        for id in [3u64, 4, 9, 100, 101, 5_000_000_000] {
            w.insert(id, id);
        }
        for id in [3u64, 4, 9, 100, 101, 5_000_000_000] {
            assert_eq!(w.get_mut(id).copied(), Some(id));
        }
        for absent in [0u64, 2, 5, 8, 10, 99, 102, u64::MAX] {
            assert_eq!(w.get_mut(absent), None);
            assert_eq!(w.remove(absent), None);
        }
        assert_eq!(w.remove(100), Some(100));
        assert_eq!(w.get_mut(100), None);
        assert_eq!(w.get_mut(101).copied(), Some(101));
    }

    #[test]
    fn a_head_that_never_finishes_does_not_pin_dead_slots() {
        let mut w = IdWindow::new();
        w.insert(0, 0u64);
        for id in 1..50_000u64 {
            w.insert(id, id);
            assert_eq!(w.remove(id), Some(id));
            assert!(w.slots.len() - w.len() <= DEAD_PER_LIVE * w.len() + DEAD_FLOOR + 1);
        }
        assert_eq!(w.len(), 1);
        assert_eq!(w.get_mut(0).copied(), Some(0));
        // Across the gap compaction left, lookups still find what is there.
        w.insert(50_000, 50_000);
        assert_eq!(w.get_mut(50_000).copied(), Some(50_000));
        assert_eq!(w.remove(50_000), Some(50_000));
        // Emptied, the window takes any id again.
        assert_eq!(w.remove(0), Some(0));
        assert!(w.is_empty() && w.slots.is_empty());
        w.insert(5, 5);
        assert_eq!(w.into_values().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn out_of_order_insert_is_rejected() {
        let mut w = IdWindow::new();
        w.insert(7, ());
        w.insert(7, ());
    }
}
