//! Property-based equivalence between the client's in-flight
//! [`IdWindow`] and a `BTreeMap` — the structure it replaced, and the
//! obvious model of "a map drained in id order".
//!
//! Ids are inserted increasing, dense or with gaps; lookups and removals hit
//! live, dead and never-inserted ids in any order; and, optionally, the very
//! first entry is never removed while thousands come and go behind it (a
//! request that never completes), which is what drives the window through
//! its compaction and binary-search paths.

use std::collections::BTreeMap;

use proptest::prelude::*;
use srlb_core::IdWindow;

/// Both structures side by side; every operation is applied to both and
/// must agree.
#[derive(Default)]
struct Pair {
    window: IdWindow<u64>,
    model: BTreeMap<u64, u64>,
    /// Every id ever inserted (live or not), for picking lookup targets.
    inserted: Vec<u64>,
    next_id: u64,
    pinned: Option<u64>,
}

impl Pair {
    fn insert(&mut self, gap: u64) {
        let id = self.next_id + gap;
        self.next_id = id + 1;
        self.window.insert(id, id * 3);
        self.model.insert(id, id * 3);
        self.inserted.push(id);
    }

    /// An id to look up: one that was inserted at some point (it may be
    /// dead by now), or one that never was.
    fn pick(&self, pick: u16, known: bool) -> u64 {
        if known && !self.inserted.is_empty() {
            self.inserted[usize::from(pick) % self.inserted.len()]
        } else {
            // Just past the end, or inside a gap, or far away.
            self.next_id + u64::from(pick % 3) * 1_000_000
        }
    }

    fn bump(&mut self, id: u64) -> Result<(), TestCaseError> {
        let (got, want) = (self.window.get_mut(id), self.model.get_mut(&id));
        prop_assert_eq!(got.as_deref().copied(), want.as_deref().copied());
        if let (Some(got), Some(want)) = (got, want) {
            *got += 1;
            *want += 1;
        }
        Ok(())
    }

    fn remove(&mut self, id: u64) -> Result<(), TestCaseError> {
        if self.pinned == Some(id) {
            return Ok(());
        }
        prop_assert_eq!(self.window.remove(id), self.model.remove(&id));
        prop_assert_eq!(self.window.len(), self.model.len());
        prop_assert_eq!(self.window.is_empty(), self.model.is_empty());
        Ok(())
    }
}

proptest! {
    #[test]
    fn window_equals_a_btreemap_under_any_interleaving(
        pin_head in any::<bool>(),
        // Insert-then-remove pairs behind the (possibly pinned) head: past
        // ~4 100 of them a pinned head makes the window compact.
        churn in 0usize..6_000,
        ops in prop::collection::vec((0u8..10, any::<u16>(), 0u64..4), 0..300),
    ) {
        let mut pair = Pair::default();
        pair.insert(0);
        if pin_head {
            pair.pinned = Some(pair.inserted[0]);
        }
        for _ in 0..churn {
            pair.insert(0);
            pair.remove(pair.next_id - 1)?;
        }
        for (kind, pick, gap) in ops {
            match kind {
                // Dense inserts mostly, gapped ones sometimes.
                0..=2 => pair.insert(0),
                3 => pair.insert(gap * gap * 7),
                4 | 5 => pair.remove(pair.pick(pick, true))?,
                6 => pair.remove(pair.pick(pick, false))?,
                7 | 8 => pair.bump(pair.pick(pick, true))?,
                _ => pair.bump(pair.pick(pick, false))?,
            }
        }
        // Everything still findable, then the drain: id order, same values.
        for id in pair.model.keys().copied().collect::<Vec<_>>() {
            pair.bump(id)?;
        }
        let drained: Vec<u64> = pair.window.into_values().collect();
        let expected: Vec<u64> = pair.model.into_values().collect();
        prop_assert_eq!(drained, expected);
    }
}
