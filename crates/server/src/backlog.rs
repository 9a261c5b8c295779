//! The TCP accept queue (listen backlog).
//!
//! The paper configures each Apache server with a TCP backlog of 128 and
//! enables `tcp_abort_on_overflow`, so that when the backlog is full an
//! incoming connection is reset instead of silently dropped (which would
//! otherwise hide queueing delays behind SYN retransmissions).  [`Backlog`]
//! models that queue: requests wait here for an idle worker; pushing into a
//! full backlog fails, and the server converts that failure into a TCP RST.

use std::collections::VecDeque;

/// A bounded FIFO queue of connections waiting for a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backlog<T> {
    capacity: usize,
    queue: VecDeque<T>,
    /// Total number of rejected pushes (overflow events).
    overflows: u64,
}

impl<T> Backlog<T> {
    /// Creates a backlog with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Backlog {
            capacity,
            queue: VecDeque::new(),
            overflows: 0,
        }
    }

    /// The paper's configuration: a backlog of 128 connections.
    pub fn paper_default() -> Self {
        Self::new(128)
    }

    /// Maximum number of queued connections.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued connections.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Returns `true` if the backlog is full.
    pub(crate) fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Number of pushes rejected because the backlog was full.
    pub fn overflow_count(&self) -> u64 {
        self.overflows
    }

    /// Enqueues a connection; on overflow the item is handed back as `Err`
    /// (the caller sends a RST, per `tcp_abort_on_overflow`).
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            self.overflows += 1;
            Err(item)
        } else {
            self.queue.push_back(item);
            Ok(())
        }
    }

    /// Dequeues the oldest waiting connection.
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// Iterates over the queued connections, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut b = Backlog::new(3);
        b.push(1).unwrap();
        b.push(2).unwrap();
        b.push(3).unwrap();
        assert_eq!(b.pop(), Some(1));
        assert_eq!(b.pop(), Some(2));
        assert_eq!(b.pop(), Some(3));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn overflow_returns_item_and_counts() {
        let mut b = Backlog::new(2);
        b.push("a").unwrap();
        b.push("b").unwrap();
        assert!(b.is_full());
        assert_eq!(b.push("c"), Err("c"));
        assert_eq!(b.push("d"), Err("d"));
        assert_eq!(b.overflow_count(), 2);
        assert_eq!(b.len(), 2);
        b.pop();
        assert!(!b.is_full());
        b.push("c").unwrap();
        assert_eq!(b.overflow_count(), 2);
    }

    #[test]
    fn zero_capacity_always_overflows() {
        let mut b = Backlog::new(0);
        assert!(b.is_full());
        assert!(b.is_empty());
        assert_eq!(b.push(7), Err(7));
    }

    #[test]
    fn paper_default_capacity() {
        let b: Backlog<u32> = Backlog::paper_default();
        assert_eq!(b.capacity(), 128);
    }
}
