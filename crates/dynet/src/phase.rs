//! The elimination-time accumulator behind the round loop's
//! `kernel.eliminate` span.
//!
//! [`run_fast`](crate::simulator::run_fast) times its own sections (the
//! adversary and view, compose, delivery) and, when telemetry is enabled,
//! reports per-run totals as `span` events: `kernel.csr`,
//! `kernel.compose`, `kernel.eliminate`, and `kernel.gather` (delivery
//! minus elimination — message builds, unpacking and inbox traversal).
//! Elimination happens inside a cell's `deliver_all`, so the elimination
//! cells add to this thread-local accumulator around each receiving
//! node's inbox (packet copies and `insert` calls), and only while
//! telemetry is enabled (`dyncode_obs::enabled()`) — the disabled path
//! costs one atomic load per `deliver_all`, not per message.

use std::cell::Cell;

thread_local! {
    /// Elimination nanoseconds accumulated by the current run's cells.
    static ELIM_NS: Cell<u64> = const { Cell::new(0) };
}

/// Zeroes the elimination accumulator (start of a run).
pub(crate) fn elim_reset() {
    ELIM_NS.with(|c| c.set(0));
}

/// Adds `ns` of elimination time (called by cells per receiving node).
pub fn elim_add(ns: u64) {
    ELIM_NS.with(|c| c.set(c.get() + ns));
}

/// Reads and zeroes the elimination accumulator (end of a run).
pub(crate) fn elim_take() -> u64 {
    ELIM_NS.with(|c| c.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elim_accumulator_adds_and_drains() {
        elim_reset();
        elim_add(5);
        elim_add(7);
        assert_eq!(elim_take(), 12);
        assert_eq!(elim_take(), 0);
    }
}
