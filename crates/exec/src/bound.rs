//! The cross-shard shared bound and per-query execution control.
//!
//! # Bound-sharing protocol
//!
//! Each in-flight query owns one [`SharedBound`]: an `AtomicU64` holding
//! the bit pattern of the tightest known upper bound on the query's
//! *global* kth dissimilarity (initially `+inf`). Every shard job working
//! that query holds a reference:
//!
//! * when a shard's local [`mst_search::UpperKeys`] threshold tightens,
//!   the search publishes it ([`mst_search::BoundShare::publish_kth`]) and
//!   the bound is lowered monotonically;
//! * before every refinement decision the search reads the bound
//!   ([`mst_search::BoundShare::kth_hint`]) and folds it into its pruning
//!   threshold, so a discovery on shard 0 kills candidates on shard 3
//!   mid-flight.
//!
//! Soundness: a shard's kth upper key certifies "at least k trajectories
//! exist with dissimilarity ≤ this value" — a statement about the whole
//! dataset, since shards partition it. The global kth best is therefore
//! never above any published value, and pruning strictly above the bound
//! can never discard a true answer. Monotonicity makes relaxed atomics
//! sufficient: a stale read is merely a looser (still sound) bound.
//!
//! The comparison trick: for non-negative IEEE 754 doubles (dissimilarities
//! and `+inf` are), the total order of values coincides with the unsigned
//! order of their bit patterns, so `fetch_min` on the raw bits *is* a
//! lock-free floating-point minimum.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mst_search::BoundShare;

use crate::clock::Stopwatch;

/// A monotonically tightening upper bound on a query's global kth
/// dissimilarity, shared by every shard job of that query.
#[derive(Debug)]
pub struct SharedBound {
    bits: AtomicU64,
}

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound::new()
    }
}

impl SharedBound {
    /// A fresh bound: nothing known, `+inf`.
    pub fn new() -> Self {
        SharedBound {
            bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    /// The current bound.
    pub fn get(&self) -> f64 {
        // ordering: the bound is a monotone lattice — any stale read is a
        // valid (merely looser) bound, so no synchronization is needed.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Lowers the bound to `value` if tighter. Non-finite or negative
    /// values are ignored — the bound only ever moves down through sound
    /// certificates.
    pub fn tighten(&self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        // Non-negative doubles order identically to their bit patterns.
        // ordering: fetch_min only ever lowers the value; readers that
        // miss this update see a looser bound, which is still sound.
        self.bits.fetch_min(value.to_bits(), Ordering::Relaxed);
    }
}

/// Per-query execution state shared by all of the query's shard jobs: the
/// cross-shard bound, the deadline, the degradation flag, and the
/// first-start/last-end timestamps the latency report is built from.
///
/// This is the executor's implementation of [`BoundShare`]; a reference to
/// it is threaded into the per-shard searches
/// ([`mst_search::bfmst_search`] /
/// [`mst_search::nearest_trajectories`]).
#[derive(Debug)]
pub struct QueryControl {
    bound: SharedBound,
    clock: Stopwatch,
    /// Absolute deadline as a microsecond offset on `clock`; `u64::MAX`
    /// means no deadline.
    deadline_us: u64,
    /// Whether the cross-shard bound participates in pruning. When off,
    /// hints read `+inf` and publishes are dropped — each shard prunes on
    /// its local threshold alone ([`QueryOptions::share_bound`]
    /// (mst_search::QueryOptions)).
    share: bool,
    degraded: AtomicBool,
    /// First shard-job start (microseconds on `clock`); `u64::MAX` until a
    /// job starts.
    started_us: AtomicU64,
    /// Last shard-job end (microseconds on `clock`).
    finished_us: AtomicU64,
}

impl QueryControl {
    /// Creates the control for one query of a batch. `deadline_us` is the
    /// per-query budget in microseconds, measured from batch submission
    /// (`clock`'s origin) — queue wait counts against it, matching an
    /// SLA-from-submission service model.
    pub fn new(clock: Stopwatch, deadline_us: Option<u64>) -> Self {
        QueryControl::with_sharing(clock, deadline_us, true)
    }

    /// [`QueryControl::new`] with the bound-sharing switch exposed:
    /// `share: false` isolates this query's shards from each other (hints
    /// read `+inf`, publishes are dropped), while deadlines and latency
    /// marks work as usual.
    pub fn with_sharing(clock: Stopwatch, deadline_us: Option<u64>, share: bool) -> Self {
        QueryControl {
            bound: SharedBound::new(),
            clock,
            deadline_us: deadline_us.unwrap_or(u64::MAX),
            share,
            degraded: AtomicBool::new(false),
            started_us: AtomicU64::new(u64::MAX),
            finished_us: AtomicU64::new(0),
        }
    }

    /// The query's shared bound.
    pub fn bound(&self) -> &SharedBound {
        &self.bound
    }

    /// True when any shard job of this query hit the deadline: the query's
    /// results are best-so-far, not certified complete.
    pub fn is_degraded(&self) -> bool {
        // ordering: read after the worker threads are joined; the join
        // supplies the happens-before edge, not the atomic.
        self.degraded.load(Ordering::Relaxed)
    }

    /// Records that a shard job of this query is starting now.
    pub fn mark_start(&self) {
        // ordering: commutative min over a monotonic clock; the report
        // reads only after the jobs are collected (join happens-before).
        self.started_us
            .fetch_min(self.clock.elapsed_us(), Ordering::Relaxed);
    }

    /// Records that a shard job of this query finished now.
    pub fn mark_end(&self) {
        // ordering: commutative max over a monotonic clock; the report
        // reads only after the jobs are collected (join happens-before).
        self.finished_us
            .fetch_max(self.clock.elapsed_us(), Ordering::Relaxed);
    }

    /// Wall time from the query's first shard-job start to its last
    /// shard-job end, in microseconds (0 if no job ran).
    pub fn latency_us(&self) -> u64 {
        // ordering: read after the query's jobs are collected; the
        // result-slot handoff supplies the happens-before edge.
        let start = self.started_us.load(Ordering::Relaxed);
        let end = self.finished_us.load(Ordering::Relaxed); // ordering: as above
        if start == u64::MAX {
            return 0;
        }
        end.saturating_sub(start)
    }
}

impl BoundShare for QueryControl {
    fn kth_hint(&self) -> f64 {
        if self.share {
            self.bound.get()
        } else {
            f64::INFINITY
        }
    }

    fn publish_kth(&self, kth: f64) {
        if self.share {
            self.bound.tighten(kth);
        }
    }

    fn poll_stop(&self) -> bool {
        if self.deadline_us == u64::MAX {
            return false;
        }
        // `>=` so a zero budget is expired from the first poll.
        if self.clock.elapsed_us() >= self.deadline_us {
            // ordering: a sticky one-way flag; readers observe it after
            // the job join, which supplies the happens-before edge.
            self.degraded.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_starts_infinite_and_only_tightens() {
        let b = SharedBound::new();
        assert_eq!(b.get(), f64::INFINITY);
        b.tighten(5.0);
        assert_eq!(b.get(), 5.0);
        b.tighten(7.0); // looser: ignored
        assert_eq!(b.get(), 5.0);
        b.tighten(2.5);
        assert_eq!(b.get(), 2.5);
        b.tighten(f64::NAN);
        b.tighten(f64::INFINITY);
        b.tighten(-1.0);
        assert_eq!(b.get(), 2.5);
        b.tighten(0.0);
        assert_eq!(b.get(), 0.0);
    }

    #[test]
    fn concurrent_tightening_converges_to_the_minimum() {
        let b = SharedBound::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let b = &b;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        b.tighten(1.0 + ((t * 1000 + i) % 997) as f64);
                    }
                });
            }
        });
        assert_eq!(b.get(), 1.0);
    }

    #[test]
    fn control_without_deadline_never_stops() {
        let ctl = QueryControl::new(Stopwatch::start(), None);
        assert!(!ctl.poll_stop());
        assert!(!ctl.is_degraded());
        assert_eq!(ctl.kth_hint(), f64::INFINITY);
        ctl.publish_kth(3.0);
        assert_eq!(ctl.kth_hint(), 3.0);
    }

    #[test]
    fn sharing_off_isolates_the_bound() {
        let ctl = QueryControl::with_sharing(Stopwatch::start(), None, false);
        ctl.publish_kth(3.0);
        assert_eq!(ctl.kth_hint(), f64::INFINITY);
        // The underlying bound really dropped the publish — a later flip
        // to sharing could not leak a stale value (the bound never saw it).
        assert_eq!(ctl.bound().get(), f64::INFINITY);
    }

    #[test]
    fn expired_deadline_stops_and_degrades() {
        let ctl = QueryControl::new(Stopwatch::start(), Some(0));
        // A zero budget is over by the first poll.
        assert!(ctl.poll_stop());
        assert!(ctl.is_degraded());
    }

    #[test]
    fn latency_spans_first_start_to_last_end() {
        let ctl = QueryControl::new(Stopwatch::start(), None);
        assert_eq!(ctl.latency_us(), 0);
        ctl.mark_start();
        ctl.mark_end();
        ctl.mark_end();
        // Non-negative and small; exact values depend on the host clock.
        let lat = ctl.latency_us();
        assert!(lat < 10_000_000);
    }
}
