//! Committed-capacity profile: a step function of reserved nodes over time.
//!
//! Reservations are half-open intervals `[start, end)`. The profile answers
//! the scheduling query at the heart of reservation systems: *the earliest
//! instant at or after `t` where `n` nodes are free for `d` seconds*.
//! Candidate start instants only need to be examined at reservation
//! boundaries (usage is constant between them), which keeps the query
//! `O(k²)` in the number of future boundaries — bookings per machine are
//! thousands, not millions, over an evaluation window.

use cosched_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Step-function ledger of committed node usage.
#[derive(Debug, Clone)]
pub struct CapacityProfile {
    capacity: u64,
    /// Usage deltas at instants: +nodes at start, −nodes at end.
    deltas: BTreeMap<SimTime, i64>,
}

impl CapacityProfile {
    /// Empty profile over `capacity` nodes.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        CapacityProfile {
            capacity,
            deltas: BTreeMap::new(),
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Peak committed usage over `[start, start + duration)`.
    pub fn max_usage_in(&self, start: SimTime, duration: SimDuration) -> u64 {
        let end = start + duration;
        let mut usage = 0i64;
        for (_, d) in self.deltas.range(..=start) {
            usage += d;
        }
        let mut peak = usage;
        for (&t, d) in self.deltas.range(..end) {
            if t <= start {
                continue;
            }
            usage += d;
            peak = peak.max(usage);
        }
        debug_assert!(peak >= 0);
        peak as u64
    }

    /// Whether `nodes` fit throughout `[start, start + duration)`.
    pub fn fits(&self, start: SimTime, duration: SimDuration, nodes: u64) -> bool {
        nodes <= self.capacity && self.max_usage_in(start, duration) + nodes <= self.capacity
    }

    /// Book `nodes` over `[start, start + duration)`.
    ///
    /// # Panics
    /// Panics if the booking would exceed capacity — callers must check
    /// [`CapacityProfile::fits`] first; booking beyond capacity is a
    /// scheduler bug, not an input condition.
    pub fn reserve(&mut self, start: SimTime, duration: SimDuration, nodes: u64) {
        assert!(
            self.fits(start, duration, nodes),
            "reservation of {nodes} nodes at {start} for {duration} exceeds capacity"
        );
        assert!(!duration.is_zero(), "zero-length reservation");
        *self.deltas.entry(start).or_insert(0) += nodes as i64;
        let end = start + duration;
        *self.deltas.entry(end).or_insert(0) -= nodes as i64;
        // Drop zero entries to keep boundary scans tight.
        if self.deltas.get(&start) == Some(&0) {
            self.deltas.remove(&start);
        }
        if self.deltas.get(&end) == Some(&0) {
            self.deltas.remove(&end);
        }
    }

    /// Earliest instant at or after `after` where `nodes` are free for
    /// `duration`. Returns `None` only if `nodes` exceeds capacity.
    pub fn earliest_fit(
        &self,
        after: SimTime,
        duration: SimDuration,
        nodes: u64,
    ) -> Option<SimTime> {
        if nodes > self.capacity {
            return None;
        }
        if self.fits(after, duration, nodes) {
            return Some(after);
        }
        for (&t, _) in self.deltas.range(after..) {
            if t > after && self.fits(t, duration, nodes) {
                return Some(t);
            }
        }
        // Beyond the last boundary usage is zero; the last boundary was
        // checked above, so reaching here means every boundary failed —
        // impossible unless the profile never empties, which bounded
        // bookings cannot produce. Defensive fallback:
        let last = self.deltas.keys().next_back().copied().unwrap_or(after);
        Some(last.max(after))
    }

    /// Earliest instant at or after `after` where this *and* `other` can
    /// both fit their respective requests simultaneously — the co-
    /// reservation query. The candidate set is the union of both profiles'
    /// boundaries.
    pub fn earliest_co_fit(
        &self,
        other: &CapacityProfile,
        after: SimTime,
        dur_a: SimDuration,
        nodes_a: u64,
        dur_b: SimDuration,
        nodes_b: u64,
    ) -> Option<SimTime> {
        if nodes_a > self.capacity || nodes_b > other.capacity {
            return None;
        }
        let both = |t: SimTime| self.fits(t, dur_a, nodes_a) && other.fits(t, dur_b, nodes_b);
        if both(after) {
            return Some(after);
        }
        let mut candidates: Vec<SimTime> = self
            .deltas
            .range(after..)
            .map(|(&t, _)| t)
            .chain(other.deltas.range(after..).map(|(&t, _)| t))
            .filter(|&t| t > after)
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        for t in candidates {
            if both(t) {
                return Some(t);
            }
        }
        let last_a = self.deltas.keys().next_back().copied().unwrap_or(after);
        let last_b = other.deltas.keys().next_back().copied().unwrap_or(after);
        Some(last_a.max(last_b).max(after))
    }

    /// Total committed node-seconds in the ledger (for accounting checks).
    pub fn committed_node_seconds(&self) -> u64 {
        let mut usage = 0i64;
        let mut prev: Option<SimTime> = None;
        let mut total = 0u64;
        for (&t, d) in &self.deltas {
            if let Some(p) = prev {
                total += usage as u64 * (t - p).as_secs();
            }
            usage += d;
            prev = Some(t);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn usage_tracks_reservations() {
        let mut p = CapacityProfile::new(100);
        p.reserve(t(10), d(20), 60);
        assert_eq!(
            p.max_usage_in(t(0), d(10)),
            0,
            "a window ending at the start"
        );
        assert_eq!(p.max_usage_in(t(10), d(1)), 60);
        assert_eq!(p.max_usage_in(t(29), d(1)), 60);
        assert_eq!(p.max_usage_in(t(30), d(1)), 0, "end is exclusive");
        assert!(p.fits(t(30), d(10), 100));
        assert!(!p.fits(t(29), d(1), 41));
    }

    #[test]
    fn max_usage_over_window() {
        let mut p = CapacityProfile::new(100);
        p.reserve(t(10), d(10), 30);
        p.reserve(t(15), d(10), 40);
        assert_eq!(p.max_usage_in(t(0), d(12)), 30);
        assert_eq!(p.max_usage_in(t(0), d(20)), 70);
        assert_eq!(p.max_usage_in(t(20), d(5)), 40);
        assert_eq!(p.max_usage_in(t(25), d(100)), 0);
    }

    #[test]
    fn fits_respects_capacity() {
        let mut p = CapacityProfile::new(100);
        p.reserve(t(0), d(100), 70);
        assert!(p.fits(t(0), d(50), 30));
        assert!(!p.fits(t(0), d(50), 31));
        assert!(p.fits(t(100), d(50), 100));
        assert!(!p.fits(t(0), d(1), 101));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn over_reservation_panics() {
        let mut p = CapacityProfile::new(10);
        p.reserve(t(0), d(10), 8);
        p.reserve(t(5), d(10), 3);
    }

    #[test]
    fn earliest_fit_finds_first_gap() {
        let mut p = CapacityProfile::new(100);
        p.reserve(t(0), d(100), 80); // 20 free until t=100
        p.reserve(t(100), d(50), 50); // 50 free in [100,150)
        assert_eq!(p.earliest_fit(t(0), d(10), 20), Some(t(0)));
        assert_eq!(p.earliest_fit(t(0), d(10), 21), Some(t(100)));
        assert_eq!(p.earliest_fit(t(0), d(10), 60), Some(t(150)));
        assert_eq!(p.earliest_fit(t(0), d(10), 101), None);
    }

    #[test]
    fn earliest_fit_respects_duration_spanning_bump() {
        let mut p = CapacityProfile::new(100);
        p.reserve(t(50), d(10), 90); // bump in the middle
                                     // 20 nodes for 100 s starting now would overlap the bump.
        assert_eq!(p.earliest_fit(t(0), d(100), 20), Some(t(60)));
        // Short enough to finish before the bump: immediate.
        assert_eq!(p.earliest_fit(t(0), d(50), 20), Some(t(0)));
    }

    #[test]
    fn co_fit_finds_common_slot() {
        let mut a = CapacityProfile::new(100);
        let mut b = CapacityProfile::new(10);
        a.reserve(t(0), d(100), 100); // A busy till 100
        b.reserve(t(0), d(200), 8); // B nearly busy till 200
                                    // Pair needs 50 on A and 4 on B: A frees at 100, B at 200.
        assert_eq!(
            a.earliest_co_fit(&b, t(0), d(60), 50, d(60), 4),
            Some(t(200))
        );
        // 2 nodes on B fit alongside the 8: only A constrains.
        assert_eq!(
            a.earliest_co_fit(&b, t(0), d(60), 50, d(60), 2),
            Some(t(100))
        );
        // Oversize on either machine: no slot ever.
        assert_eq!(a.earliest_co_fit(&b, t(0), d(1), 101, d(1), 1), None);
        assert_eq!(a.earliest_co_fit(&b, t(0), d(1), 1, d(1), 11), None);
    }

    #[test]
    fn committed_node_seconds_accounting() {
        let mut p = CapacityProfile::new(100);
        p.reserve(t(10), d(20), 60);
        p.reserve(t(20), d(10), 30);
        assert_eq!(p.committed_node_seconds(), 60 * 20 + 30 * 10);
    }

    #[test]
    fn empty_profile_fits_everything_reasonable() {
        let p = CapacityProfile::new(64);
        assert_eq!(p.earliest_fit(t(500), d(1_000), 64), Some(t(500)));
        assert_eq!(p.max_usage_in(t(0), d(1)), 0);
        assert_eq!(p.committed_node_seconds(), 0);
    }
}
