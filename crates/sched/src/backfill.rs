//! EASY backfilling: the head-job reservation computation.
//!
//! When the highest-priority queued job does not fit, EASY backfilling gives
//! it a *reservation* at the earliest instant enough nodes will be free
//! (the *shadow time*, projected from running jobs' walltime estimates), and
//! lets lower-priority jobs start now only if they cannot delay that
//! reservation: either they finish (by their own walltime) before the shadow
//! time, or they fit inside the *spare* nodes not needed by the reservation.
//!
//! Held jobs (coscheduling's hold scheme) have no completion estimate, so
//! they are excluded from the projection; if the head job can never fit
//! while holds persist, the shadow time is unreachable ([`SimTime::MAX`])
//! and fitting jobs may backfill freely — the hold-release timer, not the
//! reservation, is what eventually unblocks the head job.

use cosched_sim::SimTime;

/// A projected future release of nodes: `(estimated end, nodes freed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectedRelease {
    /// When the running job's walltime expires.
    pub end: SimTime,
    /// Nodes it will return.
    pub nodes: u64,
}

/// The head job's reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shadow {
    /// Earliest instant the head job's request is projected to fit.
    /// [`SimTime::MAX`] if it never fits under current holds.
    pub time: SimTime,
    /// Nodes free at the shadow time beyond what the head job needs; a
    /// backfill candidate no larger than this can never delay the head job.
    pub spare: u64,
}

/// Compute the head-job reservation.
///
/// * `head_size` — nodes the head job needs;
/// * `free_now` — nodes currently free;
/// * `releases` — projected completions of running jobs, sorted by
///   `(end, nodes)` ascending.
///
/// The projection assumes (as EASY does) that no new work arrives and each
/// running job ends exactly at its walltime. Conservative with respect to
/// partition fragmentation: a fit is declared when the *count* suffices,
/// which is how Qsim models it too; the allocator re-checks at start time.
///
/// Allocation-free: the caller supplies the sorted sequence (the scheduler
/// keeps its release list incrementally sorted) and this walks it once.
#[inline]
pub fn compute_shadow_sorted(
    head_size: u64,
    free_now: u64,
    releases: impl Iterator<Item = ProjectedRelease>,
) -> Shadow {
    if head_size <= free_now {
        return Shadow {
            time: SimTime::ZERO,
            spare: free_now - head_size,
        };
    }
    let mut free = free_now;
    for r in releases {
        free += r.nodes;
        if free >= head_size {
            return Shadow {
                time: r.end,
                spare: free - head_size,
            };
        }
    }
    // Never fits (held nodes block it): no reservation constrains backfill.
    Shadow {
        time: SimTime::MAX,
        spare: u64::MAX,
    }
}

impl Shadow {
    /// Whether a backfill candidate of `size` nodes and `walltime_end`
    /// (now + its requested walltime) can start without delaying the
    /// reservation.
    pub fn admits(&self, size: u64, walltime_end: SimTime) -> bool {
        walltime_end <= self.time || size <= self.spare
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn rel(end: u64, nodes: u64) -> ProjectedRelease {
        ProjectedRelease { end: t(end), nodes }
    }

    /// The shadow of `releases`, which must already be sorted by
    /// `(end, nodes)` as the scheduler keeps them.
    fn shadow(head: u64, free: u64, releases: &[ProjectedRelease]) -> Shadow {
        assert!(releases.is_sorted_by_key(|r| (r.end, r.nodes)));
        compute_shadow_sorted(head, free, releases.iter().copied())
    }

    #[test]
    fn shadow_at_first_sufficient_release() {
        // free 10, head needs 50; releases of 20@t100, 30@t200, 40@t300.
        let s = shadow(50, 10, &[rel(100, 20), rel(200, 30), rel(300, 40)]);
        assert_eq!(s.time, t(200)); // 10+20+30 = 60 ≥ 50
        assert_eq!(s.spare, 10);
    }

    #[test]
    fn shadow_unreachable_under_holds() {
        let s = shadow(100, 10, &[rel(50, 20)]);
        assert_eq!(s.time, SimTime::MAX);
        assert_eq!(s.spare, u64::MAX);
        // Unconstrained backfill.
        assert!(s.admits(1_000, SimTime::MAX));
    }

    #[test]
    fn no_releases_leave_the_shadow_unreachable() {
        let s = shadow(10, 0, &[]);
        assert_eq!(s.time, SimTime::MAX);
        assert_eq!(s.spare, u64::MAX);
    }

    #[test]
    fn head_already_fitting_is_immediate() {
        let s = shadow(5, 10, &[rel(100, 20)]);
        assert_eq!(s.time, SimTime::ZERO);
        assert_eq!(s.spare, 5);
    }

    #[test]
    fn admits_by_finishing_before_shadow() {
        let s = shadow(50, 10, &[rel(100, 60)]);
        assert_eq!(s.time, t(100));
        assert_eq!(s.spare, 20);
        assert!(s.admits(45, t(100))); // ends exactly at shadow: ok
        assert!(!s.admits(45, t(101))); // too long and too big
        assert!(s.admits(20, t(500))); // fits in spare regardless of length
        assert!(!s.admits(21, t(101)));
    }

    #[test]
    fn simultaneous_releases_accumulate() {
        let s = shadow(50, 0, &[rel(100, 25), rel(100, 25)]);
        assert_eq!(s.time, t(100));
        assert_eq!(s.spare, 0);
    }
}
