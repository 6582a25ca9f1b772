//! The mate registry: which job on which machine is associated with which.
//!
//! In a deployment, users declare the association at submission (e.g. a
//! shared pair token in both job scripts); each domain records the pairs
//! that involve it. The simulator builds the registry from the paired
//! traces up front, which also lets it answer `get_mate_job` for jobs whose
//! mate has not been submitted yet — the `unsubmitted` case of Algorithm 1.

use cosched_sim::IdHashMap;
use cosched_workload::{JobId, MachineId, MateRef, Trace};

/// Bidirectional mate lookup across the coupled system.
#[derive(Debug, Clone, Default)]
pub struct MateRegistry {
    map: IdHashMap<(MachineId, JobId), MateRef>,
}

impl MateRegistry {
    /// An empty registry (no paired jobs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from the traces of both machines, validating mutuality.
    ///
    /// # Panics
    /// Panics if any mate reference is dangling or asymmetric — corrupt
    /// pairing must not silently produce a meaningless experiment.
    pub fn from_traces(a: &Trace, b: &Trace) -> Self {
        let mut map = IdHashMap::default();
        cosched_workload::pairing::validate_pairing_with(a, b, |machine, job, mate| {
            map.insert((machine, job), mate);
        })
        .unwrap_or_else(|e| panic!("invalid pairing: {e}"));
        MateRegistry { map }
    }

    /// Register one pair explicitly (both directions).
    pub fn insert_pair(&mut self, a: (MachineId, JobId), b: (MachineId, JobId)) {
        self.link(a, b);
        self.link(b, a);
    }

    /// Record `mate` as the mate of `job`, in this direction only. The k-way
    /// engine links each group member to the next one, in a ring.
    pub(crate) fn link(&mut self, job: (MachineId, JobId), mate: (MachineId, JobId)) {
        let (machine, id) = mate;
        self.map.insert(job, MateRef { machine, job: id });
    }

    /// The mate of `job` on `machine`, if any.
    pub fn mate_of(&self, machine: MachineId, job: JobId) -> Option<MateRef> {
        self.map.get(&(machine, job)).copied()
    }

    /// Iterate over all pairs once (machine-0-first orientation not
    /// guaranteed; each pair appears exactly once, keyed by its
    /// lexicographically smaller endpoint).
    pub fn pairs(&self) -> impl Iterator<Item = ((MachineId, JobId), MateRef)> + '_ {
        self.map
            .iter()
            .filter(|(&(m, j), mate)| (m, j) < (mate.machine, mate.job))
            .map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_sim::{SimDuration, SimTime};
    use cosched_workload::{pairing, Job};

    fn mk(machine: usize, id: u64, submit: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(machine),
            SimTime::from_secs(submit),
            4,
            SimDuration::from_secs(600),
            SimDuration::from_secs(1200),
        )
    }

    fn paired_traces() -> (Trace, Trace) {
        let mut a = Trace::from_jobs(MachineId(0), vec![mk(0, 1, 0), mk(0, 2, 500)]);
        let mut b = Trace::from_jobs(MachineId(1), vec![mk(1, 1, 30), mk(1, 2, 5_000)]);
        pairing::pair_by_window(&mut a, &mut b, SimDuration::from_mins(2));
        (a, b)
    }

    #[test]
    fn builds_from_traces() {
        let (a, b) = paired_traces();
        let reg = MateRegistry::from_traces(&a, &b);
        assert_eq!(reg.pairs().count(), 1);
        let mate = reg.mate_of(MachineId(0), JobId(1)).unwrap();
        assert_eq!(
            mate,
            MateRef {
                machine: MachineId(1),
                job: JobId(1)
            }
        );
        let back = reg.mate_of(MachineId(1), JobId(1)).unwrap();
        assert_eq!(
            back,
            MateRef {
                machine: MachineId(0),
                job: JobId(1)
            }
        );
        assert_eq!(reg.mate_of(MachineId(0), JobId(2)), None);
    }

    #[test]
    #[should_panic(expected = "invalid pairing")]
    fn rejects_asymmetric_traces() {
        let (mut a, b) = paired_traces();
        // Corrupt: point job 2 at a job that doesn't reciprocate.
        a.jobs_mut()[1].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(2),
        });
        MateRegistry::from_traces(&a, &b);
    }

    #[test]
    fn insert_pair_is_bidirectional() {
        let mut reg = MateRegistry::new();
        reg.insert_pair((MachineId(0), JobId(7)), (MachineId(1), JobId(9)));
        assert_eq!(reg.pairs().count(), 1);
        assert_eq!(
            reg.mate_of(MachineId(1), JobId(9)),
            Some(MateRef {
                machine: MachineId(0),
                job: JobId(7)
            })
        );
    }

    #[test]
    fn pairs_iterates_each_once() {
        let mut reg = MateRegistry::new();
        reg.insert_pair((MachineId(0), JobId(1)), (MachineId(1), JobId(2)));
        reg.insert_pair((MachineId(0), JobId(3)), (MachineId(1), JobId(4)));
        let pairs: Vec<_> = reg.pairs().collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn empty_registry() {
        let reg = MateRegistry::new();
        assert_eq!(reg.pairs().count(), 0);
        assert_eq!(reg.mate_of(MachineId(0), JobId(1)), None);
    }
}
