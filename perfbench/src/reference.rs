//! The reference simulation: a fixed piece of scheduling work, independent
//! of the repository's crates, that the untraced run times beside every
//! trace set to read how fast the machine is at that moment.
//!
//! The machine is shared, and other work on it slows this process by up to
//! a factor of two for minutes at a time, cache- and memory-bound code most.
//! Thread CPU time slows just as much, so it cannot tell the two apart. The
//! reference simulation is code of the same kind as the simulator (an event
//! heap, a FCFS queue with EASY backfilling, a sorted list of running
//! jobs), so it slows by about the same factor. Dividing each measured time
//! by the median reference time of the few seconds around it, and
//! multiplying by [`REFERENCE_MS`], gives the time the work would take on
//! the machine in a quiet phase. Nothing here may change once a baseline has been measured:
//! it is the yardstick, not the code under test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The reference simulation's wall time on the 2-core benchmark machine in
/// a quiet phase, in milliseconds. Scaled times are quoted at this speed.
pub const REFERENCE_MS: f64 = 3.5;

const NODES: u64 = 1024;
const JOBS: usize = 3000;

struct Job {
    submit: u64,
    size: u64,
    runtime: u64,
    estimate: u64,
}

/// The fixed job stream: xorshift draws from a constant seed.
fn jobs() -> Vec<Job> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut submit = 0;
    (0..JOBS)
        .map(|_| {
            submit += next() % 600;
            let runtime = 60 + next() % 20_000;
            Job {
                submit,
                size: 1 << (next() % 9),
                runtime,
                estimate: runtime + next() % 10_000,
            }
        })
        .collect()
}

/// FCFS with EASY backfilling on one machine of [`NODES`] nodes. Returns
/// how many jobs started and the sum of their waits.
fn simulate(jobs: &[Job]) -> (usize, u64) {
    // (time, kind, job); kind 0 is an end, 1 a submission, so ends at an
    // instant free their nodes before that instant's submissions.
    let mut events: BinaryHeap<Reverse<(u64, u8, usize)>> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| Reverse((job.submit, 1, i)))
        .collect();
    let mut free = NODES;
    let mut queue: Vec<usize> = Vec::new();
    // Running jobs as (estimated end, size, job), sorted by estimated end.
    let mut running: Vec<(u64, u64, usize)> = Vec::new();
    let (mut started, mut waits) = (0, 0);
    while let Some(Reverse((now, kind, i))) = events.pop() {
        if kind == 0 {
            free += jobs[i].size;
            let at = running
                .iter()
                .position(|r| r.2 == i)
                .expect("job is running");
            running.remove(at);
        } else {
            queue.push(i);
        }
        // The blocked head's reservation: when it can start, and how many
        // nodes are left over for backfilled jobs that outlast it.
        let mut shadow: Option<(u64, u64)> = None;
        let mut k = 0;
        while k < queue.len() {
            let job = &jobs[queue[k]];
            let fits = job.size <= free;
            let starts = match shadow {
                None => fits,
                Some((end, extra)) => fits && (now + job.estimate <= end || job.size <= extra),
            };
            if starts {
                let id = queue.remove(k);
                free -= job.size;
                started += 1;
                waits += now - job.submit;
                let end = now + job.estimate;
                let at = running.partition_point(|r| r.0 <= end);
                running.insert(at, (end, job.size, id));
                events.push(Reverse((now + job.runtime, 0, id)));
                if let Some((_, extra)) = shadow.as_mut() {
                    *extra = extra.saturating_sub(job.size);
                }
            } else {
                if shadow.is_none() {
                    let (mut avail, mut end) = (free, now);
                    for r in &running {
                        if avail >= job.size {
                            break;
                        }
                        avail += r.1;
                        end = r.0;
                    }
                    shadow = Some((end, avail - job.size));
                }
                k += 1;
            }
        }
    }
    (started, waits)
}

/// Run the reference simulation once; its wall time in milliseconds.
pub fn run_ms() -> f64 {
    let t0 = Instant::now();
    let jobs = jobs();
    std::hint::black_box(simulate(std::hint::black_box(&jobs)));
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_starts_every_job_the_same_way() {
        let jobs = jobs();
        let first = simulate(&jobs);
        assert_eq!(first.0, JOBS, "every job fits the machine and starts");
        assert!(first.1 > 0, "the stream is dense enough that jobs wait");
        assert_eq!(simulate(&jobs), first, "the reference is deterministic");
        assert!(run_ms() > 0.0);
    }
}
