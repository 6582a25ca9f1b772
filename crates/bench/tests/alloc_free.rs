//! Allocation-freeness of the scheduler hot paths, asserted with a
//! counting global allocator.
//!
//! The campaign runner executes millions of scheduling iterations per
//! sweep; the optimization work (a queue kept in policy order across
//! iterations, incrementally sorted release list, buddy order bitmask)
//! only pays off if the
//! steady-state paths stay off the allocator entirely. These tests pin
//! that: after a warm-up call to size the reusable buffers, the hot
//! paths must perform **zero** heap allocations.
//!
//! The counters are thread-local so concurrently running test threads
//! cannot pollute each other's counts; dealloc is deliberately not
//! counted (dropping a warm buffer is fine — growing one is not). Bytes
//! are counted as requested: an allocation's size, a reallocation's new
//! size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use cosched_metrics::JobRecord;
use cosched_sched::alloc::{BuddyAllocator, FlatAllocator};
use cosched_sched::backfill::{compute_shadow_sorted, ProjectedRelease};
use cosched_sched::policy::{sort_keys, OrderKey};
use cosched_sched::{Machine, MachineConfig, NodeAllocator, PolicyKind};
use cosched_sim::{EventQueue, SimDuration, SimTime};
use cosched_workload::{Job, JobId, MachineId};

struct CountingAlloc;

thread_local! {
    // `const` init: reading the counter never lazily allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (alloc + realloc) performed by `f` on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

/// Bytes requested by `f`'s allocations and reallocations on this thread.
fn count_bytes(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(|c| c.get());
    f();
    BYTES.with(|c| c.get()) - before
}

fn queue_jobs(n: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::new(
                JobId(i),
                MachineId(0),
                SimTime::from_secs(i * 11 % 7_200),
                64 << (i % 4),
                SimDuration::from_secs(600 + (i % 7) * 300),
                SimDuration::from_secs(3_600),
            )
        })
        .collect()
}

#[test]
fn counter_counts() {
    let n = count_allocs(|| {
        black_box(vec![0u64; 32]);
    });
    assert!(n > 0, "counting allocator must observe Vec allocation");
}

#[test]
fn sort_keys_is_allocation_free() {
    let jobs = queue_jobs(128);
    let keys_at = |now: u64| -> Vec<OrderKey> {
        (0u32..)
            .zip(&jobs)
            .map(|(slot, j)| {
                let now = SimTime::from_secs(now);
                OrderKey::new(PolicyKind::Wfp, now, j, 0.0, false, slot)
            })
            .collect()
    };
    let (mut keys, later) = (keys_at(7_200), keys_at(86_400));
    let n = count_allocs(|| {
        for _ in 0..16 {
            keys.copy_from_slice(&later);
            keys.reverse();
            sort_keys(&mut keys);
            black_box(keys[0].slot);
        }
    });
    assert_eq!(n, 0, "queue ordering must not allocate");
}

#[test]
fn compute_shadow_sorted_is_allocation_free() {
    let mut releases: Vec<ProjectedRelease> = (0..64u64)
        .map(|i| ProjectedRelease {
            end: SimTime::from_secs(100 + i * 37),
            nodes: 512 << (i % 3),
        })
        .collect();
    releases.sort_by_key(|r| (r.end, r.nodes));
    let head = releases.iter().map(|r| r.nodes).sum::<u64>() - 512;
    let n = count_allocs(|| {
        for _ in 0..16 {
            black_box(compute_shadow_sorted(head, 0, releases.iter().copied()).time);
            // Head fits now: early return before the walk.
            black_box(compute_shadow_sorted(512, 2_048, releases.iter().copied()).spare);
            // No projected releases: head is blocked indefinitely.
            black_box(compute_shadow_sorted(512, 0, std::iter::empty()).time);
        }
    });
    assert_eq!(
        n, 0,
        "sorted shadow walk and its fast paths must not allocate"
    );
}

#[test]
fn buddy_can_fit_is_allocation_free() {
    let mut a = BuddyAllocator::new(40_960, 512);
    let _held: Vec<_> = (0..10u64).filter_map(|i| a.alloc(512 << (i % 4))).collect();
    let n = count_allocs(|| {
        for _ in 0..64 {
            let mut fits = 0u32;
            for size in [512u64, 1_024, 4_096, 16_384, 32_768, 40_960] {
                fits += a.can_fit(size) as u32;
            }
            black_box((fits, a.largest_fit(), a.free_nodes()));
        }
    });
    assert_eq!(n, 0, "buddy admission checks must not allocate");
}

/// Allocate a mixed batch, then release it out of order: the shape of a
/// machine's starts and finishes.
fn alloc_release_cycle(a: &mut dyn NodeAllocator, sizes: &[u64]) {
    let mut handles = [None; 16];
    for (slot, &size) in handles.iter_mut().zip(sizes) {
        *slot = a.alloc(size);
    }
    for i in [3, 0, 7, 1, 6, 2, 5, 4, 11, 8, 15, 9, 14, 10, 13, 12] {
        if let Some(h) = handles[i].take() {
            a.release(h);
        }
    }
}

/// Both allocators keep live allocations in a slab whose released slots are
/// reused, so once one cycle has sized it, alloc/release allocates nothing.
#[test]
fn allocator_cycles_are_allocation_free_after_warmup() {
    let flat_sizes: Vec<u64> = (0..16).map(|i| 1 + i * 5 % 11).collect();
    let buddy_sizes: Vec<u64> = (0..16).map(|i| 512 << (i % 4)).collect();
    let mut flat = FlatAllocator::new(100);
    let mut buddy = BuddyAllocator::new(40_960, 512);
    alloc_release_cycle(&mut flat, &flat_sizes);
    alloc_release_cycle(&mut buddy, &buddy_sizes);
    let n = count_allocs(|| {
        for _ in 0..64 {
            alloc_release_cycle(&mut flat, &flat_sizes);
            alloc_release_cycle(&mut buddy, &buddy_sizes);
        }
    });
    assert_eq!(n, 0, "steady alloc/release cycles must not allocate");
    assert_eq!((flat.free_nodes(), buddy.free_nodes()), (100, 40_960));
}

/// A steady event population (each pop schedules a successor, as a job end
/// is followed by the next start) never grows the queue once it is warm:
/// the heap holds its high-water capacity.
#[test]
fn event_queue_steady_push_pop_is_allocation_free_after_warmup() {
    let mut q = EventQueue::new();
    for i in 0..256u64 {
        q.push(SimTime::from_secs(i * 37 % 1_000), i);
    }
    let step = |q: &mut EventQueue<u64>| {
        let ev = q.pop().expect("population is steady");
        q.push(
            ev.time + SimDuration::from_secs(1 + ev.event % 500),
            ev.event,
        );
    };
    for _ in 0..1_000 {
        step(&mut q);
    }
    let n = count_allocs(|| {
        for _ in 0..10_000 {
            step(&mut q);
            black_box(q.peek_time());
        }
    });
    assert_eq!(n, 0, "steady-state push/pop must not allocate");
    assert_eq!(q.len(), 256);
}

/// The full per-iteration scheduler path on a machine with a running job
/// and a blocked head: `begin_iteration` + `pick_next` re-scores the
/// queue (scratch reuse), walks the incrementally sorted release list
/// for the head reservation, and probes the allocator — all without
/// touching the heap once the reusable buffers are warm.
#[test]
fn machine_blocked_iteration_is_allocation_free_after_warmup() {
    let mut config = MachineConfig::flat("m", MachineId(0), 100);
    config.policy = PolicyKind::Wfp;
    let mut machine = Machine::new(config);
    let t0 = SimTime::ZERO;

    // One running job holding most of the machine…
    machine.submit(
        Job::new(
            JobId(0),
            MachineId(0),
            t0,
            60,
            SimDuration::from_secs(36_000),
            SimDuration::from_secs(43_200),
        ),
        t0,
    );
    machine.begin_iteration();
    let cand = machine
        .pick_next(t0)
        .expect("first job fits an empty machine");
    machine.start(cand, t0);

    // …and queued jobs too large to fit or backfill behind it.
    for (i, size) in [(1u64, 80u64), (2, 90), (3, 95)] {
        machine.submit(
            Job::new(
                JobId(i),
                MachineId(0),
                t0,
                size,
                SimDuration::from_secs(7_200),
                SimDuration::from_secs(10_800),
            ),
            t0,
        );
    }

    let now = SimTime::from_secs(60);
    // Warm-up iteration sizes the order scratch and iteration buffers.
    machine.begin_iteration();
    assert!(machine.pick_next(now).is_none(), "queue must stay blocked");

    let n = count_allocs(|| {
        for _ in 0..16 {
            machine.begin_iteration();
            assert!(machine.pick_next(now).is_none());
        }
    });
    assert_eq!(
        n, 0,
        "steady-state blocked scheduling iteration must not allocate"
    );
}

/// The re-sort path of the persisted queue order: a blocked machine whose
/// WFP scores cross as `now` advances, so iterations re-sort the queue
/// kept from the previous one. Still no heap traffic once warm.
#[test]
fn machine_resorting_iteration_is_allocation_free_after_warmup() {
    let mut config = MachineConfig::flat("m", MachineId(0), 100);
    config.policy = PolicyKind::Wfp;
    let mut machine = Machine::new(config);
    let t0 = SimTime::ZERO;
    let job = |id, submit, size, walltime| {
        let walltime = SimDuration::from_secs(walltime);
        Job::new(JobId(id), MachineId(0), submit, size, walltime, walltime)
    };
    machine.submit(job(0, t0, 60, 43_200), t0);
    machine.begin_iteration();
    let cand = machine.pick_next(t0).expect("fits an empty machine");
    machine.start(cand, t0);

    // A long job queued early and a short one queued late: the short job's
    // WFP score overtakes the long one's within minutes.
    let late = SimTime::from_secs(3_000);
    machine.submit(job(1, t0, 95, 36_000), late);
    machine.submit(job(2, late, 80, 600), late);
    let order = |m: &Machine| m.queued_jobs().collect::<Vec<_>>();

    let mut now = late + SimDuration::from_secs(1);
    machine.begin_iteration();
    assert!(machine.pick_next(now).is_none(), "queue must stay blocked");
    let before = order(&machine);
    assert_eq!(before, [JobId(1), JobId(2)], "long job leads at first");
    let n = count_allocs(|| {
        for _ in 0..16 {
            now += SimDuration::from_secs(40);
            machine.begin_iteration();
            assert!(machine.pick_next(now).is_none());
        }
    });
    assert_eq!(order(&machine), [JobId(2), JobId(1)], "scores crossed");
    assert_eq!(n, 0, "re-sorting scheduling iteration must not allocate");
}

/// A machine running a stream of jobs one after another (submit, pick,
/// start, finish) keeps only the live job in its table: the memory a job
/// leaves behind is its record and its id's map entry. After the first
/// cycles have sized the buffers, a submit-to-finish cycle allocates
/// nothing.
#[test]
fn machine_keeps_only_records_of_finished_jobs() {
    const JOBS: u64 = 10_000;
    let mut jobs = (0..JOBS).map(|i| {
        let runtime = SimDuration::from_secs(5);
        let submit = SimTime::from_secs(i * 10);
        Job::new(JobId(i), MachineId(0), submit, 10, runtime, runtime)
    });
    let mut cycle = |machine: &mut Machine| {
        let job = jobs.next().expect("a job per cycle");
        let (id, now) = (job.id, job.submit);
        machine.submit(job, now);
        machine.begin_iteration();
        let cand = machine.pick_next(now).expect("fits an empty machine");
        let end = machine.start(cand, now);
        machine.finish(id, end);
    };
    let mut steady = u64::MAX;
    let mut records = 0;
    let bytes = count_bytes(|| {
        let mut machine = Machine::new(MachineConfig::flat("m", MachineId(0), 100));
        machine.reserve(JOBS as usize);
        for _ in 0..2 {
            cycle(&mut machine);
        }
        steady = count_allocs(|| {
            for _ in 2..JOBS {
                cycle(&mut machine);
            }
        });
        records = machine.records().len();
    });
    assert_eq!(records, JOBS as usize);
    assert_eq!(steady, 0, "a warm submit-to-finish cycle must not allocate");
    let per_job = bytes / JOBS;
    let bound = (std::mem::size_of::<JobRecord>() + 48) as u64;
    assert!(per_job < bound, "{per_job} bytes per job, bound {bound}");
}
