//! Node allocators.
//!
//! Two allocation disciplines cover the coupled systems the paper evaluates:
//!
//! * [`FlatAllocator`] — nodes are interchangeable; a request for *n* nodes
//!   succeeds whenever *n* nodes are free. Models Eureka and ordinary
//!   clusters.
//! * [`BuddyAllocator`] — Blue Gene/P partition allocation. Intrepid
//!   allocates jobs onto power-of-two blocks of *midplanes* (512 nodes
//!   each); a 2,048-node job needs an *aligned* free block of 4 midplanes,
//!   not just any 4 free midplanes. The buddy discipline reproduces the
//!   external fragmentation that makes held partitions disproportionately
//!   harmful on the big machine (visible in the Fig. 6 service-unit losses).
//!
//! Allocators hand out opaque [`AllocHandle`]s; the machine stores the
//! handle with the job and returns it on release. Each allocator keeps its
//! live allocations in a generation-checked slab: a handle names a slab slot
//! and the generation the slot had when it was handed out, a released slot
//! is reused by a later allocation under the next generation, and releasing
//! a handle whose generation no longer matches (a double release, or a stale
//! handle whose slot was reused) panics — an allocation bug should stop the
//! simulation, not corrupt utilization accounting.

use serde::{Deserialize, Serialize};
use std::num::NonZeroU64;

/// Opaque token representing one live allocation: a slab slot in the low 32
/// bits and that slot's generation (never zero) in the high 32, so
/// `Option<AllocHandle>` is as small as the handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocHandle(NonZeroU64);

impl AllocHandle {
    fn new(slot: u32, generation: u32) -> Self {
        let packed = u64::from(generation) << 32 | u64::from(slot);
        AllocHandle(NonZeroU64::new(packed).expect("generations start at 1"))
    }

    fn slot(self) -> usize {
        (self.0.get() & u64::from(u32::MAX)) as usize
    }

    fn generation(self) -> u32 {
        (self.0.get() >> 32) as u32
    }
}

/// One slab slot: the generation its next (or current) handle carries, and
/// the allocation while it is live.
#[derive(Debug)]
struct SlabEntry<T> {
    generation: u32,
    value: Option<T>,
}

/// Live allocations indexed by handle slot. Released slots go on a free list
/// and are reused, so a steady alloc/release cycle allocates no memory.
#[derive(Debug)]
struct Slab<T> {
    entries: Vec<SlabEntry<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// File `value` in a free slot (or a new one) and hand out its handle.
    fn insert(&mut self, value: T) -> AllocHandle {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.entries.len()).expect("allocation slab overflow");
                self.entries.push(SlabEntry {
                    generation: 1,
                    value: None,
                });
                slot
            }
        };
        let entry = &mut self.entries[slot as usize];
        entry.value = Some(value);
        AllocHandle::new(slot, entry.generation)
    }

    /// Take the allocation `handle` names and free its slot under the next
    /// generation.
    ///
    /// # Panics
    /// Panics if `handle` is not live: released already, or its slot was
    /// reused since.
    fn remove(&mut self, handle: AllocHandle) -> T {
        let slot = handle.slot();
        let entry = self.entries.get_mut(slot);
        let entry = entry.filter(|e| e.generation == handle.generation() && e.value.is_some());
        let Some(entry) = entry else {
            panic!("release of non-live handle {handle:?}");
        };
        // Generation 0 is reserved so that a packed handle is never zero.
        entry.generation = entry.generation.checked_add(1).unwrap_or(1);
        self.free.push(slot as u32);
        entry.value.take().expect("checked live above")
    }

    /// Number of live allocations.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

/// Which allocator a machine uses (serializable configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// Interchangeable nodes.
    Flat,
    /// Buddy partition allocation in units of `unit` nodes (512 = a Blue
    /// Gene/P midplane).
    Buddy {
        /// Nodes per allocatable unit (partition granularity).
        unit: u64,
    },
}

impl AllocatorKind {
    /// Instantiate an allocator of this kind over `capacity` nodes.
    pub fn build(self, capacity: u64) -> Box<dyn NodeAllocator> {
        match self {
            AllocatorKind::Flat => Box::new(FlatAllocator::new(capacity)),
            AllocatorKind::Buddy { unit } => Box::new(BuddyAllocator::new(capacity, unit)),
        }
    }
}

/// Abstract node allocator. All sizes are in nodes.
///
/// The scheduler computes each job's [`NodeAllocator::charged_nodes`] once,
/// at submit, and rejects a request whose charge exceeds the free count
/// before asking [`NodeAllocator::can_fit`]. Every implementation must
/// therefore keep two promises: `charged_nodes` depends on `size` alone,
/// and `can_fit(size)` implies `charged_nodes(size) <= free_nodes()`.
pub trait NodeAllocator: Send {
    /// Total schedulable nodes.
    fn capacity(&self) -> u64;

    /// Nodes not currently allocated. For partitioned allocators this counts
    /// raw free nodes, some of which may be unusable for a given request due
    /// to fragmentation — use [`NodeAllocator::can_fit`] for admission.
    fn free_nodes(&self) -> u64;

    /// Whether a request for `size` nodes could be satisfied right now.
    fn can_fit(&self, size: u64) -> bool;

    /// Allocate `size` nodes. Returns `None` if the request cannot be
    /// satisfied (insufficient or too fragmented).
    fn alloc(&mut self, size: u64) -> Option<AllocHandle>;

    /// Release a prior allocation.
    ///
    /// # Panics
    /// Panics on a handle that is not live: a double release, a stale handle
    /// whose slot a later allocation reuses, or a foreign handle.
    fn release(&mut self, handle: AllocHandle);

    /// Nodes consumed by a hypothetical allocation of `size` (≥ `size` for
    /// partitioned allocators that round up).
    fn charged_nodes(&self, size: u64) -> u64;
}

/// Interchangeable-node allocator.
#[derive(Debug)]
pub struct FlatAllocator {
    capacity: u64,
    free: u64,
    /// Live allocations' sizes.
    live: Slab<u64>,
}

impl FlatAllocator {
    /// A flat pool of `capacity` nodes.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        FlatAllocator {
            capacity,
            free: capacity,
            live: Slab::new(),
        }
    }
}

impl NodeAllocator for FlatAllocator {
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn free_nodes(&self) -> u64 {
        self.free
    }
    fn can_fit(&self, size: u64) -> bool {
        size > 0 && size <= self.free
    }
    fn alloc(&mut self, size: u64) -> Option<AllocHandle> {
        if !self.can_fit(size) {
            return None;
        }
        self.free -= size;
        Some(self.live.insert(size))
    }
    fn release(&mut self, handle: AllocHandle) {
        let size = self.live.remove(handle);
        self.free += size;
        debug_assert!(self.free <= self.capacity);
    }
    fn charged_nodes(&self, size: u64) -> u64 {
        size
    }
}

/// Buddy partition allocator.
///
/// The machine is modelled as `ceil(capacity/unit)` allocatable units
/// arranged as the leaves of a binary buddy tree (padded up to the next
/// power of two; pad units are permanently reserved). A request for `s`
/// nodes is rounded up to `2^k` units and served by splitting the smallest
/// free block of order ≥ k. Freed blocks coalesce with their buddies.
#[derive(Debug)]
pub struct BuddyAllocator {
    capacity: u64,
    unit: u64,
    /// log2 of the padded leaf count.
    max_order: u32,
    /// `free_blocks[k]` = sorted list of free block indices of order `k`
    /// (block index is in units of `2^k` leaves). Sorted so allocation is
    /// deterministic (lowest address first).
    free_blocks: Vec<Vec<u64>>,
    /// Live allocations' `(order, block index)`, the permanently reserved
    /// padding units included.
    live: Slab<(u32, u64)>,
    free_units: u64,
    /// Bit `k` set ⇔ `free_blocks[k]` is non-empty. Lets [`Self::can_fit`]
    /// and the carve search answer "any free block of order ≥ k?" in O(1)
    /// instead of scanning the per-order lists. Maintained exclusively by
    /// [`Self::list_insert`] / [`Self::list_remove_at`].
    order_mask: u64,
}

impl BuddyAllocator {
    /// Build over `capacity` nodes with `unit` nodes per allocatable unit.
    ///
    /// # Panics
    /// Panics if `unit` is zero or exceeds `capacity`.
    pub fn new(capacity: u64, unit: u64) -> Self {
        assert!(
            unit > 0 && unit <= capacity,
            "bad unit {unit} for capacity {capacity}"
        );
        let total_units = capacity.div_ceil(unit);
        let padded = total_units.next_power_of_two();
        let max_order = padded.trailing_zeros();
        let mut alloc = BuddyAllocator {
            capacity,
            unit,
            max_order,
            free_blocks: vec![Vec::new(); (max_order + 1) as usize],
            live: Slab::new(),
            free_units: padded,
            order_mask: 0,
        };
        alloc.list_insert(max_order, 0);
        // Permanently reserve the padding units (one unit at a time keeps
        // the real units maximally coalescible).
        for _ in total_units..padded {
            // Padding is never released: its slab entries stay live and its
            // handles are dropped.
            alloc
                .alloc_units_highest(1)
                .expect("padding reservation must succeed");
        }
        alloc.free_units = total_units.min(alloc.free_units);
        alloc
    }

    fn order_for_units(&self, units: u64) -> Option<u32> {
        if units == 0 {
            return None;
        }
        let order = units.next_power_of_two().trailing_zeros();
        (order <= self.max_order).then_some(order)
    }

    fn units_for_size(&self, size: u64) -> u64 {
        size.div_ceil(self.unit)
    }

    /// File `block` in the order-`k` free list at its sorted position,
    /// keeping the non-empty bitmask in step.
    fn list_insert(&mut self, order: u32, block: u64) {
        let list = &mut self.free_blocks[order as usize];
        let pos = list.partition_point(|&b| b < block);
        list.insert(pos, block);
        self.order_mask |= 1 << order;
    }

    /// Take the block at `pos` out of the order-`k` free list, clearing the
    /// bitmask bit if the list drains.
    fn list_remove_at(&mut self, order: u32, pos: usize) -> u64 {
        let list = &mut self.free_blocks[order as usize];
        let block = list.remove(pos);
        if list.is_empty() {
            self.order_mask &= !(1 << order);
        }
        block
    }

    /// Smallest order ≥ `order` with a free block, from the bitmask (O(1)).
    fn first_free_order(&self, order: u32) -> Option<u32> {
        let above = self.order_mask >> order;
        (above != 0).then(|| order + above.trailing_zeros())
    }

    /// Split down from the smallest free block ≥ `order`, taking the
    /// lowest-addressed candidate (deterministic).
    fn carve(&mut self, order: u32) -> Option<u64> {
        let mut k = self.first_free_order(order)?;
        // Lowest-address block of order k (lists kept sorted).
        let mut block = self.list_remove_at(k, 0);
        while k > order {
            k -= 1;
            // Split: keep the low half, free the high half at order k.
            block *= 2;
            self.list_insert(k, block + 1);
        }
        Some(block)
    }

    fn alloc_units(&mut self, units: u64) -> Option<AllocHandle> {
        let order = self.order_for_units(units)?;
        let block = self.carve(order)?;
        self.free_units -= 1u64 << order;
        Some(self.live.insert((order, block)))
    }

    /// Like `alloc_units` but preferring the highest-addressed block, used
    /// only to pin the padding at the top of the address space.
    fn alloc_units_highest(&mut self, units: u64) -> Option<AllocHandle> {
        let order = self.order_for_units(units)?;
        let mut k = self.first_free_order(order)?;
        let last = self.free_blocks[k as usize].len() - 1;
        let mut block = self.list_remove_at(k, last);
        while k > order {
            k -= 1;
            // Keep the HIGH half, free the low half.
            block = block * 2 + 1;
            self.list_insert(k, block - 1);
        }
        self.free_units -= 1u64 << order;
        Some(self.live.insert((order, block)))
    }

    fn coalesce(&mut self, mut order: u32, mut block: u64) {
        loop {
            if order == self.max_order {
                break;
            }
            let buddy = block ^ 1;
            match self.free_blocks[order as usize].binary_search(&buddy) {
                Ok(pos) => {
                    self.list_remove_at(order, pos);
                    block /= 2;
                    order += 1;
                }
                Err(_) => break,
            }
        }
        self.list_insert(order, block);
    }

    /// Largest request (in nodes) that could currently be satisfied.
    pub fn largest_fit(&self) -> u64 {
        if self.order_mask == 0 {
            return 0;
        }
        let k = 63 - self.order_mask.leading_zeros();
        (1u64 << k) * self.unit
    }
}

impl NodeAllocator for BuddyAllocator {
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn free_nodes(&self) -> u64 {
        self.free_units * self.unit
    }
    fn can_fit(&self, size: u64) -> bool {
        if size == 0 || size > self.capacity {
            return false;
        }
        let units = self.units_for_size(size);
        match self.order_for_units(units) {
            // O(1) fit check: a block of `order` takes 2^order units, so the
            // raw free count rejects most misses immediately; otherwise the
            // non-empty bitmask answers whether an aligned block of order
            // ≥ `order` exists, with no per-order list scan.
            Some(order) => (1u64 << order) <= self.free_units && (self.order_mask >> order) != 0,
            None => false,
        }
    }
    fn alloc(&mut self, size: u64) -> Option<AllocHandle> {
        if size == 0 || size > self.capacity {
            return None;
        }
        let units = self.units_for_size(size);
        self.alloc_units(units)
    }
    fn release(&mut self, handle: AllocHandle) {
        let (order, block) = self.live.remove(handle);
        self.free_units += 1u64 << order;
        self.coalesce(order, block);
    }
    fn charged_nodes(&self, size: u64) -> u64 {
        let units = self.units_for_size(size);
        units.next_power_of_two() * self.unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_alloc_release_cycle() {
        let mut a = FlatAllocator::new(100);
        assert_eq!(a.capacity(), 100);
        assert_eq!(a.free_nodes(), 100);
        let h1 = a.alloc(60).unwrap();
        assert_eq!(a.free_nodes(), 40);
        assert!(a.can_fit(40));
        assert!(!a.can_fit(41));
        assert!(a.alloc(41).is_none());
        a.release(h1);
        assert_eq!(a.free_nodes(), 100);
    }

    #[test]
    fn flat_rejects_zero_request() {
        let mut a = FlatAllocator::new(10);
        assert!(!a.can_fit(0));
        assert!(a.alloc(0).is_none());
    }

    #[test]
    #[should_panic(expected = "non-live handle")]
    fn flat_double_release_panics() {
        let mut a = FlatAllocator::new(10);
        let h = a.alloc(5).unwrap();
        a.release(h);
        a.release(h);
    }

    #[test]
    fn flat_charges_exact() {
        let a = FlatAllocator::new(10);
        assert_eq!(a.charged_nodes(7), 7);
    }

    #[test]
    fn buddy_full_machine_allocation() {
        // 8 units of 512 = 4096 nodes, power of two: no padding.
        let mut b = BuddyAllocator::new(4096, 512);
        assert_eq!(b.free_nodes(), 4096);
        let h = b.alloc(4096).unwrap();
        assert_eq!(b.free_nodes(), 0);
        assert!(!b.can_fit(512));
        b.release(h);
        assert_eq!(b.free_nodes(), 4096);
        assert!(b.can_fit(4096)); // coalesced back to one block
    }

    #[test]
    fn buddy_rounds_requests_up() {
        let mut b = BuddyAllocator::new(4096, 512);
        // 600 nodes → 2 units (1024 nodes charged).
        assert_eq!(b.charged_nodes(600), 1024);
        let _h = b.alloc(600).unwrap();
        assert_eq!(b.free_nodes(), 4096 - 1024);
    }

    #[test]
    fn buddy_alignment_fragmentation() {
        // 4 units. Allocate two 1-unit blocks, release the first: free units
        // = 3 but no aligned 2-unit block spanning units 1-2 exists... buddy
        // layout: after carving, unit 0 and unit 1 are allocated; release
        // unit 0 → free = {0}, {2,3} as a 2-block. A 2-unit request must use
        // the {2,3} block, leaving unit 0 unusable for it.
        let mut b = BuddyAllocator::new(2048, 512);
        let h0 = b.alloc(512).unwrap();
        let _h1 = b.alloc(512).unwrap();
        let h2 = b.alloc(1024).unwrap(); // takes units 2-3
        b.release(h0);
        assert_eq!(b.free_nodes(), 512);
        assert!(b.can_fit(512));
        assert!(!b.can_fit(1024), "fragmented: no aligned pair free");
        b.release(h2);
        assert!(b.can_fit(1024));
    }

    #[test]
    fn buddy_coalescing_restores_largest_block() {
        let mut b = BuddyAllocator::new(4096, 512);
        let hs: Vec<_> = (0..8).map(|_| b.alloc(512).unwrap()).collect();
        assert_eq!(b.free_nodes(), 0);
        for h in hs {
            b.release(h);
        }
        assert_eq!(b.largest_fit(), 4096);
    }

    #[test]
    fn buddy_non_power_of_two_capacity_pads() {
        // Intrepid: 40,960 nodes = 80 midplanes; padded tree has 128 leaves,
        // 48 permanently reserved.
        let b = BuddyAllocator::new(40_960, 512);
        assert_eq!(b.capacity(), 40_960);
        assert_eq!(b.free_nodes(), 40_960);
        assert!(b.can_fit(32_768)); // 64 aligned units exist below the pad
        assert!(!b.can_fit(40_960)); // 80 units is not a power-of-two block
    }

    #[test]
    fn buddy_intrepid_job_mix() {
        let mut b = BuddyAllocator::new(40_960, 512);
        let sizes = [512u64, 1024, 2048, 4096, 8192, 16384];
        let mut handles = Vec::new();
        for &s in &sizes {
            handles.push(b.alloc(s).expect("fits"));
        }
        let used: u64 = sizes.iter().sum();
        assert_eq!(b.free_nodes(), 40_960 - used);
        // 32768-job cannot fit alongside 32256 used nodes...
        assert!(!b.can_fit(32_768));
        for h in handles {
            b.release(h);
        }
        assert!(b.can_fit(32_768));
        assert_eq!(b.free_nodes(), 40_960);
    }

    #[test]
    fn buddy_determinism_lowest_address_first() {
        let mut a = BuddyAllocator::new(4096, 512);
        let mut b = BuddyAllocator::new(4096, 512);
        // Same operation sequence → same internal free lists.
        let ha: Vec<_> = (0..4).map(|_| a.alloc(1024).unwrap()).collect();
        let hb: Vec<_> = (0..4).map(|_| b.alloc(1024).unwrap()).collect();
        a.release(ha[1]);
        b.release(hb[1]);
        assert_eq!(a.free_blocks, b.free_blocks);
    }

    #[test]
    fn buddy_rejects_oversize_and_zero() {
        let mut b = BuddyAllocator::new(2048, 512);
        assert!(!b.can_fit(0));
        assert!(b.alloc(0).is_none());
        assert!(!b.can_fit(4096));
        assert!(b.alloc(4096).is_none());
    }

    #[test]
    #[should_panic(expected = "non-live handle")]
    fn buddy_double_release_panics() {
        let mut b = BuddyAllocator::new(2048, 512);
        let h = b.alloc(512).unwrap();
        b.release(h);
        b.release(h);
    }

    #[test]
    fn handles_pack_into_eight_bytes() {
        assert_eq!(std::mem::size_of::<Option<AllocHandle>>(), 8);
    }

    #[test]
    fn released_slots_are_reused_under_a_new_generation() {
        let mut a = FlatAllocator::new(10);
        let h1 = a.alloc(4).unwrap();
        a.release(h1);
        let h2 = a.alloc(3).unwrap();
        assert_eq!(h2.slot(), h1.slot(), "the freed slot is reused");
        assert_ne!(h2, h1, "under a new generation");
        assert_eq!(a.live.len(), 1);
        a.release(h2);
        assert_eq!(a.free_nodes(), 10);
    }

    #[test]
    #[should_panic(expected = "non-live handle")]
    fn flat_release_of_a_handle_whose_slot_was_reused_panics() {
        let mut a = FlatAllocator::new(10);
        let old = a.alloc(5).unwrap();
        a.release(old);
        let _new = a.alloc(2).unwrap();
        a.release(old);
    }

    #[test]
    #[should_panic(expected = "non-live handle")]
    fn buddy_release_of_a_handle_whose_slot_was_reused_panics() {
        let mut b = BuddyAllocator::new(2048, 512);
        let old = b.alloc(512).unwrap();
        b.release(old);
        let new = b.alloc(1024).unwrap();
        assert_eq!(new.slot(), old.slot());
        b.release(old);
    }

    #[test]
    fn buddy_padding_handles_stay_live() {
        // Intrepid pads 80 midplanes to 128 leaves: 48 padding units, each a
        // live allocation for the allocator's whole life.
        let mut b = BuddyAllocator::new(40_960, 512);
        assert_eq!(b.live.len(), 48);
        let padding_slots = 0..48;
        let mut handles = Vec::new();
        for round in 0..3 {
            for _ in 0..80 {
                let h = b.alloc(512).expect("80 real midplanes");
                assert!(!padding_slots.contains(&h.slot()), "round {round}");
                handles.push(h);
            }
            assert!(b.alloc(512).is_none(), "padding is never handed out");
            for h in handles.drain(..) {
                b.release(h);
            }
            assert_eq!(b.live.len(), 48);
            assert_eq!(b.free_nodes(), 40_960);
        }
    }

    #[test]
    fn kind_builds_matching_allocator() {
        let f = AllocatorKind::Flat.build(100);
        assert_eq!(f.capacity(), 100);
        assert_eq!(f.charged_nodes(33), 33);
        let b = AllocatorKind::Buddy { unit: 512 }.build(40_960);
        assert_eq!(b.capacity(), 40_960);
        assert_eq!(b.charged_nodes(33), 512);
    }

    #[test]
    fn buddy_order_mask_tracks_free_lists() {
        // The O(1) fit check is only sound if the bitmask mirrors the
        // per-order lists through every split/coalesce path; drive a mixed
        // workload and cross-check after each operation.
        let check = |b: &BuddyAllocator| {
            for k in 0..=b.max_order {
                assert_eq!(
                    b.order_mask >> k & 1 == 1,
                    !b.free_blocks[k as usize].is_empty(),
                    "mask bit {k} disagrees with list"
                );
            }
            for size in [1u64, 512, 513, 1024, 4096, 8192] {
                let scan = size <= b.capacity
                    && b.order_for_units(b.units_for_size(size)).is_some_and(|o| {
                        (o..=b.max_order).any(|k| !b.free_blocks[k as usize].is_empty())
                    });
                assert_eq!(b.can_fit(size), scan, "can_fit({size}) diverges from scan");
            }
        };
        let mut b = BuddyAllocator::new(8192, 512);
        check(&b);
        let mut handles = Vec::new();
        for i in 0..100u64 {
            if i % 3 != 0 || handles.is_empty() {
                if let Some(h) = b.alloc(512 << (i % 4)) {
                    handles.push(h);
                }
            } else {
                let h = handles.remove((i as usize * 5) % handles.len());
                b.release(h);
            }
            check(&b);
        }
        for h in handles.drain(..) {
            b.release(h);
            check(&b);
        }
        assert_eq!(b.largest_fit(), 8192);
    }

    #[test]
    fn buddy_free_accounting_stays_consistent() {
        let mut b = BuddyAllocator::new(8192, 512);
        let mut handles = Vec::new();
        // Pseudo-random alloc/release pattern with a fixed sequence.
        for i in 0..200u64 {
            if i % 3 != 0 || handles.is_empty() {
                let size = 512 << (i % 4);
                if let Some(h) = b.alloc(size) {
                    handles.push(h);
                }
            } else {
                let h = handles.remove((i as usize * 7) % handles.len());
                b.release(h);
            }
            assert!(b.free_nodes() <= 8192);
        }
        for h in handles.drain(..) {
            b.release(h);
        }
        assert_eq!(b.free_nodes(), 8192);
        assert_eq!(b.largest_fit(), 8192);
    }
}
