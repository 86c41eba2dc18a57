//! Steady-state segment replay must never touch the heap.
//!
//! A whole-zoo sweep replays millions of tile segments; the PR that
//! introduced [`bitfusion_isa::SegmentProgram`] exists to make that replay
//! allocation-free (the previous walk dropped and reallocated a `BTreeMap`
//! inside every segment accumulator reset). This test pins the property
//! with a counting global allocator: once a program is compiled, replaying
//! it — any number of times, over any number of segments — performs zero
//! allocations and zero deallocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bitfusion_core::bitwidth::PairPrecision;
use bitfusion_isa::program::SegmentProgram;
use bitfusion_isa::walker::{summarize, BlockSummary};
use bitfusion_isa::{BlockBuilder, ComputeFn, InstructionBlock, Scratchpad};

/// Wraps the system allocator, counting every alloc/dealloc made by the
/// calling thread.
struct CountingAllocator;

// Per-thread counters: the test harness runs other tests (and its own
// bookkeeping) on other threads, and their heap traffic must not land in
// a measured window. Const-initialized `Cell`s need no allocation and no
// destructor, so touching them from inside the allocator is safe.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread may still free memory while it is torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// This thread's (allocations, deallocations) so far.
fn heap_events() -> (u64, u64) {
    (ALLOCS.with(Cell::get), DEALLOCS.with(Cell::get))
}

/// A deeply tiled block: two enumerated DMA loop levels over a DMA-free
/// compute nest, plus carried outer loads and a post-body store — every
/// replay code path (Repeat, RepeatEmit, carry-in, trailing emit) runs.
fn tiled_block(outer: u32, inner: u32) -> InstructionBlock {
    let pair = PairPrecision::from_bits(4, 2).unwrap();
    let mut b = BlockBuilder::new("alloc-free", pair);
    b.open_loop(outer).unwrap();
    b.ld_mem(Scratchpad::Ibuf, 4, 256).unwrap();
    b.open_loop(inner).unwrap();
    b.ld_mem(Scratchpad::Wbuf, 2, 64).unwrap();
    b.open_loop(16).unwrap();
    b.rd_buf(Scratchpad::Ibuf);
    b.rd_buf(Scratchpad::Wbuf);
    b.compute(ComputeFn::Mac);
    b.close_loop();
    b.wr_buf(Scratchpad::Obuf);
    b.close_loop();
    b.st_mem(Scratchpad::Obuf, 8, 64).unwrap();
    b.close_loop();
    b.finish(0).unwrap()
}

#[test]
fn steady_state_replay_performs_zero_heap_allocations() {
    let block = tiled_block(50, 40);
    let program = SegmentProgram::compile(&block);

    // Prime: one full replay outside the measured window, so anything lazy
    // (nothing today — this guards regressions) is already resident.
    let mut segments = 0u64;
    let mut merged = BlockSummary::default();
    program.replay(&mut |seg, _, _| {
        segments += 1;
        merged.merge(seg);
    });
    assert!(segments >= 50 * 40, "expected a long stream, got {segments}");
    assert_eq!(merged, summarize(&block), "segmentation invariant");

    // Measured steady state: three more replays, zero heap traffic.
    let (allocs_before, deallocs_before) = heap_events();
    let mut checksum = 0u64;
    for _ in 0..3 {
        program.replay(&mut |seg, load, store| {
            checksum = checksum
                .wrapping_add(seg.dynamic_instructions)
                .wrapping_add(load)
                .wrapping_add(store);
        });
    }
    let (allocs_after, deallocs_after) = heap_events();
    assert_ne!(checksum, 0, "replays visited segments");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state replay must not allocate"
    );
    assert_eq!(
        deallocs_after - deallocs_before,
        0,
        "steady-state replay must not free"
    );
}

#[test]
fn segment_accumulator_clear_and_merge_are_allocation_free() {
    // The old accumulator reset (`*cur = Segment::default()`) dropped a
    // BTreeMap per segment; the ComputeCounts representation makes clear()
    // a memset and merge() fixed array arithmetic. Pin that directly.
    let block = tiled_block(4, 4);
    let delta = summarize(&block);
    let mut acc = BlockSummary::default();
    let (a0, d0) = heap_events();
    for _ in 0..10_000 {
        acc.clear();
        acc.merge(&delta);
        std::hint::black_box(&acc);
    }
    let (a1, d1) = heap_events();
    assert_eq!(a1 - a0, 0, "clear+merge must not allocate");
    assert_eq!(d1 - d0, 0, "clear+merge must not free");
    assert_eq!(acc, delta);
}
