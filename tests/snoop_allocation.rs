//! The snoop hot path allocates nothing per transaction.
//!
//! A counting global allocator (this file's only `unsafe` code; every
//! library crate forbids it) counts the calling thread's heap
//! allocations. A stream is driven through the board twice. The first
//! pass may grow the cold-miss trackers, which extend on first touch of
//! a line; the second pass over lines already seen must not allocate at
//! all, through [`MemoriesBoard::observe_block`] or through
//! [`NodeShard::snoop`] on split shards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use memories::{BoardConfig, CacheParams, MemoriesBoard, NodeCounter, NodeShard, NodeSlot};
use memories_bus::{Address, BusOp, ProcId, SnoopResponse, Transaction};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards unchanged to the system allocator; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations the current thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn params(capacity: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(2)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .unwrap()
}

/// Two coherence domains of two nodes each over eight CPUs, with small
/// caches so the stream evicts: every snoop path runs, including
/// same-domain sibling summaries, remote events and victim handling.
fn board() -> MemoriesBoard {
    let cpus = |first: u8| (first..first + 2).map(ProcId::new);
    let slots = vec![
        NodeSlot::new(params(8 << 10), cpus(0)).in_domain(0),
        NodeSlot::new(params(8 << 10), cpus(2)).in_domain(0),
        NodeSlot::new(params(16 << 10), cpus(4)).in_domain(1),
        NodeSlot::new(params(16 << 10), cpus(6)).in_domain(1),
    ];
    MemoriesBoard::new(BoardConfig::from_slots(slots).unwrap()).unwrap()
}

/// A deterministic mixed stream: every bus op, every CPU, 512 lines,
/// starting at bus cycle `first_cycle`.
fn stream(first_cycle: u64) -> Vec<Transaction> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..20_000u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Transaction::new(
                i,
                first_cycle + i * 40,
                ProcId::new((x % 8) as u8),
                BusOp::ALL[(x >> 8) as usize % BusOp::ALL.len()],
                Address::new((x >> 16) % 512 * 128),
                SnoopResponse::Null,
            )
        })
        .collect()
}

#[test]
fn observe_block_allocates_nothing_on_a_second_pass() {
    let mut board = board();
    let (first, second) = (stream(0), stream(1 << 30));
    board.observe_block(&first);
    assert_eq!(
        allocations_during(|| {
            board.observe_block(&second);
        }),
        0
    );
    // The stream reaches the eviction and remote-event paths.
    for counter in [NodeCounter::VictimEvictions, NodeCounter::RemoteWritesSeen] {
        assert!(board.nodes().all(|n| n.counters().get(counter) > 0));
    }
}

#[test]
fn shard_snoop_allocates_nothing_on_a_second_pass() {
    let (mut front, mut shards) = board().split(2);
    assert_eq!(shards.len(), 2);
    let (first, second) = (stream(0), stream(1 << 30));
    let mut admitted = |txns: &[Transaction]| -> Vec<Transaction> {
        txns.iter().filter(|t| front.observe(t)).copied().collect()
    };
    let (first, second) = (admitted(&first), admitted(&second));
    let snoop_all = |shards: &mut [NodeShard], txns: &[Transaction]| {
        for txn in txns {
            for shard in shards.iter_mut() {
                shard.snoop(txn);
            }
        }
    };
    snoop_all(&mut shards, &first);
    assert_eq!(allocations_during(|| snoop_all(&mut shards, &second)), 0);
}
