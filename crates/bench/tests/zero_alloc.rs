//! Allocation regression gate for the arena kernel.
//!
//! The slot-arena refactor's core claim is that steady-state event
//! traffic is allocation-free: slots are reused through the free list and
//! hot-slot hint, chain payloads live inline, and the metrics fold writes
//! dense symbol-indexed storage. This test pins that claim at exactly
//! zero heap allocations per event once the pool and containers are warm
//! — any future `Box`, map node, or accidental `Vec` growth on the
//! per-event path fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bench::kernel::{self, BenchWorld, ChainEvent};
use simcore::{EventQueue, QuantileSketch};
use statestore::db::TableDef;
use statestore::{Database, Match, Value};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per-thread, so tests the
    /// harness runs in parallel cannot land in each other's windows; the
    /// `const` initialiser keeps the access itself allocation-free.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` rather than `with`: the allocator must never panic, even
    // during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_arena_kernel_allocates_nothing_per_event() {
    let mut queue: EventQueue<BenchWorld, ChainEvent> = EventQueue::new();
    let mut world = BenchWorld::default();
    kernel::seed_arena(&mut queue);
    // Warm everything that legitimately grows once: the slot pool, the
    // heap's backing vec, the in-flight window and the series hot row.
    while world.fired < 100_000 {
        queue.step(&mut world);
    }

    let before = allocs();
    let fired_before = world.fired;
    while world.fired < fired_before + 100_000 {
        queue.step(&mut world);
    }
    let allocs = allocs() - before;

    assert_eq!(
        allocs,
        0,
        "the warm arena kernel must fire events without heap allocation \
         ({} allocations over {} events)",
        allocs,
        world.fired - fired_before
    );
}

/// The performance plane's streaming sketch makes the same promise: its
/// bucket array is fixed at construction, so a warm `observe` — the call
/// the per-request hot path makes — never touches the heap.
#[test]
fn warm_sketch_observe_allocates_nothing() {
    let mut sketch = QuantileSketch::new();
    // Warm: construction allocates the fixed bucket array, and the first
    // observations touch every code path once.
    for v in 0..1_000u64 {
        sketch.observe(v * 37 + 1);
    }

    let before = allocs();
    for v in 0..100_000u64 {
        // Spread over several decades so every bucket stratum is hit.
        sketch.observe((v * 101) % 10_000_000 + v % 97 + 1);
    }
    let allocs = allocs() - before;
    let observed = sketch.quantile(0.95);

    assert_eq!(
        allocs, 0,
        "a warm sketch must absorb observations without heap allocation \
         ({allocs} allocations over 100000 observes, p95 {observed})"
    );
}

/// The request path's database scans borrow the table: once a column's
/// equality index exists, neither an equality scan nor a full scan
/// touches the heap, however many rows they select.
#[test]
fn warm_db_scans_allocate_nothing() {
    let mut db = Database::new(vec![TableDef {
        name: "bids",
        columns: &["id", "user_id", "item_id", "amount"],
    }]);
    let conn = db.open_conn();
    let txn = db.begin(conn).unwrap();
    for i in 1..=2_000i64 {
        let row = vec![
            Value::Int(i),
            Value::Int(1 + i % 50),
            Value::Int(1 + i % 200),
            Value::Float(1.0),
        ];
        db.insert(txn, "bids", row).unwrap();
    }
    db.commit(txn).unwrap();
    let history = |item| Match::Eq {
        column: 2,
        value: item,
    };
    // Warm: the first equality scan of the column builds its index.
    assert_eq!(db.scan("bids", history(1), 20).unwrap().len(), 10);

    let before = allocs();
    let mut eq_selected = 0;
    for item in 1..=250 {
        let scan = db.scan("bids", history(item), 20).unwrap();
        eq_selected += scan.len() + usize::from(scan.any_tainted());
    }
    let eq_allocs = allocs() - before;

    let before = allocs();
    let mut all_selected = 0;
    for limit in [0, 20, 62, usize::MAX] {
        let scan = db.scan("bids", Match::All, limit).unwrap();
        all_selected += scan.len() + usize::from(scan.any_tainted());
    }
    let all_allocs = allocs() - before;

    assert_eq!(eq_selected, 2_000, "10 bids on each of 200 items");
    assert_eq!(all_selected, 82 + 2_000);
    assert_eq!(
        eq_allocs, 0,
        "a warm equality scan must not allocate ({eq_allocs} allocations over 250 scans)"
    );
    assert_eq!(
        all_allocs, 0,
        "a full scan must not allocate ({all_allocs} allocations over 4 scans)"
    );
}
