//! Labelling memory, gated by count rather than by RSS: a counting global
//! allocator reports the peak of live heap bytes while
//! `SignalProbability::{simulate, exact}` run on a 10k-gate netlist. The
//! counting pass must hold one count vector per thread, not one per 64-pattern
//! row, so its peak grows with the pattern rows themselves and the core
//! count, not with rows × nodes. The allocator is process-wide, so this
//! binary holds exactly one test. No wall clock.

use deepgate_netlist::{Dag, GateKind, Netlist, NodeId};
use deepgate_sim::SignalProbability;
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap bytes above the live bytes at entry while `f` runs.
fn peak_during<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    drop(f());
    PEAK.load(Ordering::SeqCst) - base
}

/// `inputs` sources and `gates` two-input gates, each reading two earlier
/// nodes picked by a fixed LCG, so every run builds the same netlist.
fn random_netlist(inputs: usize, gates: usize) -> Netlist {
    let mut netlist = Netlist::new("label_memory");
    let mut nodes: Vec<NodeId> = (0..inputs)
        .map(|i| netlist.add_input(format!("x{i}")))
        .collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut pick = |len: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % len
    };
    for g in 0..gates {
        let kind = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand][g % 4];
        let fanins = [nodes[pick(nodes.len())], nodes[pick(nodes.len())]];
        nodes.push(netlist.add_gate(kind, &fanins).expect("two-input gate"));
    }
    netlist.mark_output(*nodes.last().expect("gates"), "y");
    netlist
}

/// Heap bytes of `rows` pattern rows of `sources` words each.
fn row_bytes(rows: usize, sources: usize) -> usize {
    rows * (size_of::<Vec<u64>>() + sources * size_of::<u64>())
}

#[test]
fn labelling_holds_one_count_vector_per_thread_not_per_row() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let slack = 64 << 10;

    let netlist = random_netlist(32, 10_000);
    let node_bytes = netlist.num_nodes() * size_of::<u64>();
    // A warm-up pass, so one-time allocations (thread bookkeeping, the
    // pattern generator) are not charged to either measured run.
    SignalProbability::simulate(&netlist, 64, 1).unwrap();
    let small = peak_during(|| SignalProbability::simulate(&netlist, 4_096, 1).unwrap());
    let large = peak_during(|| SignalProbability::simulate(&netlist, 65_536, 1).unwrap());
    let more_rows = row_bytes(65_536 / 64, 32) - row_bytes(4_096 / 64, 32);
    assert!(
        large <= small + more_rows + slack,
        "simulate peak grew {small} -> {large} bytes from 4 096 to 65 536 patterns; \
         the extra pattern rows are {more_rows} bytes ({node_bytes} bytes per node vector)"
    );

    let netlist = random_netlist(16, 10_000);
    let node_bytes = netlist.num_nodes() * size_of::<u64>();
    let rows = row_bytes((1 << 16) / 64, 16);
    // Per thread: its count vector and one evaluated row; then the result
    // beside the summed counts.
    let bound = rows + (2 * cores + 2) * node_bytes + slack;
    let exact = peak_during(|| SignalProbability::exact(&netlist).unwrap());
    assert!(
        exact <= bound,
        "exact at 16 sources peaked at {exact} bytes, over {bound} \
         ({cores} cores, {node_bytes} bytes per node vector, {rows} bytes of rows)"
    );
}
