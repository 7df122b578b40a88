//! Labelling memory, gated by count rather than by RSS: a counting global
//! allocator reports the peak of live heap bytes, and the number of
//! allocations, while `SignalProbability::{simulate, exact}` run. The
//! counting pass compiles the circuit once, allocates each thread's count
//! vector, block of value words and block of source rows once, before any
//! thread starts, and makes its pattern rows on
//! the thread that uses them, so its peak depends on neither the pattern
//! count nor thread timing. The allocator is process-wide, so this binary
//! holds exactly one test and runs it from its own `main` (`harness =
//! false`): libtest's threads would allocate inside the measured window
//! whenever the scheduler let them. No wall clock.

use deepgate_netlist::{Dag, GateKind, Netlist, NodeId};
use deepgate_sim::SignalProbability;
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
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

/// Peak live heap bytes above the live bytes at entry while `f` runs, and
/// the number of allocations it makes.
fn peak_during<T>(f: impl FnOnce() -> T) -> (usize, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    drop(f());
    let peak = PEAK.load(Ordering::SeqCst) - base;
    (peak, ALLOCS.load(Ordering::SeqCst) - allocs)
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

fn main() {
    labelling_holds_one_count_vector_per_thread_not_per_row();
    println!("label_memory: labelling_holds_one_count_vector_per_thread_not_per_row ok");
}

fn labelling_holds_one_count_vector_per_thread_not_per_row() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let slack = 64 << 10;

    let netlist = random_netlist(32, 10_000);
    let node_bytes = netlist.num_nodes() * size_of::<u64>();
    // A warm-up pass large enough to fan out (16 rows of 10k nodes), so
    // one-time allocations (the core count, a first thread) are not
    // charged to either measured run.
    SignalProbability::simulate(&netlist, 1_024, 1).unwrap();
    let (small, small_allocs) =
        peak_during(|| SignalProbability::simulate(&netlist, 4_096, 1).unwrap());
    let (large, large_allocs) =
        peak_during(|| SignalProbability::simulate(&netlist, 65_536, 1).unwrap());
    assert!(
        large <= small + slack,
        "simulate peak grew {small} -> {large} bytes from 4 096 to 65 536 patterns \
         ({node_bytes} bytes per node vector)"
    );
    assert_eq!(
        small_allocs, large_allocs,
        "simulate allocations at 4 096 vs 65 536 patterns"
    );
    println!("simulate: {small} / {large} bytes peak, {small_allocs} allocations each");

    // Per thread: its count vector and one block of `BLOCK_ROWS` words per
    // node; then the circuit's compiled program, and the result beside the
    // summed counts. No term for the rows.
    let per_thread = SignalProbability::BLOCK_ROWS + 1;
    for (sources, gates) in [(16, 10_000), (20, 1_000)] {
        let netlist = random_netlist(sources, gates);
        let node_bytes = netlist.num_nodes() * size_of::<u64>();
        let (program, _) = peak_during(|| netlist.program());
        let bound = (per_thread * cores + 2) * node_bytes + program + slack;
        let (exact, _) = peak_during(|| SignalProbability::exact(&netlist).unwrap());
        assert!(
            exact <= bound,
            "exact at {sources} sources peaked at {exact} bytes, over {bound} \
             ({cores} cores, {node_bytes} bytes per node vector, {program} for the program)"
        );
        println!(
            "exact at {sources} sources: {exact} bytes peak, bound {bound} \
             ({program} for the program)"
        );
    }
}
