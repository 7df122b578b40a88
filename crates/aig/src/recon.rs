//! Reconvergence analysis.
//!
//! Reconvergent fan-out — a stem node whose fan-out branches meet again at a
//! later gate — is the main source of error for probabilistic circuit
//! analysis, and DeepGate treats reconvergence nodes as *first-class
//! citizens*: during data preparation every reconvergence node is annotated
//! with its source fan-out stem and the logic-level distance to it, and the
//! model adds a *skip connection* edge from the stem to the reconvergence
//! node whose attribute is a sinusoidal positional encoding of that distance
//! (Eq. 7 of the paper).
//!
//! The analysis reads a circuit through [`Dag`] alone — `fanins(i)`, its
//! levels and fan-out counts — so one pass serves an [`Aig`](crate::Aig) and
//! the PI/AND/NOT or original-gate [`Netlist`](deepgate_netlist::Netlist)
//! the learning front-end encodes. It processes nodes in topological order
//! and propagates, for every node, the set of fan-out stems present in its
//! transitive fan-in within a bounded level distance. A node is reconvergent
//! when the stem sets reached through two of its fan-ins intersect; the
//! closest such stem (smallest level difference) is recorded.
//!
//! A stem is one packed word, its level above its node. A stored set holds
//! its node first when that node is a stem, then the stems merged from its
//! fan-ins, sorted by descending level, so the level window a reader keeps
//! is a prefix. A NOT or BUF copies that prefix; an AND merges its two
//! prefixes level by level with two cursors; a gate of three or more
//! fan-ins merges level group by level group.
//!
//! Memory is proportional to the *frontier*, not to the circuit: a stem set
//! lives only from the node that builds it to its last reader (the
//! highest-indexed gate that has it as a fan-in), and its slot is freed
//! right after that reader's merge. The sets live in the slots of one slab
//! whose freed buffers the next sets reuse, so the slab holds as many slots
//! as sets were ever live at once, each of at most `max_tracked_stems` + 1
//! stems, and allocates nothing once every slot has held its largest set.

use deepgate_netlist::Dag;

/// Configuration of the reconvergence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconvergenceConfig {
    /// Maximum logic-level distance between a stem and a reconvergence node;
    /// stems further away are not tracked (their influence on the node's
    /// signal probability decays with distance, which is exactly the prior
    /// the positional encoding captures).
    ///
    /// A wider window costs only through the stems it admits: sets fill up
    /// to `max_tracked_stems` from more levels.
    pub max_level_distance: usize,
    /// Maximum number of candidate stems tracked per node; the closest stems
    /// are kept when the budget is exceeded.
    ///
    /// A gate's time and each live set's memory grow with its set, up to
    /// this cap plus one word: a NOT copies its fan-in's set, an AND merges
    /// two. Any value works, `usize::MAX` included; without a cap (and with
    /// an unbounded window) every set holds every stem of its fan-in cone,
    /// so time and memory grow with the cones, quadratically in the worst
    /// case.
    pub max_tracked_stems: usize,
}

impl Default for ReconvergenceConfig {
    fn default() -> Self {
        ReconvergenceConfig {
            max_level_distance: 24,
            max_tracked_stems: 48,
        }
    }
}

/// Reconvergence record for a single node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconvergenceInfo {
    /// Node index of the source fan-out stem.
    pub source: usize,
    /// Logic-level difference between the reconvergence node and the stem.
    pub level_difference: usize,
}

/// Result of analysing a circuit (any [`Dag`]) for reconvergence.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconvergenceAnalysis {
    per_node: Vec<Option<ReconvergenceInfo>>,
    num_stems: usize,
    /// [`Dag::levels`] of the circuit, which the analysis needs anyway.
    levels: (Vec<usize>, usize),
}

impl ReconvergenceAnalysis {
    /// Runs the analysis with the default configuration.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has `u32::MAX` nodes or more ("circuit too
    /// large for reconvergence analysis").
    pub fn of(dag: &impl Dag) -> Self {
        Self::with_config(dag, ReconvergenceConfig::default())
    }

    /// Runs the analysis with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has `u32::MAX` nodes or more ("circuit too
    /// large for reconvergence analysis").
    pub fn with_config(dag: &impl Dag, config: ReconvergenceConfig) -> Self {
        analyse(dag, config).0
    }

    /// Reconvergence record of a node, if it is a reconvergence node.
    pub fn info(&self, node: usize) -> Option<ReconvergenceInfo> {
        self.per_node.get(node).copied().flatten()
    }

    /// Per-node records indexed by node.
    pub fn per_node(&self) -> &[Option<ReconvergenceInfo>] {
        &self.per_node
    }

    /// Number of reconvergence nodes found.
    pub fn num_reconvergence_nodes(&self) -> usize {
        self.per_node.iter().filter(|r| r.is_some()).count()
    }

    /// Number of fan-out stems (fan-out ≥ 2) in the analysed circuit.
    pub fn num_stems(&self) -> usize {
        self.num_stems
    }

    /// The circuit's [`Dag::levels`] — every node's logic level and the
    /// largest — which the analysis computed for itself, so a caller that
    /// needs both does not walk the circuit twice.
    pub fn into_levels(self) -> (Vec<usize>, usize) {
        self.levels
    }
}

/// The stem-set propagation behind both entry points.
///
/// A node is reconvergent when some fan-out stem is visible in the bounded
/// transitive fan-in of at least two of its fan-in branches; the closest such
/// stem (smallest level difference) is recorded.
///
/// A branch is the window of its fan-in's stored set, which holds the fan-in
/// itself first when it is a stem, then the fan-in's merged stems. A merged
/// set is sorted by descending stem level and, within one level, in the
/// order its stems were first reached through the fan-ins taken in fan-in
/// order. The merge keeps that order, so both the stem that wins a tie on
/// level difference and the stems that survive the `max_tracked_stems` cut
/// are fixed by the circuit alone.
///
/// Also returns the slab the sets lived in, whose size at the end is its
/// peak — the frontier the memory is proportional to.
///
/// # Panics
///
/// Panics if the circuit has `u32::MAX` nodes or more: a stem packs its node
/// and its level into 32 bits each, and `u32::MAX` marks a node with no
/// stored set.
fn analyse(dag: &impl Dag, config: ReconvergenceConfig) -> (ReconvergenceAnalysis, Slab) {
    let n = dag.num_nodes();
    // A level is below the node count, so this bounds both halves of a stem.
    assert!(n < NO_SET as usize, "{TOO_LARGE}: {n} nodes");
    let (levels, max_level) = dag.levels();
    let fanout_counts = dag.fanout_counts();
    let is_stem = |node: usize| fanout_counts[node] >= 2;
    let num_stems = (0..n).filter(|&node| is_stem(node)).count();
    // The last gate that reads each node's set; a node no gate reads (0
    // here, as readers come later) never stores one.
    let mut last_reader = vec![0u32; n];
    for i in 0..n {
        for f in dag.fanins(i) {
            last_reader[f] = i as u32;
        }
    }

    let cap = config.max_tracked_stems;
    let mut slab = Slab::default();
    let mut slot_of = vec![NO_SET; n];
    let mut per_node: Vec<Option<ReconvergenceInfo>> = vec![None; n];
    let mut set: Vec<Stem> = Vec::new();
    let mut cursors: Vec<Cursor> = Vec::new();
    let mut group: Vec<(Stem, bool)> = Vec::new();
    for i in 0..n {
        let level_i = levels[i];
        let low = first_at(level_i.saturating_sub(config.max_level_distance));
        // Only a set a later gate reads is built: this node itself first when
        // it is a stem, then at most `cap` merged stems. A node nobody reads
        // merges with no room, only to find its closest shared stem.
        let read = last_reader[i] as usize > i;
        let head = (read && is_stem(i)).then(|| pack(level_i, i));
        let limit = if read {
            cap.saturating_add(head.is_some() as usize)
        } else {
            0
        };

        let mut fanins = dag.fanins(i);
        let best = match (fanins.next(), fanins.next(), fanins.next()) {
            // A source, a NOT or BUF (one window, copied) or an AND.
            (a, b, None) => {
                let window = |f: Option<usize>| f.map_or(&[][..], |f| slab.window(slot_of[f], low));
                let (wa, wb) = (window(a), window(b));
                begin(&mut set, head, limit, wa.len() + wb.len());
                merge_two(wa, wb, limit, &mut set)
            }
            _ => {
                cursors.clear();
                cursors.extend(dag.fanins(i).map(|f| Cursor {
                    slot: slot_of[f],
                    next: 0,
                    end: slab.window(slot_of[f], low).len(),
                }));
                let stems = cursors.iter().map(|c| c.end).sum();
                begin(&mut set, head, limit, stems);
                merge_many(&slab, &mut cursors, limit, &mut set, &mut group)
            }
        };
        per_node[i] = best.map(|stem| ReconvergenceInfo {
            source: node_of(stem),
            level_difference: level_i - level_of(stem),
        });

        // Free every fan-in set this node was the last reader of, then store
        // this node's set, maybe in a slot just freed.
        for f in dag.fanins(i) {
            if last_reader[f] as usize == i {
                slab.release(std::mem::replace(&mut slot_of[f], NO_SET));
            }
        }
        if !set.is_empty() {
            slot_of[i] = slab.store(&mut set);
        }
    }

    let analysis = ReconvergenceAnalysis {
        per_node,
        num_stems,
        levels: (levels, max_level),
    };
    (analysis, slab)
}

/// Panic message of a circuit too large to pack its stems.
const TOO_LARGE: &str = "circuit too large for reconvergence analysis";

/// The slot of a node that stores no set; it reads as an empty set.
const NO_SET: u32 = u32::MAX;

/// A stem packed as `level << 32 | node`: the stems of one level lie between
/// [`first_at`] that level and the next, so in a set sorted by descending
/// level a level window or a level run ends at the first word below
/// `first_at` its lowest level.
type Stem = u64;

fn pack(level: usize, node: usize) -> Stem {
    (level as u64) << 32 | node as u64
}

fn level_of(stem: Stem) -> usize {
    (stem >> 32) as usize
}

fn node_of(stem: Stem) -> usize {
    stem as u32 as usize
}

/// The smallest packed stem at `level`.
fn first_at(level: usize) -> Stem {
    (level as u64) << 32
}

/// Clears `set` for a node's new set, with room for its head and `stems`
/// more within `limit`, and writes the head.
fn begin(set: &mut Vec<Stem>, head: Option<Stem>, limit: usize, stems: usize) {
    set.clear();
    set.reserve_exact(limit.min(stems.saturating_add(head.is_some() as usize)));
    set.extend(head);
}

/// Merges two fan-in windows into `set`, up to `limit` stems, and returns
/// the closest stem both reach.
///
/// Level by level, highest first: stems at levels only one window reaches
/// are copied as they stand; at a level both reach, `a`'s run comes first,
/// then the stems of `b`'s run that `a`'s run lacks, and the first stem of
/// `a`'s run that `b`'s run also holds is the closest shared one. The search
/// goes on once `set` is full, as the closest shared stem may lie below the
/// cut. Once one window is done the rest of the other is copied, so a single
/// window (a NOT's) is a copy of its prefix.
fn merge_two<'a>(
    mut a: &'a [Stem],
    mut b: &'a [Stem],
    limit: usize,
    set: &mut Vec<Stem>,
) -> Option<Stem> {
    let mut best = None;
    loop {
        let room = limit - set.len();
        let (Some(&top_a), Some(&top_b)) = (a.first(), b.first()) else {
            // One window is done, so nothing more is shared.
            let rest = if a.is_empty() { b } else { a };
            set.extend_from_slice(&rest[..rest.len().min(room)]);
            return best;
        };
        if best.is_some() && room == 0 {
            return best;
        }
        let (level_a, level_b) = (level_of(top_a), level_of(top_b));
        if level_a != level_b {
            let (high, other_top) = if level_a > level_b {
                (&mut a, level_b)
            } else {
                (&mut b, level_a)
            };
            let own = run_end(high, other_top + 1);
            set.extend_from_slice(&high[..own.min(room)]);
            *high = &high[own..];
            continue;
        }
        let (run_a, run_b) = (&a[..run_end(a, level_a)], &b[..run_end(b, level_a)]);
        (a, b) = (&a[run_a.len()..], &b[run_b.len()..]);
        set.extend_from_slice(&run_a[..run_a.len().min(room)]);
        let mut shared = run_a.len();
        for &stem in run_b {
            match run_a.iter().position(|&s| s == stem) {
                Some(k) => shared = shared.min(k),
                None if set.len() < limit => set.push(stem),
                None => {}
            }
        }
        if best.is_none() {
            best = run_a.get(shared).copied();
        }
    }
}

/// Length of the prefix of a window at or above `level`.
fn run_end(window: &[Stem], level: usize) -> usize {
    let low = first_at(level);
    window.iter().position(|&s| s < low).unwrap_or(window.len())
}

/// A merge cursor over one fan-in's window `next..end` of its slot.
struct Cursor {
    slot: u32,
    next: usize,
    end: usize,
}

/// Merges the windows of three or more fan-ins into `set`, up to `limit`
/// stems, level group by level group, and returns the closest stem two of
/// them reach: a group holds the level's stems in the order the fan-ins
/// first reach them, each marked once a second fan-in reaches it.
fn merge_many(
    slab: &Slab,
    cursors: &mut [Cursor],
    limit: usize,
    set: &mut Vec<Stem>,
    group: &mut Vec<(Stem, bool)>,
) -> Option<Stem> {
    let peek = |c: &Cursor| (c.next < c.end).then(|| slab.slots[c.slot as usize][c.next]);
    let mut best = None;
    while let Some(top) = cursors.iter().filter_map(peek).max() {
        let low = first_at(level_of(top));
        group.clear();
        for cursor in cursors.iter_mut() {
            while let Some(stem) = peek(cursor).filter(|&s| s >= low) {
                cursor.next += 1;
                match group.iter_mut().find(|(g, _)| *g == stem) {
                    Some((_, shared)) => *shared = true,
                    None => group.push((stem, false)),
                }
            }
        }
        if best.is_none() {
            best = group.iter().find(|(_, shared)| *shared).map(|&(s, _)| s);
        }
        let room = limit - set.len();
        set.extend(group.iter().take(room).map(|&(s, _)| s));
        if best.is_some() && set.len() == limit {
            break;
        }
    }
    best
}

/// Where stem sets live between the node that builds one and its last
/// reader: slots whose buffers come back through a free list, so the slab
/// holds as many slots as sets were ever live at once, each buffer sized by
/// the largest merge it took, `max_tracked_stems` + 1 stems at most.
#[derive(Default)]
struct Slab {
    slots: Vec<Vec<Stem>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
}

impl Slab {
    /// The window of a slot's set at or above the packed `low`: a prefix, as
    /// the set is sorted by descending level.
    fn window(&self, slot: u32, low: Stem) -> &[Stem] {
        let stems = self.slots.get(slot as usize).map_or(&[][..], Vec::as_slice);
        let mut end = stems.len();
        while end > 0 && stems[end - 1] < low {
            end -= 1;
        }
        &stems[..end]
    }

    /// Moves `set` into a free slot and leaves that slot's emptied buffer in
    /// its place.
    fn store(&mut self, set: &mut Vec<Stem>) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Vec::new());
            (self.slots.len() - 1) as u32
        });
        std::mem::swap(&mut self.slots[slot as usize], set);
        set.clear();
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        slot
    }

    fn release(&mut self, slot: u32) {
        if slot != NO_SET {
            self.free.push(slot);
            self.live -= 1;
        }
    }
}

/// Sinusoidal positional encoding γ(D) of a level difference (Eq. 7 of the
/// paper): `γ(D) = (sin(2^0 π D), cos(2^0 π D), …, sin(2^{L-1} π D),
/// cos(2^{L-1} π D))`, a vector of length `2 L`.
pub fn positional_encoding(level_difference: usize, l: usize) -> Vec<f32> {
    let d = level_difference as f32;
    let mut out = Vec::with_capacity(2 * l);
    for k in 0..l {
        // Following the NeRF-style formulation cited by the paper we use the
        // frequency 2^k · π but divide the distance by a scale to avoid the
        // encoding aliasing for integer D (sin(2^k π · integer) would always
        // be 0); the scale keeps nearby distances distinguishable.
        let freq = (2.0f32).powi(k as i32) * std::f32::consts::PI / 32.0;
        out.push((freq * d).sin());
        out.push((freq * d).cos());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aig, AigLit};
    use deepgate_netlist::{Netlist, NodeId};

    /// The quadratic definition the frontier merge replaced: every set kept
    /// to the end, branches collected, then pairwise `contains` tests and a
    /// stable sort by level. The differential tests hold `analyse` to it.
    fn reference(dag: &impl Dag, config: ReconvergenceConfig) -> ReconvergenceAnalysis {
        let n = dag.num_nodes();
        let fanins: Vec<Vec<usize>> = (0..n).map(|i| dag.fanins(i).collect()).collect();
        let (levels, max_level) = dag.levels();
        let fanout_counts = dag.fanout_counts();
        let is_stem: Vec<bool> = fanout_counts.iter().map(|&c| c >= 2).collect();
        let num_stems = is_stem.iter().filter(|&&s| s).count();
        let mut stem_sets: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut per_node: Vec<Option<ReconvergenceInfo>> = vec![None; n];

        for i in 0..n {
            let node_fanins = &fanins[i];
            if node_fanins.is_empty() {
                continue;
            }
            let level_i = levels[i];
            let keep = |stem: usize| {
                level_i >= levels[stem] && level_i - levels[stem] <= config.max_level_distance
            };

            // Stem set reached through each fan-in branch: the branch's own set
            // plus the branch node itself when it is a stem.
            let branches: Vec<Vec<usize>> = node_fanins
                .iter()
                .map(|&f| {
                    let mut branch: Vec<usize> =
                        stem_sets[f].iter().copied().filter(|&s| keep(s)).collect();
                    if is_stem[f] && keep(f) {
                        branch.push(f);
                    }
                    branch
                })
                .collect();

            // Reconvergence: a stem visible through at least two branches; pick
            // the one with the smallest level difference.
            let mut best: Option<ReconvergenceInfo> = None;
            if branches.len() >= 2 {
                for (bi, branch) in branches.iter().enumerate() {
                    for &s in branch {
                        let seen_elsewhere = branches
                            .iter()
                            .enumerate()
                            .any(|(bj, other)| bj != bi && other.contains(&s));
                        if seen_elsewhere {
                            let diff = level_i - levels[s];
                            if best.is_none_or(|b| diff < b.level_difference) {
                                best = Some(ReconvergenceInfo {
                                    source: s,
                                    level_difference: diff,
                                });
                            }
                        }
                    }
                }
            }
            per_node[i] = best;

            // The union of all branches becomes this node's stem set, capped to
            // the closest stems.
            let mut merged: Vec<usize> = Vec::new();
            for branch in branches {
                for s in branch {
                    if !merged.contains(&s) {
                        merged.push(s);
                    }
                }
            }
            merged.sort_by_key(|&s| std::cmp::Reverse(levels[s]));
            merged.truncate(config.max_tracked_stems);
            stem_sets[i] = merged;
        }

        ReconvergenceAnalysis {
            per_node,
            num_stems,
            levels: (levels, max_level),
        }
    }

    /// Builds the classic reconvergent structure: stem s = a·b fans out to
    /// two paths that reconverge at r.
    fn reconvergent_aig() -> (Aig, usize, usize) {
        let mut aig = Aig::new("recon");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let stem = aig.and(a, b);
        let p1 = aig.and(stem, c);
        let p2 = aig.and(stem, d);
        let recon = aig.and(p1, p2);
        aig.add_output(recon, "y");
        (aig, stem.node(), recon.node())
    }

    /// Configurations the differential tests sweep: the default, and tight
    /// windows and caps under which ties on level and the cut of equal-level
    /// stems decide the result.
    const CONFIGS: [ReconvergenceConfig; 5] = [
        ReconvergenceConfig {
            max_level_distance: 24,
            max_tracked_stems: 48,
        },
        ReconvergenceConfig {
            max_level_distance: 64,
            max_tracked_stems: 4,
        },
        ReconvergenceConfig {
            max_level_distance: 6,
            max_tracked_stems: 1,
        },
        ReconvergenceConfig {
            max_level_distance: 3,
            max_tracked_stems: 2,
        },
        ReconvergenceConfig {
            max_level_distance: 2,
            max_tracked_stems: 0,
        },
    ];

    /// A seeded random netlist: `inputs` inputs, then `gates` NOT or AND
    /// gates of one to four fan-ins (repeats allowed) drawn from the previous
    /// `window` nodes — a narrow window makes a deep circuit with many stems
    /// per level — and the last four nodes as outputs.
    fn random_netlist(seed: u64, inputs: usize, gates: usize, window: usize) -> Netlist {
        use deepgate_netlist::GateKind;
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut below = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound as u64) as usize
        };
        let mut netlist = Netlist::new("random");
        for k in 0..inputs {
            netlist.add_input(format!("x{k}"));
        }
        for _ in 0..gates {
            let len = netlist.len();
            let arity = 1 + below(4);
            let fanins: Vec<NodeId> = (0..arity)
                .map(|_| NodeId((len - 1 - below(window.min(len))) as u32))
                .collect();
            let kind = if arity == 1 {
                GateKind::Not
            } else {
                GateKind::And
            };
            netlist.add_gate(kind, &fanins).unwrap();
        }
        for k in 1..=4 {
            netlist.mark_output(NodeId((netlist.len() - k) as u32), format!("y{k}"));
        }
        netlist
    }

    /// The limits of the configuration: no cap at all, caps around 64
    /// under an unbounded window, and an unbounded cap under the default
    /// window.
    const LIMIT_CONFIGS: [ReconvergenceConfig; 7] = [
        ReconvergenceConfig {
            max_level_distance: usize::MAX,
            max_tracked_stems: 0,
        },
        ReconvergenceConfig {
            max_level_distance: usize::MAX,
            max_tracked_stems: 1,
        },
        ReconvergenceConfig {
            max_level_distance: usize::MAX,
            max_tracked_stems: 63,
        },
        ReconvergenceConfig {
            max_level_distance: usize::MAX,
            max_tracked_stems: 64,
        },
        ReconvergenceConfig {
            max_level_distance: usize::MAX,
            max_tracked_stems: 65,
        },
        ReconvergenceConfig {
            max_level_distance: usize::MAX,
            max_tracked_stems: usize::MAX,
        },
        ReconvergenceConfig {
            max_level_distance: 24,
            max_tracked_stems: usize::MAX,
        },
    ];

    /// The size of the largest uncapped stem set within `max_level_distance`:
    /// the test circuits must grow sets past the caps they test.
    fn longest_set(dag: &impl Dag, max_level_distance: usize) -> usize {
        let (levels, _) = dag.levels();
        let is_stem: Vec<bool> = dag.fanout_counts().iter().map(|&c| c >= 2).collect();
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for i in 0..dag.num_nodes() {
            let mut set: Vec<usize> = Vec::new();
            for f in dag.fanins(i) {
                let reached = sets[f].iter().copied().chain(is_stem[f].then_some(f));
                for s in reached {
                    if levels[i] - levels[s] <= max_level_distance && !set.contains(&s) {
                        set.push(s);
                    }
                }
            }
            sets.push(set);
        }
        sets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// A seeded random netlist of one- and two-input gates shaped to reach
    /// every path of the two-fan-in merge: NOT chains of 1 to 12 gates whose
    /// end is ANDed with their start, ANDs of a node with itself, ANDs of a
    /// gate with one of its own fan-ins (a stem inside the other fan-in's
    /// set, in either fan-in position) and ANDs of two nodes among the
    /// previous `window`.
    fn random_two_input_netlist(seed: u64, gates: usize, window: usize) -> Netlist {
        use deepgate_netlist::GateKind;
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut below = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound as u64) as usize
        };
        let mut netlist = Netlist::new("two-input");
        for k in 0..6 {
            netlist.add_input(format!("x{k}"));
        }
        while netlist.len() < 6 + gates {
            let len = netlist.len();
            let x = NodeId((len - 1 - below(window.min(len))) as u32);
            let fanins = match below(6) {
                0 => {
                    let mut end = x;
                    for _ in 0..1 + below(12) {
                        end = netlist.add_gate(GateKind::Not, &[end]).unwrap();
                    }
                    vec![end, x]
                }
                1 => vec![x, x],
                2 | 3 => match netlist.node(x).fanins.as_slice() {
                    [] => vec![x],
                    inner => {
                        let y = inner[below(inner.len())];
                        if below(2) == 0 {
                            vec![x, y]
                        } else {
                            vec![y, x]
                        }
                    }
                },
                _ => vec![x, NodeId((len - 1 - below(window.min(len))) as u32)],
            };
            let kind = if fanins.len() == 1 {
                GateKind::Not
            } else {
                GateKind::And
            };
            netlist.add_gate(kind, &fanins).unwrap();
        }
        for k in 1..=4 {
            netlist.mark_output(NodeId((netlist.len() - k) as u32), format!("y{k}"));
        }
        netlist
    }

    #[test]
    fn two_input_merge_paths_match_reference() {
        for seed in 0..16 {
            for window in [4, 16, 200] {
                let netlist = random_two_input_netlist(seed, 300, window);
                for config in CONFIGS.into_iter().chain(LIMIT_CONFIGS) {
                    let expected = reference(&netlist, config);
                    let analysis = ReconvergenceAnalysis::with_config(&netlist, config);
                    assert_eq!(
                        analysis, expected,
                        "seed {seed}, window {window}, {config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn limit_configs_match_reference() {
        // Wide windows over many inputs grow sets past every finite cap.
        let netlists = (0..6).map(|seed| random_netlist(seed, 24, 400, 400));
        let aigs = (0..6).map(|seed| crate::aiger::random_aig(seed, 24, 2, 400).to_netlist());
        for (k, netlist) in netlists.chain(aigs).enumerate() {
            assert!(longest_set(&netlist, usize::MAX) > 65, "circuit {k}");
            for config in LIMIT_CONFIGS {
                let expected = reference(&netlist, config);
                let analysis = ReconvergenceAnalysis::with_config(&netlist, config);
                assert_eq!(analysis, expected, "circuit {k}, {config:?}");
            }
        }
    }

    #[test]
    fn two_input_merge_orders_and_searches_past_the_cap() {
        let stems = |packed: &[(usize, usize)]| -> Vec<Stem> {
            packed
                .iter()
                .map(|&(level, node)| pack(level, node))
                .collect()
        };
        let a = stems(&[(4, 10), (2, 5), (2, 7), (1, 3)]);
        let b = stems(&[(3, 11), (2, 7), (2, 8), (2, 5), (1, 3)]);
        let mut set = Vec::new();
        // Room for all: `a`'s level-2 run, then what `b`'s adds; the first
        // of `a`'s run that `b` reaches is the closest shared stem.
        let best = merge_two(&a, &b, usize::MAX, &mut set);
        assert_eq!(
            set,
            stems(&[(4, 10), (3, 11), (2, 5), (2, 7), (2, 8), (1, 3)])
        );
        assert_eq!(best, Some(pack(2, 5)));
        // A cap in the middle of the level-2 group keeps its head.
        set.clear();
        assert_eq!(merge_two(&a, &b, 3, &mut set), Some(pack(2, 5)));
        assert_eq!(set, stems(&[(4, 10), (3, 11), (2, 5)]));
        // A full set before any shared level: the search goes on below it.
        set.clear();
        assert_eq!(merge_two(&a, &b, 2, &mut set), Some(pack(2, 5)));
        assert_eq!(set, stems(&[(4, 10), (3, 11)]));
        // The same window twice shares its first stem; no room still finds it.
        set.clear();
        assert_eq!(merge_two(&b, &b, 0, &mut set), Some(pack(3, 11)));
        assert!(set.is_empty());
    }

    /// Stems `u` and `v` (level 1) reached through one fan-in each, then
    /// the only shared stem `r` (level 0) at the end of the other fan-in's
    /// level-0 run, behind `p` when `behind_p`. The reconvergence node has a
    /// reader, so its set is built, not only searched. Returns the netlist,
    /// the reconvergence node and `r`.
    fn shared_stem_below_the_cap(behind_p: bool) -> (Netlist, NodeId, NodeId) {
        use deepgate_netlist::GateKind;
        let mut n = Netlist::new("late-share");
        let [p, r, x, z] = ["p", "r", "x", "z"].map(|name| n.add_input(name));
        let u = n.add_gate(GateKind::Not, &[x]).unwrap();
        let v = n.add_gate(GateKind::Not, &[z]).unwrap();
        let a = if behind_p {
            let pr = n.add_gate(GateKind::And, &[p, r]).unwrap();
            n.add_gate(GateKind::And, &[u, pr]).unwrap()
        } else {
            n.add_gate(GateKind::And, &[u, r]).unwrap()
        };
        let b = n.add_gate(GateKind::And, &[v, r]).unwrap();
        let top = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let reader = n.add_gate(GateKind::Not, &[top]).unwrap();
        for (k, stem) in [p, u, v, reader].into_iter().enumerate() {
            n.mark_output(stem, format!("y{k}"));
        }
        (n, top, r)
    }

    #[test]
    fn closest_stem_is_found_after_the_set_is_full() {
        // cap 2: `u` and `v` fill the set at level 1 and `r` is shared at
        // level 0. cap 3: one fan-in's level-0 run is `p, r` and the cut
        // falls between them.
        for (behind_p, cap) in [(false, 2), (true, 3)] {
            let (netlist, top, r) = shared_stem_below_the_cap(behind_p);
            let config = ReconvergenceConfig {
                max_tracked_stems: cap,
                ..ReconvergenceConfig::default()
            };
            let analysis = ReconvergenceAnalysis::with_config(&netlist, config);
            let info = analysis
                .info(top.index())
                .expect("`top` reconverges on `r`");
            assert_eq!(info.source, r.index());
            assert_eq!(info.level_difference, 3);
            assert_eq!(analysis, reference(&netlist, config));
        }
    }

    /// A circuit whose node indices do not fit a packed stem; nothing but
    /// its size is ever read.
    struct Oversized;

    impl Dag for Oversized {
        type Error = std::convert::Infallible;

        fn num_nodes(&self) -> usize {
            u32::MAX as usize
        }

        fn num_sources(&self) -> usize {
            unreachable!()
        }

        fn fanins(&self, _: usize) -> impl Iterator<Item = usize> + '_ {
            std::iter::empty()
        }

        fn sinks(&self) -> impl Iterator<Item = usize> + '_ {
            std::iter::empty()
        }

        fn program(&self) -> deepgate_netlist::WordProgram {
            unreachable!()
        }

        fn validate(&self) -> Result<(), Self::Error> {
            Ok(())
        }
    }

    #[test]
    #[should_panic(expected = "circuit too large for reconvergence analysis")]
    fn oversized_circuit_is_refused_by_name() {
        ReconvergenceAnalysis::of(&Oversized);
    }

    #[test]
    fn frontier_merge_matches_reference_on_random_netlists() {
        for seed in 0..16 {
            for window in [3, 8, 40, 400] {
                let netlist = random_netlist(seed, 6, 300, window);
                for config in CONFIGS {
                    let expected = reference(&netlist, config);
                    let analysis = ReconvergenceAnalysis::with_config(&netlist, config);
                    assert_eq!(
                        analysis, expected,
                        "seed {seed}, window {window}, {config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_merge_matches_reference_on_random_aigs() {
        for seed in 0..16 {
            for (inputs, latches, ands) in [(4, 0, 60), (8, 3, 300), (24, 0, 600)] {
                let aig = crate::aiger::random_aig(seed, inputs, latches, ands);
                for config in CONFIGS {
                    let expected = reference(&aig, config);
                    let analysis = ReconvergenceAnalysis::with_config(&aig, config);
                    assert_eq!(analysis, expected, "seed {seed}, {ands} ANDs, {config:?}");
                }
            }
        }
    }

    #[test]
    fn live_sets_are_bounded_by_the_frontier() {
        // Every fan-in lies within the previous 8 nodes, so at most 8 sets
        // wait for a reader when the 9th is stored: the slab stays at 9
        // slots of at most a full set and its head however long the circuit
        // grows, where keeping every set would hold one per gate.
        let config = ReconvergenceConfig::default();
        for gates in [500, 5000] {
            let netlist = random_netlist(7, 6, gates, 8);
            let (analysis, slab) = analyse(&netlist, config);
            assert!(analysis.num_reconvergence_nodes() > gates / 2);
            let slots = slab.slots.len();
            assert!(slots <= slab.peak_live, "{slots} slots");
            assert!(slab.peak_live <= 9, "{} live sets", slab.peak_live);
            let words: usize = slab.slots.iter().map(Vec::capacity).sum();
            assert!(
                words <= slots * (config.max_tracked_stems + 1),
                "{words} words in {slots} slots"
            );
        }
    }

    #[test]
    fn detects_simple_reconvergence() {
        let (aig, stem, recon) = reconvergent_aig();
        let analysis = ReconvergenceAnalysis::of(&aig);
        let info = analysis.info(recon).expect("reconvergence detected");
        assert_eq!(info.source, stem);
        assert_eq!(info.level_difference, 2);
        assert_eq!(analysis.num_reconvergence_nodes(), 1);
        assert!(analysis.num_stems() >= 1);
        let reconvergent: Vec<usize> = (0..aig.len())
            .filter(|&node| analysis.per_node()[node].is_some())
            .collect();
        assert_eq!(reconvergent, [recon]);
    }

    #[test]
    fn tree_circuit_has_no_reconvergence() {
        let mut aig = Aig::new("tree");
        let inputs: Vec<AigLit> = (0..8).map(|i| aig.add_input(format!("x{i}"))).collect();
        let y = aig.and_many(&inputs);
        aig.add_output(y, "y");
        let analysis = ReconvergenceAnalysis::of(&aig);
        assert_eq!(analysis.num_reconvergence_nodes(), 0);
        assert!(analysis.per_node().iter().all(Option::is_none));
    }

    #[test]
    fn xor_structure_is_reconvergent() {
        // xor(a, b) reconverges on both a and b; the closest stem must be
        // reported with level difference within the xor depth.
        let mut aig = Aig::new("xor");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output(x, "y");
        let analysis = ReconvergenceAnalysis::of(&aig);
        let info = analysis.info(x.node()).expect("xor output reconverges");
        assert!(info.source == a.node() || info.source == b.node());
        assert_eq!(info.level_difference, 2);
    }

    #[test]
    fn respects_level_distance_bound() {
        let (aig, _, recon) = reconvergent_aig();
        let config = ReconvergenceConfig {
            max_level_distance: 1,
            max_tracked_stems: 8,
        };
        let analysis = ReconvergenceAnalysis::with_config(&aig, config);
        assert!(analysis.info(recon).is_none());
    }

    #[test]
    fn positional_encoding_shape_and_range() {
        let enc = positional_encoding(5, 8);
        assert_eq!(enc.len(), 16);
        assert!(enc.iter().all(|v| (-1.0..=1.0).contains(v)));
        // Distance 0 encodes as alternating (0, 1) pairs.
        let zero = positional_encoding(0, 4);
        for pair in zero.chunks(2) {
            assert!((pair[0] - 0.0).abs() < 1e-6);
            assert!((pair[1] - 1.0).abs() < 1e-6);
        }
        // Different distances produce different encodings.
        assert_ne!(positional_encoding(1, 8), positional_encoding(2, 8));
    }

    #[test]
    fn netlist_analysis_detects_reconvergence_through_nots() {
        use deepgate_netlist::GateKind;
        let mut n = Netlist::new("recon");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let stem = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let inv = n.add_gate(GateKind::Not, &[stem]).unwrap();
        let p1 = n.add_gate(GateKind::And, &[stem, c]).unwrap();
        let p2 = n.add_gate(GateKind::And, &[inv, c]).unwrap();
        let recon = n.add_gate(GateKind::And, &[p1, p2]).unwrap();
        n.mark_output(recon, "y");
        let analysis = ReconvergenceAnalysis::of(&n);
        let info = analysis.info(recon.index()).expect("reconvergence found");
        // Both c and stem reconverge at `recon`; the closest is reported.
        assert!(info.source == stem.index() || info.source == c.index());
        assert!(analysis.num_reconvergence_nodes() >= 1);
    }

    #[test]
    fn closest_stem_is_preferred() {
        // Two nested reconvergences: an outer stem far away and an inner stem
        // close by; the inner one must be chosen.
        let mut aig = Aig::new("nested");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let outer = aig.and(a, b); // stem 1
        let l = aig.and(outer, c);
        let r = aig.and(outer, a);
        let inner_l = aig.and(l, r); // reconverges on outer
        let inner_r = aig.and(l, r.complement());
        // inner stem: both l and r have fanout 2 now
        let top = aig.and(inner_l, inner_r);
        aig.add_output(top, "y");
        let analysis = ReconvergenceAnalysis::of(&aig);
        let info = analysis.info(top.node()).expect("top reconverges");
        // The closest reconvergence sources for `top` are l or r (distance 2),
        // not `outer` (distance 3).
        assert!(info.source == l.node() || info.source == r.node());
        assert_eq!(info.level_difference, 2);
    }
}
