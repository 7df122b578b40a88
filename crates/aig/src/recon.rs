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
//! Memory is proportional to the *frontier*, not to the circuit: a stem set
//! lives only from the node that computes it to its last reader (the
//! highest-indexed gate that has it as a fan-in), and is freed right after
//! that reader's merge. Each set is kept sorted by descending stem level, so
//! the level window a reader keeps is a prefix and the fan-in sets merge in
//! one pass, level group by level group, into a reused buffer.

use deepgate_netlist::Dag;
use serde::{Deserialize, Serialize};

/// Configuration of the reconvergence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconvergenceConfig {
    /// Maximum logic-level distance between a stem and a reconvergence node;
    /// stems further away are not tracked (their influence on the node's
    /// signal probability decays with distance, which is exactly the prior
    /// the positional encoding captures).
    pub max_level_distance: usize,
    /// Maximum number of candidate stems tracked per node; the closest stems
    /// are kept when the budget is exceeded.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconvergenceInfo {
    /// Node index of the source fan-out stem.
    pub source: usize,
    /// Logic-level difference between the reconvergence node and the stem.
    pub level_difference: usize,
}

/// Result of analysing a circuit (any [`Dag`]) for reconvergence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconvergenceAnalysis {
    per_node: Vec<Option<ReconvergenceInfo>>,
    num_stems: usize,
}

impl ReconvergenceAnalysis {
    /// Runs the analysis with the default configuration.
    pub fn of(dag: &impl Dag) -> Self {
        Self::with_config(dag, ReconvergenceConfig::default())
    }

    /// Runs the analysis with an explicit configuration.
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
}

/// The stem-set propagation behind both entry points.
///
/// A node is reconvergent when some fan-out stem is visible in the bounded
/// transitive fan-in of at least two of its fan-in branches; the closest such
/// stem (smallest level difference) is recorded.
///
/// A stored set is sorted by descending stem level and, within one level, in
/// the order its stems were first reached through the fan-ins taken in
/// fan-in order. The merge keeps that order, so both the stem that wins a
/// tie on level difference and the stems that survive the
/// `max_tracked_stems` cut are fixed by the circuit alone.
///
/// Also returns the peak number of stems held in live sets at once — the
/// frontier the memory is proportional to.
fn analyse(dag: &impl Dag, config: ReconvergenceConfig) -> (ReconvergenceAnalysis, usize) {
    let n = dag.num_nodes();
    let (levels, _) = dag.levels();
    let fanout_counts = dag.fanout_counts();
    let is_stem = |node: usize| fanout_counts[node] >= 2;
    let num_stems = (0..n).filter(|&node| is_stem(node)).count();
    // The last gate that reads each node's set; a node no gate reads (0
    // here, as readers come later) never stores one.
    let mut last_reader = vec![0usize; n];
    for i in 0..n {
        for f in dag.fanins(i) {
            last_reader[f] = i;
        }
    }

    let mut stem_sets: Vec<Box<[Stem]>> = vec![Box::default(); n];
    let mut per_node: Vec<Option<ReconvergenceInfo>> = vec![None; n];
    let mut branches: Vec<Branch> = Vec::new();
    let mut group: Vec<(usize, bool)> = Vec::new();
    let mut merged: Vec<Stem> = Vec::new();
    let (mut live, mut peak_live) = (0, 0);
    for i in 0..n {
        let level_i = levels[i];
        let floor = level_i.saturating_sub(config.max_level_distance);

        // Stems reached through each fan-in branch: the branch node itself
        // when it is a stem in the window, then the window of its set — a
        // prefix, as the set is sorted by descending level and every stem in
        // it sits below its owner, which sits below this node.
        branches.clear();
        for f in dag.fanins(i) {
            let head =
                (is_stem(f) && (floor..=level_i).contains(&levels[f])).then_some((levels[f], f));
            branches.push(Branch {
                head,
                node: f,
                next: 0,
                end: stem_sets[f].partition_point(|&(level, _)| level >= floor),
            });
        }
        if branches.is_empty() {
            continue;
        }

        // Merge level group by level group, highest level first. A stem
        // seen through two branches is shared; the first shared one is the
        // closest, i.e. the reconvergence source.
        merged.clear();
        let mut best: Option<ReconvergenceInfo> = None;
        while let Some(level) = branches
            .iter()
            .filter_map(|b| b.peek(&stem_sets))
            .map(|(level, _)| level)
            .max()
        {
            group.clear();
            for branch in &mut branches {
                while let Some((_, s)) = branch.peek(&stem_sets).filter(|&(l, _)| l == level) {
                    branch.advance();
                    match group.iter_mut().find(|(g, _)| *g == s) {
                        Some((_, shared)) => *shared = true,
                        None => group.push((s, false)),
                    }
                }
            }
            if best.is_none() {
                best = group
                    .iter()
                    .find(|(_, shared)| *shared)
                    .map(|&(source, _)| ReconvergenceInfo {
                        source,
                        level_difference: level_i - level,
                    });
            }
            let room = config.max_tracked_stems - merged.len();
            merged.extend(group.iter().take(room).map(|&(s, _)| (level, s)));
            if best.is_some() && merged.len() == config.max_tracked_stems {
                break;
            }
        }
        per_node[i] = best;
        if last_reader[i] > i {
            stem_sets[i] = merged.as_slice().into();
            live += merged.len();
            peak_live = peak_live.max(live);
        }

        // Free every fan-in set this node was the last reader of.
        for f in dag.fanins(i) {
            if last_reader[f] == i {
                live -= stem_sets[f].len();
                stem_sets[f] = Box::default();
            }
        }
    }

    let analysis = ReconvergenceAnalysis {
        per_node,
        num_stems,
    };
    (analysis, peak_live)
}

/// A stem in a stored set as `(level, node)`: the level rides along so the
/// window search and the merge compare levels without looking them up.
type Stem = (usize, usize);

/// A merge cursor over one fan-in branch: the fan-in node itself first when
/// it is a stem in the window (`head`), then its set's window `next..end`.
struct Branch {
    head: Option<Stem>,
    node: usize,
    next: usize,
    end: usize,
}

impl Branch {
    fn peek(&self, stem_sets: &[Box<[Stem]>]) -> Option<Stem> {
        self.head
            .or_else(|| (self.next < self.end).then(|| stem_sets[self.node][self.next]))
    }

    fn advance(&mut self) {
        if self.head.take().is_none() {
            self.next += 1;
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
        let (levels, _) = dag.levels();
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
        // wait for a reader while the 9th is stored: the live stems stay
        // under 9 full sets however long the circuit grows, where keeping
        // every set would hold one per gate.
        let config = ReconvergenceConfig::default();
        for gates in [500, 5000] {
            let netlist = random_netlist(7, 6, gates, 8);
            let (analysis, peak_live) = analyse(&netlist, config);
            assert!(analysis.num_reconvergence_nodes() > gates / 2);
            assert!(
                peak_live <= 9 * config.max_tracked_stems,
                "{peak_live} live stems"
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
