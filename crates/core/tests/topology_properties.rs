//! Property tests for the static topology builders: exact edge counts for
//! the regular families, structural invariants of `from_edges` (symmetry,
//! sortedness, dedup), and connectivity across all builders and sizes.
//! Also the equivalence of the two ways to mutate a `DynamicTopology`:
//! one call at a time, or in batches.

use std::collections::BTreeSet;

use gossip_core::{DynamicTopology, NodeId, Rng, Topology, TopologyBatch};

/// Every adjacency list is sorted, duplicate-free, self-loop-free, and
/// symmetric (`v ∈ adj[u]` iff `u ∈ adj[v]`).
fn assert_well_formed(t: &Topology) {
    for u in 0..t.num_nodes() {
        let u = NodeId(u as u32);
        let neighbors = t.neighbors(u);
        assert!(
            neighbors.windows(2).all(|w| w[0] < w[1]),
            "{}: neighbors of {u} not strictly sorted (dup or disorder)",
            t.name()
        );
        for &v in neighbors {
            assert_ne!(v, u, "{}: self-loop at {u}", t.name());
            assert!(
                t.are_neighbors(v, u),
                "{}: asymmetric edge {u} -> {v}",
                t.name()
            );
        }
    }
    // Degree sum is even and consistent with the edge count.
    let degree_sum: usize = (0..t.num_nodes()).map(|u| t.degree(NodeId(u as u32))).sum();
    assert_eq!(degree_sum, 2 * t.num_edges(), "{}", t.name());
}

#[test]
fn line_edge_counts_and_connectivity() {
    for n in 1..=40 {
        let t = Topology::line(n);
        assert_eq!(t.num_edges(), n - 1, "line({n})");
        assert!(t.is_connected(), "line({n})");
        assert_well_formed(&t);
    }
}

#[test]
fn ring_edge_counts_and_regularity() {
    for n in 1..=40 {
        let t = Topology::ring(n);
        let expected = match n {
            1 => 0,
            2 => 1,
            n => n,
        };
        assert_eq!(t.num_edges(), expected, "ring({n})");
        assert!(t.is_connected(), "ring({n})");
        assert_well_formed(&t);
        if n >= 3 {
            for u in 0..n {
                assert_eq!(t.degree(NodeId(u as u32)), 2, "ring({n}) node {u}");
            }
        }
    }
}

#[test]
fn grid_edge_counts_match_the_lattice() {
    // Independent count: `rows = floor(sqrt n)`, `cols = ceil(n / rows)`,
    // nodes laid out row-major; horizontal edges join row-adjacent cells,
    // vertical edges join column-adjacent cells.
    for n in 1..=80 {
        let t = Topology::grid(n);
        let rows = (n as f64).sqrt().floor().max(1.0) as usize;
        let cols = n.div_ceil(rows);
        let horizontal = (0..n).filter(|i| i % cols + 1 < cols && i + 1 < n).count();
        let vertical = (0..n).filter(|i| i + cols < n).count();
        assert_eq!(t.num_edges(), horizontal + vertical, "grid({n})");
        assert!(t.is_connected(), "grid({n})");
        assert_well_formed(&t);
        for u in 0..n {
            assert!(t.degree(NodeId(u as u32)) <= 4, "grid({n}) node {u}");
        }
    }
}

#[test]
fn complete_edge_counts() {
    for n in 1..=30 {
        let t = Topology::complete(n);
        assert_eq!(t.num_edges(), n * (n - 1) / 2, "complete({n})");
        assert!(t.is_connected(), "complete({n})");
        assert_well_formed(&t);
    }
}

#[test]
fn random_geometric_is_connected_and_well_formed_across_seeds() {
    for seed in 0..8 {
        let mut rng = Rng::new(seed);
        let t = Topology::random_geometric(40, &mut rng);
        assert!(t.is_connected(), "rgg seed {seed}");
        assert_well_formed(&t);
    }
}

#[test]
fn rgg_geometry_matches_the_graph() {
    // The returned point set and radius must reproduce exactly the edges
    // the builder chose — the contract mobility models depend on.
    let mut rng = Rng::new(17);
    let (t, geometry) = Topology::random_geometric_with_geometry(50, &mut rng);
    assert_eq!(geometry.positions().len(), 50);
    for u in 0..50u32 {
        let derived = geometry.neighbors_of(NodeId(u));
        assert_eq!(
            derived,
            t.neighbors(NodeId(u)).to_vec(),
            "geometry-derived neighbors of {u} diverge from the graph"
        );
    }
}

#[test]
fn from_edges_dedups_and_symmetrizes() {
    // Duplicates (in both orientations) and self-loops collapse away.
    let t = Topology::from_edges(
        "messy",
        5,
        &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 4), (4, 3), (1, 4)],
    );
    assert_eq!(t.num_edges(), 3);
    assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
    assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0), NodeId(4)]);
    assert_eq!(t.neighbors(NodeId(2)), &[] as &[NodeId]);
    assert_well_formed(&t);
}

#[test]
fn from_edges_random_inputs_stay_well_formed() {
    for seed in 0..10 {
        let mut rng = Rng::new(1000 + seed);
        let n = 2 + rng.gen_range(30);
        let m = rng.gen_range(3 * n);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(n) as u32, rng.gen_range(n) as u32))
            .collect();
        let t = Topology::from_edges("random", n, &edges);
        assert_well_formed(&t);
        // Every requested non-loop edge is present.
        for &(u, v) in &edges {
            if u != v {
                assert!(
                    t.are_neighbors(NodeId(u), NodeId(v)),
                    "seed {seed}: {u}-{v}"
                );
            }
        }
    }
}

#[test]
fn builders_degrade_gracefully_on_empty_graphs() {
    for t in [
        Topology::line(0),
        Topology::ring(0),
        Topology::grid(0),
        Topology::complete(0),
        Topology::from_edges("empty", 0, &[]),
    ] {
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_edges(), 0);
        assert!(t.is_connected(), "empty graph counts as connected");
    }
}

/// One mutation of a storm, drawn once and replayed on both paths.
#[derive(Clone, Debug)]
enum Op {
    Kill(NodeId),
    Revive(NodeId),
    Fade(NodeId, NodeId),
    Restore(NodeId, NodeId),
    Rewire(NodeId, Vec<NodeId>),
}

impl Op {
    fn apply(&self, t: &mut DynamicTopology) -> bool {
        match self {
            Op::Kill(u) => t.kill(*u),
            Op::Revive(u) => t.revive(*u),
            Op::Fade(u, v) => t.fade_edge(*u, *v),
            Op::Restore(u, v) => t.restore_edge(*u, *v),
            Op::Rewire(u, fresh) => {
                t.rewire(*u, fresh);
                true
            }
        }
    }

    fn apply_in(&self, b: &mut TopologyBatch<'_>) -> bool {
        match self {
            Op::Kill(u) => b.kill(*u),
            Op::Revive(u) => b.revive(*u),
            Op::Fade(u, v) => b.fade_edge(*u, *v),
            Op::Restore(u, v) => b.restore_edge(*u, *v),
            Op::Rewire(u, fresh) => {
                b.rewire(*u, fresh);
                true
            }
        }
    }
}

/// A set-based model of the base graph, fade flags and alive mask, to
/// check that every active list is the base list filtered by
/// `alive && !faded`.
struct Model {
    base: Vec<BTreeSet<u32>>,
    faded: BTreeSet<(u32, u32)>,
    alive: Vec<bool>,
}

impl Model {
    fn new(t: &Topology) -> Self {
        let n = t.num_nodes();
        Model {
            base: (0..n)
                .map(|u| t.neighbors(NodeId(u as u32)).iter().map(|v| v.0).collect())
                .collect(),
            faded: BTreeSet::new(),
            alive: vec![true; n],
        }
    }

    fn edge(u: NodeId, v: NodeId) -> (u32, u32) {
        (u.0.min(v.0), u.0.max(v.0))
    }

    /// Mirror `op`, given whether the topology reported a change.
    fn apply(&mut self, op: &Op, changed: bool) {
        match op {
            Op::Kill(u) => self.alive[u.index()] = false,
            Op::Revive(u) => self.alive[u.index()] = true,
            Op::Fade(u, v) if changed => {
                self.faded.insert(Self::edge(*u, *v));
            }
            Op::Restore(u, v) if changed => {
                self.faded.remove(&Self::edge(*u, *v));
            }
            Op::Fade(..) | Op::Restore(..) => {}
            Op::Rewire(u, fresh) => {
                for w in std::mem::take(&mut self.base[u.index()]) {
                    self.base[w as usize].remove(&u.0);
                    self.faded.remove(&Self::edge(*u, NodeId(w)));
                }
                for &f in fresh {
                    if f != *u && f.index() < self.alive.len() {
                        self.base[u.index()].insert(f.0);
                        self.base[f.index()].insert(u.0);
                    }
                }
            }
        }
    }

    fn active(&self, u: usize) -> Vec<NodeId> {
        if !self.alive[u] {
            return Vec::new();
        }
        self.base[u]
            .iter()
            .filter(|&&v| {
                self.alive[v as usize]
                    && !self
                        .faded
                        .contains(&Self::edge(NodeId(u as u32), NodeId(v)))
            })
            .map(|&v| NodeId(v))
            .collect()
    }
}

/// Draw the next storm op from the one-at-a-time copy's current state,
/// so fades mostly hit live edges and restores mostly hit faded ones.
fn draw_op(rng: &mut Rng, t: &DynamicTopology, faded: &[(NodeId, NodeId)]) -> Op {
    let n = t.num_nodes();
    let u = NodeId(rng.gen_range(n) as u32);
    match rng.gen_range(10) {
        0..=2 => Op::Kill(u),
        3..=5 => Op::Revive(u),
        6 | 7 => {
            let active = t.active_neighbors(u);
            let v = if active.is_empty() || rng.gen_range(8) == 0 {
                NodeId(rng.gen_range(n) as u32)
            } else {
                active[rng.gen_range(active.len())]
            };
            Op::Fade(u, v)
        }
        8 if !faded.is_empty() => {
            let (a, b) = faded[rng.gen_range(faded.len())];
            Op::Restore(b, a)
        }
        8 => Op::Restore(u, NodeId(rng.gen_range(n) as u32)),
        _ => {
            // Up to 12 peers outgrows ring and grid slots, so rewires
            // relocate slots mid-batch; self-loops, duplicates and one
            // out-of-range id exercise the input cleaning.
            let deg = rng.gen_range(13);
            let mut fresh: Vec<NodeId> =
                (0..deg).map(|_| NodeId(rng.gen_range(n) as u32)).collect();
            if rng.gen_range(4) == 0 {
                fresh.push(u);
                fresh.push(NodeId(n as u32 + 3));
            }
            Op::Rewire(u, fresh)
        }
    }
}

/// Run a seeded storm on `topo` twice — one call at a time, and cut into
/// batches of random size — and require the same return values, the
/// same alive state, and identical active lists at every batch end, each
/// equal to its node's base list filtered by `alive && !faded`.
fn check_batches_match_single_calls(topo: &Topology, seed: u64, ops: usize) {
    let name = topo.name();
    let mut rng = Rng::new(seed);
    let mut single = DynamicTopology::new(topo);
    let mut batched = DynamicTopology::new(topo);
    let mut model = Model::new(topo);
    let mut faded: Vec<(NodeId, NodeId)> = Vec::new();
    let mut done = 0;
    while done < ops {
        let size = rng.gen_range(41);
        let mut batch = batched.batch();
        for _ in 0..size {
            let op = draw_op(&mut rng, &single, &faded);
            let want = op.apply(&mut single);
            let got = op.apply_in(&mut batch);
            assert_eq!(got, want, "{name} seed {seed}: {op:?} returned differently");
            for u in 0..single.num_nodes() as u32 {
                assert_eq!(batch.is_alive(NodeId(u)), single.is_alive(NodeId(u)));
            }
            assert_eq!(batch.alive_count(), single.alive_count());
            model.apply(&op, want);
            match op {
                Op::Fade(u, v) if want => faded.push((u, v)),
                Op::Restore(..) | Op::Rewire(..) => {
                    faded.retain(|&(a, b)| model.faded.contains(&Model::edge(a, b)));
                }
                _ => {}
            }
        }
        drop(batch);
        done += size;
        assert_eq!(batched.alive_count(), single.alive_count());
        assert_eq!(batched.active_edge_count(), single.active_edge_count());
        for u in 0..single.num_nodes() {
            let node = NodeId(u as u32);
            assert_eq!(
                batched.active_neighbors(node),
                single.active_neighbors(node),
                "{name} seed {seed}: node {u} after {done} ops"
            );
            assert_eq!(
                batched.active_neighbors(node),
                model.active(u),
                "{name} seed {seed}: node {u} is not filter(base, alive && !faded)"
            );
        }
    }
}

#[test]
fn batched_mutations_match_one_at_a_time_calls() {
    for seed in 1..=4u64 {
        check_batches_match_single_calls(&Topology::ring(40), seed, 1500);
        check_batches_match_single_calls(&Topology::grid(49), seed, 1500);
        let rgg = Topology::random_geometric(150, &mut Rng::new(seed));
        check_batches_match_single_calls(&rgg, seed, 1500);
    }
}

#[test]
fn a_rewire_that_relocates_slots_inside_a_batch_settles_correctly() {
    let topo = Topology::ring(8);
    let ids = |raw: &[u32]| raw.iter().map(|&v| NodeId(v)).collect::<Vec<_>>();
    let mut single = DynamicTopology::new(&topo);
    let mut batched = DynamicTopology::new(&topo);
    // Node 0's slot holds 2 entries: a rewire to 6 peers relocates it,
    // and the peers' full slots relocate as 0 joins them. A second rewire
    // and a fade then work on the moved slots within the same batch.
    let ops = [
        Op::Kill(NodeId(3)),
        Op::Rewire(NodeId(0), ids(&[2, 3, 4, 5, 6, 7])),
        Op::Fade(NodeId(0), NodeId(5)),
        Op::Rewire(NodeId(4), ids(&[0, 1, 2, 6])),
        Op::Revive(NodeId(3)),
        Op::Restore(NodeId(5), NodeId(0)),
        Op::Fade(NodeId(0), NodeId(4)),
    ];
    {
        let mut batch = batched.batch();
        for op in &ops {
            assert_eq!(op.apply_in(&mut batch), op.apply(&mut single), "{op:?}");
        }
    }
    for u in 0..8u32 {
        assert_eq!(
            batched.active_neighbors(NodeId(u)),
            single.active_neighbors(NodeId(u)),
            "node {u}"
        );
    }
    assert_eq!(batched.active_neighbors(NodeId(0)), ids(&[2, 3, 5, 6, 7]));
    assert_eq!(batched.active_neighbors(NodeId(4)), ids(&[1, 2, 6]));
}
