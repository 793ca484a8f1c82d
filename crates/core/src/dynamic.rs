//! A mutable topology for networks that change under the protocol's feet.
//!
//! Smartphone peer-to-peer networks are unstable: devices power off and
//! return (churn), links flap with interference (fading), and devices move,
//! re-deriving which peers are in radio range (mobility). [`DynamicTopology`]
//! wraps a static [`Topology`] with the mutation operations those processes
//! need, while keeping the read path as cheap as the static graph:
//!
//! - an **alive mask** with `O(1)` [`is_alive`](DynamicTopology::is_alive)
//!   checks and a maintained alive count,
//! - a **faded-edge overlay** so interference can hide a base edge without
//!   forgetting it,
//! - a mutable **base adjacency** so mobility can rewire a node wholesale,
//! - and, the key piece, a **maintained active adjacency**: per node, the
//!   sorted list of neighbors that are alive and reachable over a
//!   non-faded edge. Reads ([`GraphView`]) are exactly as fast as on a
//!   static [`Topology`]; mutations pay for keeping the lists current.
//!
//! # Two ways to mutate
//!
//! The one-mutation methods ([`kill`](DynamicTopology::kill),
//! [`revive`](DynamicTopology::revive), …) update every affected active
//! list **incrementally**: a departure removes the node from each of its
//! neighbors' lists with a binary search and a shift. That is the cheapest
//! way to change one entry per list, and it is what an engine that
//! interleaves single mutations with reads (the serial event-driven
//! oracle) needs.
//!
//! An engine that applies many mutations before it next reads — the sync
//! engine at a round boundary, the sliced engine at a slice start — opens
//! a [`TopologyBatch`] with [`batch`](DynamicTopology::batch) instead.
//! Batched mutations update the alive mask, base adjacency and fade flags
//! at once but only *mark* the active lists they touch; dropping the guard
//! rebuilds each marked list once from its node's base slot. Under heavy
//! churn most lists are touched many times per round, so settling each
//! once wins. For a single mutation it loses: a rebuild rewrites a whole
//! list to change one entry, which is why both paths exist. They are held
//! equal by a property test: after each batch every active list is the
//! one the same calls would have produced one at a time.
//!
//! # Memory layout
//!
//! Like the static [`Topology`], adjacency lives in **flat slabs**, not
//! per-node `Vec`s: each node owns a capacity slot in three parallel
//! arrays — `base` (sorted base neighbors), `faded` (per-base-edge fade
//! flags, replacing the old `HashSet<(u32, u32)>` probe with a binary
//! search in the node's own slot), and `active` (the sorted active
//! sublist). Churn and fading shift entries within a slot; a mobility
//! rewire that outgrows its slot relocates to the slab tail, and the slab
//! compacts itself once relocation waste dominates. Everything is index
//! arithmetic over three contiguous buffers — no hashing, no per-node
//! allocation on the mutation path, and deterministic iteration order
//! everywhere.
//!
//! Dead nodes read as isolated: their active neighbor list is empty and
//! they appear in no other node's list, so protocols — which only ever see
//! neighbor snapshots — naturally ignore them without any scheduler-side
//! special casing.

use crate::topology::GraphView;
use crate::{NodeId, Topology};

/// A [`Topology`] plus an alive-node set, a faded-edge overlay, and
/// incrementally maintained active-neighbor views, all in flat slab
/// storage. See the module docs.
#[derive(Clone, Debug)]
pub struct DynamicTopology {
    name: String,
    /// Slot start of node `u` in the slabs.
    start: Vec<u32>,
    /// Slot capacity of node `u`.
    cap: Vec<u32>,
    /// Base neighbors used in `u`'s slot (sorted prefix).
    base_len: Vec<u32>,
    /// Active neighbors used in `u`'s slot (sorted prefix).
    active_len: Vec<u32>,
    /// Slab of base adjacency, including edges of dead nodes and faded
    /// edges. Mobility rewires mutate this; churn and fading do not.
    base: Vec<NodeId>,
    /// Parallel to `base`: is this base edge currently faded out?
    /// (Maintained symmetrically on both endpoints' slots.)
    faded: Vec<bool>,
    /// Slab of the adjacency actually visible to protocols: both
    /// endpoints alive and the edge not faded.
    active: Vec<NodeId>,
    alive: Vec<bool>,
    alive_count: usize,
    /// Slab capacity stranded by slot relocations, pending compaction.
    waste: usize,
    /// One bit per node whose active prefix the open [`TopologyBatch`]
    /// must rebuild; all clear outside a batch.
    dirty: Vec<u64>,
}

impl DynamicTopology {
    /// Start from a static topology: everyone alive, every edge active.
    pub fn new(topology: &Topology) -> Self {
        let n = topology.num_nodes();
        let start: Vec<u32> = topology.offsets[..n].to_vec();
        let degrees: Vec<u32> = (0..n)
            .map(|u| topology.offsets[u + 1] - topology.offsets[u])
            .collect();
        DynamicTopology {
            name: topology.name().to_string(),
            start,
            cap: degrees.clone(),
            base_len: degrees.clone(),
            active_len: degrees,
            base: topology.edges.clone(),
            faded: vec![false; topology.edges.len()],
            active: topology.edges.clone(),
            alive: vec![true; n],
            alive_count: n,
            waste: 0,
            dirty: vec![0; n.div_ceil(64)],
        }
    }

    /// Name of the underlying topology builder.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes, alive or not.
    pub fn num_nodes(&self) -> usize {
        self.alive.len()
    }

    /// Is `node` currently alive? `O(1)`.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// The full alive mask, indexed by node id — what a sharded round
    /// loop hands its workers so they can skip dead nodes without
    /// touching the topology.
    #[inline]
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// How many nodes are currently alive.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Sorted neighbors of `node` that are alive and reachable over a
    /// non-faded edge. Empty for a dead node.
    #[inline]
    pub fn active_neighbors(&self, node: NodeId) -> &[NodeId] {
        let u = node.index();
        let s = self.start[u] as usize;
        &self.active[s..s + self.active_len[u] as usize]
    }

    /// Number of currently active undirected edges.
    pub fn active_edge_count(&self) -> usize {
        self.active_len.iter().map(|&l| l as usize).sum::<usize>() / 2
    }

    fn base_slice(&self, u: usize) -> &[NodeId] {
        let s = self.start[u] as usize;
        &self.base[s..s + self.base_len[u] as usize]
    }

    /// Absolute slab index of base edge `u — v`, if present.
    fn base_pos(&self, u: usize, v: NodeId) -> Option<usize> {
        self.base_slice(u)
            .binary_search(&v)
            .ok()
            .map(|i| self.start[u] as usize + i)
    }

    /// Insert `v` into `u`'s sorted active prefix. No-op if present.
    fn active_insert(&mut self, u: usize, v: NodeId) {
        let s = self.start[u] as usize;
        let len = self.active_len[u] as usize;
        if let Err(i) = self.active[s..s + len].binary_search(&v) {
            debug_assert!(len < self.cap[u] as usize, "active exceeds slot");
            self.active.copy_within(s + i..s + len, s + i + 1);
            self.active[s + i] = v;
            self.active_len[u] += 1;
        }
    }

    /// Remove `v` from `u`'s sorted active prefix. No-op if absent.
    fn active_remove(&mut self, u: usize, v: NodeId) {
        let s = self.start[u] as usize;
        let len = self.active_len[u] as usize;
        if let Ok(i) = self.active[s..s + len].binary_search(&v) {
            self.active.copy_within(s + i + 1..s + len, s + i);
            self.active_len[u] -= 1;
        }
    }

    /// Insert `v` (un-faded) into `u`'s sorted base prefix, growing the
    /// slot if full. No-op if present.
    fn base_insert(&mut self, u: usize, v: NodeId) {
        if self.base_len[u] == self.cap[u] {
            self.grow_slot(u, self.base_len[u] as usize + 1);
        }
        let s = self.start[u] as usize;
        let len = self.base_len[u] as usize;
        if let Err(i) = self.base[s..s + len].binary_search(&v) {
            self.base.copy_within(s + i..s + len, s + i + 1);
            self.faded.copy_within(s + i..s + len, s + i + 1);
            self.base[s + i] = v;
            self.faded[s + i] = false;
            self.base_len[u] += 1;
        }
    }

    /// Remove `v` from `u`'s sorted base prefix (and its fade flag).
    /// No-op if absent.
    fn base_remove(&mut self, u: usize, v: NodeId) {
        let s = self.start[u] as usize;
        let len = self.base_len[u] as usize;
        if let Ok(i) = self.base[s..s + len].binary_search(&v) {
            self.base.copy_within(s + i + 1..s + len, s + i);
            self.faded.copy_within(s + i + 1..s + len, s + i);
            self.base_len[u] -= 1;
        }
    }

    /// Relocate `u`'s slot to the slab tail with capacity at least
    /// `need`, stranding the old capacity until the next compaction.
    fn grow_slot(&mut self, u: usize, need: usize) {
        let new_cap = need + need / 2 + 2;
        let old_s = self.start[u] as usize;
        let blen = self.base_len[u] as usize;
        let alen = self.active_len[u] as usize;
        let new_s = self.base.len();
        assert!(
            new_s + new_cap < u32::MAX as usize,
            "dynamic adjacency slab overflows u32 offsets"
        );
        self.base.resize(new_s + new_cap, NodeId(0));
        self.faded.resize(new_s + new_cap, false);
        self.active.resize(new_s + new_cap, NodeId(0));
        self.base.copy_within(old_s..old_s + blen, new_s);
        self.faded.copy_within(old_s..old_s + blen, new_s);
        self.active.copy_within(old_s..old_s + alen, new_s);
        self.waste += self.cap[u] as usize;
        self.start[u] = new_s as u32;
        self.cap[u] = new_cap as u32;
    }

    /// Rebuild the slabs compactly once relocation waste dominates the
    /// live data, leaving a little per-slot slack so the next few inserts
    /// do not immediately relocate again.
    fn maybe_compact(&mut self) {
        // Slot caps already exclude stranded slots (grow_slot swaps the
        // cap out as it adds the old one to waste), so their sum is the
        // live slab footprint.
        if self.waste < 256 {
            return;
        }
        let live: usize = self.cap.iter().map(|&c| c as usize).sum();
        if self.waste < live {
            return;
        }
        let n = self.num_nodes();
        let mut new_start = Vec::with_capacity(n);
        let mut new_cap = Vec::with_capacity(n);
        let mut total = 0usize;
        for u in 0..n {
            let blen = self.base_len[u] as usize;
            let cap = blen + blen / 4 + 2;
            new_start.push(total as u32);
            new_cap.push(cap as u32);
            total += cap;
        }
        let mut base = vec![NodeId(0); total];
        let mut faded = vec![false; total];
        let mut active = vec![NodeId(0); total];
        for (u, &ns) in new_start.iter().enumerate() {
            let (os, ns) = (self.start[u] as usize, ns as usize);
            let blen = self.base_len[u] as usize;
            let alen = self.active_len[u] as usize;
            base[ns..ns + blen].copy_from_slice(&self.base[os..os + blen]);
            faded[ns..ns + blen].copy_from_slice(&self.faded[os..os + blen]);
            active[ns..ns + alen].copy_from_slice(&self.active[os..os + alen]);
        }
        self.start = new_start;
        self.cap = new_cap;
        self.base = base;
        self.faded = faded;
        self.active = active;
        self.waste = 0;
    }

    /// Open a batch of mutations; see [`TopologyBatch`]. The active lists
    /// settle when the returned guard drops.
    pub fn batch(&mut self) -> TopologyBatch<'_> {
        TopologyBatch { topo: self }
    }

    /// Flip `u`'s alive bit to `up`. Returns false if it already was.
    fn set_alive(&mut self, u: usize, up: bool) -> bool {
        if self.alive[u] == up {
            return false;
        }
        self.alive[u] = up;
        if up {
            self.alive_count += 1;
        } else {
            self.alive_count -= 1;
        }
        true
    }

    /// Set the fade flag of base edge `u — v` on both endpoints' slots.
    /// Returns false if the edge is not in the base graph or the flag
    /// already had that value.
    fn set_faded(&mut self, u: NodeId, v: NodeId, faded: bool) -> bool {
        let Some(iu) = self.base_pos(u.index(), v) else {
            return false;
        };
        if self.faded[iu] == faded {
            return false;
        }
        let iv = self
            .base_pos(v.index(), u)
            .expect("base adjacency must be symmetric");
        self.faded[iu] = faded;
        self.faded[iv] = faded;
        true
    }

    /// Mark `u`'s active prefix for rebuild when the batch settles.
    #[inline]
    fn mark(&mut self, u: usize) {
        self.dirty[u / 64] |= 1 << (u % 64);
    }

    /// Mark `u` and every base neighbor of `u`.
    fn mark_neighborhood(&mut self, u: usize) {
        self.mark(u);
        let s = self.start[u] as usize;
        for k in s..s + self.base_len[u] as usize {
            self.mark(self.base[k].index());
        }
    }

    /// Rebuild every marked node's active prefix once, clear the mask,
    /// then compact if batched rewires stranded enough slab.
    fn settle(&mut self) {
        for w in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]);
            while bits != 0 {
                self.rebuild_active(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.maybe_compact();
    }

    /// Refill `u`'s active prefix from its base slot: the base neighbors
    /// that are alive over a non-faded edge, or nothing if `u` is dead.
    fn rebuild_active(&mut self, u: usize) {
        let s = self.start[u] as usize;
        let blen = if self.alive[u] {
            self.base_len[u] as usize
        } else {
            0
        };
        let base = &self.base[s..s + blen];
        let faded = &self.faded[s..s + blen];
        let active = &mut self.active[s..s + blen];
        let mut alen = 0usize;
        for (&v, &f) in base.iter().zip(faded) {
            // Branchless filter: always write, advance only on a keep.
            // base is sorted, so the kept prefix is too.
            active[alen] = v;
            alen += (self.alive[v.index()] & !f) as usize;
        }
        self.active_len[u] = alen as u32;
    }

    /// Take `node` down. Its active neighbor list empties and it vanishes
    /// from every neighbor's list. Returns false if it was already dead.
    pub fn kill(&mut self, node: NodeId) -> bool {
        let ui = node.index();
        if !self.set_alive(ui, false) {
            return false;
        }
        // Peers' removals shift only *their* slots, never ours, so an
        // index walk over our (untouched) active prefix is safe.
        for k in 0..self.active_len[ui] as usize {
            let v = self.active[self.start[ui] as usize + k];
            self.active_remove(v.index(), node);
        }
        self.active_len[ui] = 0;
        true
    }

    /// Bring `node` back up. Its active edges are rebuilt from the base
    /// adjacency, filtered by the alive mask and the faded-edge overlay.
    /// Returns false if it was already alive.
    pub fn revive(&mut self, node: NodeId) -> bool {
        let ui = node.index();
        if !self.set_alive(ui, true) {
            return false;
        }
        let s = self.start[ui] as usize;
        let mut alen = 0usize;
        for k in 0..self.base_len[ui] as usize {
            let v = self.base[s + k];
            if self.alive[v.index()] && !self.faded[s + k] {
                // base is sorted, so the filtered active prefix is too.
                self.active[s + alen] = v;
                alen += 1;
                self.active_insert(v.index(), node);
            }
        }
        self.active_len[ui] = alen as u32;
        true
    }

    /// Fade the base edge `u — v` out (interference). Returns false if the
    /// edge does not exist in the base graph or is already faded.
    pub fn fade_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.set_faded(u, v, true) {
            return false;
        }
        if self.alive[u.index()] && self.alive[v.index()] {
            self.active_remove(u.index(), v);
            self.active_remove(v.index(), u);
        }
        true
    }

    /// Restore a previously faded edge. Returns false if it was not faded.
    pub fn restore_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.set_faded(u, v, false) {
            return false;
        }
        if self.alive[u.index()] && self.alive[v.index()] {
            self.active_insert(u.index(), v);
            self.active_insert(v.index(), u);
        }
        true
    }

    /// Replace `node`'s base adjacency wholesale (mobility: the node moved
    /// and its radio range now covers a different peer set). Self-loops,
    /// duplicates, and out-of-range ids in `new_neighbors` are dropped.
    /// Fade state of the node's former edges is discarded. Works on dead
    /// nodes too — the new edges activate when the node revives.
    pub fn rewire(&mut self, node: NodeId, new_neighbors: &[NodeId]) {
        let ui = node.index();
        // Leave the old neighbors' active lists (their slots shift; ours
        // is only read).
        for k in 0..self.base_len[ui] as usize {
            let v = self.base[self.start[ui] as usize + k];
            self.active_remove(v.index(), node);
        }
        let fresh = self.replace_base(node, new_neighbors);
        if self.alive[ui] {
            // Our slot cannot relocate any more (only peers' slots grew),
            // and fresh is sorted, so pushing keeps the prefix ordered.
            let s = self.start[ui] as usize;
            let mut alen = 0usize;
            for &v in &fresh {
                if self.alive[v.index()] {
                    self.active[s + alen] = v;
                    alen += 1;
                    self.active_insert(v.index(), node);
                }
            }
            self.active_len[ui] = alen as u32;
        }
        self.maybe_compact();
    }

    /// The base-adjacency side of a rewire: detach `node` from its old
    /// neighbors' base slots, write the cleaned, sorted `new_neighbors`
    /// (un-faded) into its own slot, and add `node` to theirs. Empties
    /// `node`'s active prefix for the caller to refill, and returns the
    /// new neighbor list.
    fn replace_base(&mut self, node: NodeId, new_neighbors: &[NodeId]) -> Vec<NodeId> {
        let ui = node.index();
        for k in 0..self.base_len[ui] as usize {
            let v = self.base[self.start[ui] as usize + k];
            self.base_remove(v.index(), node);
        }
        self.base_len[ui] = 0;
        self.active_len[ui] = 0;

        let mut fresh: Vec<NodeId> = new_neighbors
            .iter()
            .copied()
            .filter(|&v| v != node && v.index() < self.alive.len())
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        if fresh.len() > self.cap[ui] as usize {
            self.grow_slot(ui, fresh.len());
        }
        let s = self.start[ui] as usize;
        for (k, &v) in fresh.iter().enumerate() {
            self.base[s + k] = v;
            self.faded[s + k] = false;
        }
        self.base_len[ui] = fresh.len() as u32;
        for &v in &fresh {
            self.base_insert(v.index(), node);
        }
        fresh
    }
}

/// A batch of mutations on a [`DynamicTopology`], open from
/// [`DynamicTopology::batch`] until the guard drops.
///
/// Each mutation updates the alive mask, the base adjacency and the fade
/// flags at once, so its return value, [`is_alive`](Self::is_alive) and
/// [`alive_count`](Self::alive_count) read exactly as after the same call
/// made one at a time. The active lists it touches are only marked; the
/// drop rebuilds each marked list once from its node's base slot. The
/// guard holds the topology's `&mut` borrow, so no half-settled active
/// list can be read while the batch is open.
pub struct TopologyBatch<'a> {
    topo: &'a mut DynamicTopology,
}

impl TopologyBatch<'_> {
    /// Is `node` alive, counting this batch's mutations so far?
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.topo.is_alive(node)
    }

    /// How many nodes are alive, counting this batch's mutations so far.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.topo.alive_count
    }

    /// Batched [`DynamicTopology::kill`].
    pub fn kill(&mut self, node: NodeId) -> bool {
        let changed = self.topo.set_alive(node.index(), false);
        if changed {
            self.topo.mark_neighborhood(node.index());
        }
        changed
    }

    /// Batched [`DynamicTopology::revive`].
    pub fn revive(&mut self, node: NodeId) -> bool {
        let changed = self.topo.set_alive(node.index(), true);
        if changed {
            self.topo.mark_neighborhood(node.index());
        }
        changed
    }

    /// Batched [`DynamicTopology::fade_edge`].
    pub fn fade_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.set_faded(u, v, true)
    }

    /// Batched [`DynamicTopology::restore_edge`].
    pub fn restore_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.set_faded(u, v, false)
    }

    fn set_faded(&mut self, u: NodeId, v: NodeId, faded: bool) -> bool {
        let changed = self.topo.set_faded(u, v, faded);
        if changed {
            self.topo.mark(u.index());
            self.topo.mark(v.index());
        }
        changed
    }

    /// Batched [`DynamicTopology::rewire`]. Compaction waits for the
    /// settle.
    pub fn rewire(&mut self, node: NodeId, new_neighbors: &[NodeId]) {
        self.topo.mark_neighborhood(node.index());
        for v in self.topo.replace_base(node, new_neighbors) {
            self.topo.mark(v.index());
        }
    }
}

impl Drop for TopologyBatch<'_> {
    fn drop(&mut self) {
        self.topo.settle();
    }
}

impl GraphView for DynamicTopology {
    fn num_nodes(&self) -> usize {
        DynamicTopology::num_nodes(self)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.active_neighbors(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&v| NodeId(v)).collect()
    }

    #[test]
    fn starts_identical_to_the_static_graph() {
        let topo = Topology::ring(6);
        let dt = DynamicTopology::new(&topo);
        assert_eq!(dt.alive_count(), 6);
        assert_eq!(dt.active_edge_count(), topo.num_edges());
        for u in 0..6u32 {
            assert_eq!(dt.active_neighbors(NodeId(u)), topo.neighbors(NodeId(u)));
        }
    }

    #[test]
    fn kill_isolates_and_revive_restores() {
        let topo = Topology::ring(5);
        let mut dt = DynamicTopology::new(&topo);
        assert!(dt.kill(NodeId(1)));
        assert!(!dt.kill(NodeId(1)), "double kill is a no-op");
        assert!(!dt.is_alive(NodeId(1)));
        assert_eq!(dt.alive_count(), 4);
        assert!(dt.active_neighbors(NodeId(1)).is_empty());
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[4]));
        assert_eq!(dt.active_neighbors(NodeId(2)), ids(&[3]));
        assert!(!dt.are_neighbors(NodeId(0), NodeId(1)));

        assert!(dt.revive(NodeId(1)));
        assert!(!dt.revive(NodeId(1)), "double revive is a no-op");
        assert_eq!(dt.alive_count(), 5);
        assert_eq!(dt.active_neighbors(NodeId(1)), ids(&[0, 2]));
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[1, 4]));
    }

    #[test]
    fn revive_respects_other_dead_nodes_and_fades() {
        let topo = Topology::complete(4);
        let mut dt = DynamicTopology::new(&topo);
        dt.kill(NodeId(2));
        dt.fade_edge(NodeId(0), NodeId(3));
        dt.kill(NodeId(0));
        dt.revive(NodeId(0));
        // 2 is still dead; 0—3 is still faded.
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[1]));
        assert_eq!(dt.active_neighbors(NodeId(3)), ids(&[1]));
    }

    #[test]
    fn fade_hides_and_restore_reveals() {
        let topo = Topology::ring(4);
        let mut dt = DynamicTopology::new(&topo);
        assert!(dt.fade_edge(NodeId(0), NodeId(1)));
        assert!(!dt.fade_edge(NodeId(1), NodeId(0)), "already faded");
        assert!(!dt.fade_edge(NodeId(0), NodeId(2)), "not a base edge");
        assert!(!dt.are_neighbors(NodeId(0), NodeId(1)));
        assert_eq!(dt.active_edge_count(), 3);

        assert!(dt.restore_edge(NodeId(1), NodeId(0)));
        assert!(!dt.restore_edge(NodeId(1), NodeId(0)), "not faded now");
        assert!(dt.are_neighbors(NodeId(0), NodeId(1)));
        assert_eq!(dt.active_edge_count(), 4);
    }

    #[test]
    fn faded_edge_stays_hidden_across_churn() {
        let topo = Topology::ring(4);
        let mut dt = DynamicTopology::new(&topo);
        dt.fade_edge(NodeId(0), NodeId(1));
        dt.kill(NodeId(0));
        dt.revive(NodeId(0));
        assert!(
            !dt.are_neighbors(NodeId(0), NodeId(1)),
            "fade survives churn"
        );
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[3]));
    }

    #[test]
    fn rewire_replaces_edges_symmetrically() {
        let topo = Topology::line(5); // 0-1-2-3-4
        let mut dt = DynamicTopology::new(&topo);
        // Node 0 "moves" next to 3 and 4.
        dt.rewire(NodeId(0), &ids(&[3, 4, 4, 0])); // dup + self-loop dropped
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[3, 4]));
        assert_eq!(dt.active_neighbors(NodeId(1)), ids(&[2]), "old edge gone");
        assert_eq!(dt.active_neighbors(NodeId(3)), ids(&[0, 2, 4]));
        assert_eq!(dt.active_neighbors(NodeId(4)), ids(&[0, 3]));
    }

    #[test]
    fn rewire_of_dead_node_activates_on_revive() {
        let topo = Topology::line(4);
        let mut dt = DynamicTopology::new(&topo);
        dt.kill(NodeId(0));
        dt.rewire(NodeId(0), &ids(&[2, 3]));
        assert!(dt
            .active_neighbors(NodeId(2))
            .binary_search(&NodeId(0))
            .is_err());
        dt.revive(NodeId(0));
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[2, 3]));
        assert_eq!(dt.active_neighbors(NodeId(2)), ids(&[0, 1, 3]));
    }

    #[test]
    fn rewire_discards_stale_fade_state() {
        let topo = Topology::line(3);
        let mut dt = DynamicTopology::new(&topo);
        dt.fade_edge(NodeId(0), NodeId(1));
        // 0 moves away and back: the 0—1 edge returns un-faded.
        dt.rewire(NodeId(0), &[]);
        dt.rewire(NodeId(0), &ids(&[1]));
        assert!(dt.are_neighbors(NodeId(0), NodeId(1)));
    }

    /// Brute-force model check: after an arbitrary deterministic mutation
    /// storm, every active view must equal "base neighbors that are
    /// mutually alive over a non-faded edge", and slot relocations plus
    /// compaction must never corrupt a slab.
    #[test]
    fn slab_survives_a_mutation_storm() {
        use crate::Rng;
        let n = 24usize;
        let topo = Topology::grid(n);
        let mut dt = DynamicTopology::new(&topo);
        // Reference model: simple sets.
        let mut base: Vec<std::collections::BTreeSet<u32>> = (0..n)
            .map(|u| {
                topo.neighbors(NodeId(u as u32))
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect();
        let mut faded: std::collections::BTreeSet<(u32, u32)> = Default::default();
        let mut alive = vec![true; n];
        let norm = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };

        let mut rng = Rng::new(2024);
        for _ in 0..3000 {
            let u = rng.gen_range(n) as u32;
            let v = rng.gen_range(n) as u32;
            match rng.gen_range(5) {
                0 => {
                    dt.kill(NodeId(u));
                    alive[u as usize] = false;
                }
                1 => {
                    dt.revive(NodeId(u));
                    alive[u as usize] = true;
                }
                2 => {
                    if dt.fade_edge(NodeId(u), NodeId(v)) {
                        faded.insert(norm(u, v));
                    }
                }
                3 => {
                    if dt.restore_edge(NodeId(u), NodeId(v)) {
                        faded.remove(&norm(u, v));
                    }
                }
                _ => {
                    let deg = 1 + rng.gen_range(6);
                    let fresh: Vec<NodeId> =
                        (0..deg).map(|_| NodeId(rng.gen_range(n) as u32)).collect();
                    dt.rewire(NodeId(u), &fresh);
                    for &w in &base[u as usize].clone() {
                        base[w as usize].remove(&u);
                        faded.remove(&norm(u, w));
                    }
                    base[u as usize].clear();
                    for f in fresh {
                        if f.0 != u {
                            base[u as usize].insert(f.0);
                            base[f.index()].insert(u);
                        }
                    }
                }
            }
            // Spot-check a few nodes every step, all nodes occasionally.
            for w in 0..n as u32 {
                let expect: Vec<NodeId> = if !alive[w as usize] {
                    Vec::new()
                } else {
                    base[w as usize]
                        .iter()
                        .filter(|&&x| alive[x as usize] && !faded.contains(&norm(w, x)))
                        .map(|&x| NodeId(x))
                        .collect()
                };
                assert_eq!(dt.active_neighbors(NodeId(w)), expect, "node {w}");
            }
        }
    }
}
