//! Graph traversal utilities: fanouts, transitive fan-in/out cones, MFFCs,
//! critical-path extraction and topological levelization.

use crate::{FastSet, Network, NodeId};

/// The gate nodes of a network grouped by topological level.
///
/// Level `l` holds every gate whose longest path from the primary inputs has
/// exactly `l` gates on it (the level stored on each [`crate::Node`]); the
/// constant node and the primary inputs (all at level 0) are not included.
/// Within one level the nodes are sorted by id, and because a gate's fanins
/// always have strictly smaller levels, all gates of one level can be
/// processed independently of each other once every earlier level is done —
/// this is the dependency structure the level-parallel cut enumeration in
/// `mch_cut` shards over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Levels {
    levels: Vec<Vec<NodeId>>,
    gates: usize,
}

impl Levels {
    /// Number of level groups (the maximum gate level of the network).
    /// Valid arguments to [`Levels::level`] are `0..num_levels()`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The gate nodes of the `index`-th group, i.e. the gates whose
    /// topological level is `index + 1` (group 0 holds the level-1 gates,
    /// those fed by primary inputs only). Prefer [`Levels::iter`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_levels()`.
    pub fn level(&self, index: usize) -> &[NodeId] {
        &self.levels[index]
    }

    /// Iterates over the levels in ascending order, shallowest first. Every
    /// gate of the network appears in exactly one yielded slice, and the
    /// fanins of a yielded gate only ever appear in earlier slices (or are
    /// primary inputs / the constant node).
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.levels.iter().map(Vec::as_slice)
    }

    /// The level groups as a slice of id-sorted node lists (ascending level).
    pub fn as_slices(&self) -> &[Vec<NodeId>] {
        &self.levels
    }

    /// Total number of gates across all levels.
    pub fn gate_count(&self) -> usize {
        self.gates
    }

    /// The widest level's node count (0 for a gate-free network). This bounds
    /// how much parallelism level-sharding can extract.
    pub fn max_width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Keeps only the gates `keep` accepts. Every level stays id-sorted, and
    /// a level left empty stays in place, so level indices do not move.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        for level in &mut self.levels {
            level.retain(|&id| keep(id));
        }
        self.gates = self.levels.iter().map(Vec::len).sum();
    }
}

/// Groups the gate nodes of `network` by topological level (see [`Levels`]).
///
/// Levels are read off the per-node level the network maintains during
/// construction, so this is a single O(n) bucketing pass; iterating gate ids
/// in ascending order keeps every bucket sorted by id without an extra sort.
pub fn levelize(network: &Network) -> Levels {
    let mut levels: Vec<Vec<NodeId>> = Vec::new();
    let mut gates = 0usize;
    for id in network.gate_ids() {
        let level = network.level(id) as usize;
        debug_assert!(level >= 1, "gates sit strictly above the inputs");
        if levels.len() < level {
            levels.resize_with(level, Vec::new);
        }
        levels[level - 1].push(id);
        gates += 1;
    }
    Levels { levels, gates }
}

/// Explicit fanout lists for every node of a network.
///
/// The [`Network`] itself only stores fanout *counts*; this helper materialises
/// the full adjacency in one pass for algorithms that need to walk forward.
#[derive(Clone, Debug)]
pub struct Fanouts {
    lists: Vec<Vec<NodeId>>,
}

impl Fanouts {
    /// Builds the fanout lists of `network`.
    pub fn compute(network: &Network) -> Self {
        let mut lists = vec![Vec::new(); network.len()];
        for id in network.gate_ids() {
            for f in network.node(id).fanins() {
                lists[f.node().index()].push(id);
            }
        }
        Fanouts { lists }
    }

    /// Gate nodes that read `node`.
    pub fn of(&self, node: NodeId) -> &[NodeId] {
        &self.lists[node.index()]
    }
}

/// Collects the transitive fan-in cone of `roots` (the roots themselves are
/// included; constants and primary inputs are included when reached).
pub fn transitive_fanin(network: &Network, roots: &[NodeId]) -> FastSet<NodeId> {
    let mut seen = FastSet::default();
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        for f in network.node(n).fanins() {
            stack.push(f.node());
        }
    }
    seen
}

/// Collects the transitive fan-out cone of `roots` using precomputed fanouts.
pub fn transitive_fanout(fanouts: &Fanouts, roots: &[NodeId]) -> FastSet<NodeId> {
    let mut seen = FastSet::default();
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        for &f in fanouts.of(n) {
            stack.push(f);
        }
    }
    seen
}

/// The maximum fanout-free cone of a node.
///
/// The MFFC of `root` is the set of gate nodes whose every path to a primary
/// output passes through `root`; it is the logic that would become dangling if
/// `root` were removed. `max_inputs` bounds the number of cone leaves gathered
/// (the paper's parameter `K`); when the bound is exceeded the cone is
/// truncated at the current frontier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mffc {
    /// The root node of the cone.
    pub root: NodeId,
    /// Gate nodes inside the cone (the root included).
    pub nodes: Vec<NodeId>,
    /// Leaves of the cone (nodes outside it feeding it).
    pub leaves: Vec<NodeId>,
}

impl Mffc {
    /// Number of gates in the cone.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }
}

/// Computes the MFFC of `root` with at most `max_inputs` leaves.
///
/// Uses the classical reference-count simulation: a fanin joins the cone when
/// all of its fanouts are already inside the cone.
pub fn mffc(network: &Network, root: NodeId, max_inputs: usize) -> Mffc {
    let mut inside: FastSet<NodeId> = FastSet::default();
    let mut leaves: Vec<NodeId> = Vec::new();
    if !network.is_gate(root) {
        return Mffc {
            root,
            nodes: vec![],
            leaves: vec![],
        };
    }
    inside.insert(root);
    // Counts how many fanouts of a candidate node are inside the cone.
    let mut frontier: Vec<NodeId> = vec![root];
    let mut nodes = vec![root];
    while let Some(n) = frontier.pop() {
        for f in network.node(n).fanins() {
            let fid = f.node();
            if inside.contains(&fid) || leaves.contains(&fid) {
                continue;
            }
            let contained = network.is_gate(fid)
                && network.fanout_count(fid) > 0
                && (network.fanout_count(fid) as usize)
                    <= count_fanouts_inside(network, fid, &inside);
            if contained {
                inside.insert(fid);
                nodes.push(fid);
                frontier.push(fid);
            } else if !leaves.contains(&fid) {
                leaves.push(fid);
                if leaves.len() > max_inputs {
                    // Too many leaves: stop growing, keep what we have.
                    return Mffc { root, nodes, leaves };
                }
            }
        }
    }
    Mffc { root, nodes, leaves }
}

fn count_fanouts_inside(network: &Network, node: NodeId, inside: &FastSet<NodeId>) -> usize {
    // A node's fanouts are not stored; approximate by checking which inside
    // nodes read it. Cone sizes are small so the scan is cheap.
    inside
        .iter()
        .filter(|&&m| {
            network
                .node(m)
                .fanins()
                .iter()
                .any(|s| s.node() == node)
        })
        .count()
}

/// Collects the critical-path node set used by the MCH construction
/// (Algorithm 1, line 2).
///
/// A primary output is *critical* when the level of its driver is at least
/// `ratio * depth`; the returned set contains every node lying on some path
/// from a critical output back to the primary inputs whose level profile keeps
/// it on a longest path (i.e. nodes whose level equals the maximum level among
/// the fanins of a critical successor).
pub fn critical_path_nodes(network: &Network, ratio: f64) -> FastSet<NodeId> {
    let depth = network.depth();
    let threshold = (depth as f64 * ratio).ceil() as u32;
    let mut critical: FastSet<NodeId> = FastSet::default();
    let mut stack: Vec<NodeId> = Vec::new();
    for out in network.outputs() {
        let n = out.node();
        if network.level(n) >= threshold && network.is_gate(n) {
            stack.push(n);
        }
    }
    while let Some(n) = stack.pop() {
        if !critical.insert(n) {
            continue;
        }
        let node = network.node(n);
        let max_level = node
            .fanins()
            .iter()
            .map(|s| network.level(s.node()))
            .max()
            .unwrap_or(0);
        for f in node.fanins() {
            let fid = f.node();
            if network.is_gate(fid) && network.level(fid) == max_level {
                stack.push(fid);
            }
        }
    }
    critical
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkKind};

    fn chain_network() -> Network {
        // f = ((a & b) & c) & d  plus a side output g = a & b
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let d = n.add_input();
        let ab = n.and2(a, b);
        let abc = n.and2(ab, c);
        let abcd = n.and2(abc, d);
        n.add_output(abcd);
        n.add_output(ab);
        n
    }

    #[test]
    fn fanouts_match_fanin_relation() {
        let n = chain_network();
        let fanouts = Fanouts::compute(&n);
        let a = n.inputs()[0];
        assert_eq!(fanouts.of(a).len(), 1);
        let ab = fanouts.of(a)[0];
        assert_eq!(fanouts.of(ab).len(), 1);
    }

    #[test]
    fn tfi_contains_all_ancestors() {
        let n = chain_network();
        let last = n.outputs()[0].node();
        let cone = transitive_fanin(&n, &[last]);
        // const node not reached; 4 PIs + 3 gates.
        assert_eq!(cone.len(), 7);
    }

    #[test]
    fn tfo_reaches_outputs() {
        let n = chain_network();
        let fanouts = Fanouts::compute(&n);
        let a = n.inputs()[0];
        let cone = transitive_fanout(&fanouts, &[a]);
        assert_eq!(cone.len(), 4); // a, ab, abc, abcd
    }

    #[test]
    fn mffc_excludes_shared_logic() {
        let n = chain_network();
        let abcd = n.outputs()[0].node();
        let cone = mffc(&n, abcd, 8);
        // ab is shared with the second output, so the MFFC of abcd is {abcd, abc}.
        assert_eq!(cone.size(), 2);
        assert!(cone.nodes.contains(&abcd));
    }

    #[test]
    fn mffc_of_single_output_chain_is_whole_chain() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let ab = n.and2(a, b);
        let abc = n.and2(ab, c);
        n.add_output(abc);
        let cone = mffc(&n, abc.node(), 8);
        assert_eq!(cone.size(), 2);
        assert_eq!(cone.leaves.len(), 3);
    }

    #[test]
    fn levelize_groups_gates_by_level() {
        let n = chain_network();
        let levels = levelize(&n);
        // Chain of three ANDs: one gate per level.
        assert_eq!(levels.num_levels(), 3);
        assert_eq!(levels.gate_count(), 3);
        assert_eq!(levels.max_width(), 1);
        for (i, slice) in levels.iter().enumerate() {
            assert_eq!(slice.len(), 1);
            assert_eq!(n.level(slice[0]) as usize, i + 1);
        }
    }

    #[test]
    fn levelize_respects_fanin_order_and_id_sort() {
        // A balanced tree: 4 gates at level 1, 2 at level 2, 1 at level 3.
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(8);
        let mut layer: Vec<_> = xs;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                next.push(n.and2(pair[0], pair[1]));
            }
            layer = next;
        }
        n.add_output(layer[0]);
        let levels = levelize(&n);
        assert_eq!(levels.num_levels(), 3);
        assert_eq!(levels.max_width(), 4);
        let widths: Vec<usize> = levels.iter().map(<[NodeId]>::len).collect();
        assert_eq!(widths, [4, 2, 1]);
        let mut seen: Vec<NodeId> = Vec::new();
        for slice in levels.iter() {
            // Id-sorted within a level.
            assert!(slice.windows(2).all(|w| w[0] < w[1]));
            // Every fanin is a PI or appeared in an earlier level.
            for &id in slice {
                for f in n.node(id).fanins() {
                    assert!(n.is_input(f.node()) || seen.contains(&f.node()));
                }
            }
            seen.extend_from_slice(slice);
        }
        assert_eq!(seen.len(), levels.gate_count());
    }

    #[test]
    fn levelize_of_gate_free_network_is_empty() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        n.add_output(a);
        let levels = levelize(&n);
        assert_eq!(levels.num_levels(), 0);
        assert_eq!(levels.gate_count(), 0);
        assert_eq!(levels.max_width(), 0);
        assert!(levels.iter().next().is_none());
    }

    #[test]
    fn critical_path_follows_deepest_nodes() {
        let n = chain_network();
        let critical = critical_path_nodes(&n, 0.9);
        // Only the deep output chain is critical; it has 3 gates.
        assert_eq!(critical.len(), 3);
        let all = critical_path_nodes(&n, 0.0);
        // Relaxing the ratio admits both outputs' cones.
        assert!(all.len() >= 3);
    }
}
