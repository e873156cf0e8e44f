//! Iterative graph-mapping optimization, with and without MCH (the Fig. 6
//! experiment of the paper).

use crate::compress::compress2rs_like;
use crate::graph_map::{graph_map, graph_map_all, graph_map_with_choices};
use mch_choice::{add_snapshot_views, build_mch, MchParams};
use mch_logic::{Network, NetworkKind};
use mch_mapper::MappingObjective;

/// Result of an iterated graph-mapping optimization.
#[derive(Clone, Debug)]
pub struct GraphOptResult {
    /// The optimized network.
    pub network: Network,
    /// Number of accepted improvement iterations.
    pub iterations: usize,
}

impl GraphOptResult {
    /// Gate count of the optimized network.
    pub fn gate_count(&self) -> usize {
        self.network.gate_count()
    }

    /// Depth of the optimized network.
    pub fn depth(&self) -> u32 {
        self.network.depth()
    }
}

fn score(network: &Network, objective: MappingObjective) -> (usize, usize) {
    match objective {
        MappingObjective::Delay => (network.depth() as usize, network.gate_count()),
        _ => (network.gate_count(), network.depth() as usize),
    }
}

/// Iterates plain graph mapping (single representation) until no further
/// improvement — the "Graph Map" baseline of Fig. 6, driven into its local
/// optimum.
pub fn iterate_graph_map(
    network: &Network,
    target: NetworkKind,
    objective: MappingObjective,
    max_iterations: usize,
) -> GraphOptResult {
    let mut current = if network.kind() == target {
        network.clone()
    } else {
        graph_map(network, target, objective)
    };
    let mut iterations = 0;
    for _ in 0..max_iterations {
        let next = graph_map(&current, target, objective);
        if score(&next, objective) < score(&current, objective) {
            current = next;
            iterations += 1;
        } else {
            break;
        }
    }
    GraphOptResult {
        network: current,
        iterations,
    }
}

/// Iterates MCH-based graph mapping: each round builds a mixed choice network
/// over the current result (per `mch_params`, e.g. MIG + XMG) and graph-maps
/// it, letting the mapper choose the better structure among the heterogeneous
/// candidates. This is the "MCH for Graph Map" series of Fig. 6.
///
/// A round covers the current network once for all its graph-mapped views
/// ([`graph_map_all`]) and links those views and the rewritten network in
/// one sweep ([`add_snapshot_views`]).
pub fn iterate_graph_map_mch(
    network: &Network,
    target: NetworkKind,
    mch_params: &MchParams,
    objective: MappingObjective,
    max_iterations: usize,
) -> GraphOptResult {
    let mut current = if network.kind() == target {
        network.clone()
    } else {
        graph_map(network, target, objective)
    };
    let mut iterations = 0;
    for _ in 0..max_iterations {
        let mut choices = build_mch(&current, mch_params);
        // Mix in whole restructured views of the design: a graph-mapped
        // version in each secondary representation and a rewritten version of
        // the current network. These are the heterogeneous global structures
        // ("mixed choice networks composed of MIG and XMG") that let the
        // optimization escape the single-representation local optimum.
        let kinds: Vec<NetworkKind> = mch_params
            .secondary
            .iter()
            .copied()
            .filter(|&kind| kind != target)
            .collect();
        let mut views = graph_map_all(&current, &kinds, objective);
        views.push(compress2rs_like(&current, 1));
        add_snapshot_views(&mut choices, &views);
        let next = graph_map_with_choices(&choices, target, objective);
        if score(&next, objective) < score(&current, objective) {
            current = next;
            iterations += 1;
        } else {
            break;
        }
    }
    GraphOptResult {
        network: current,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::cec;

    fn sample() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "opt-sample");
        let a = n.add_inputs(4);
        let b = n.add_inputs(4);
        let mut carry = n.constant(false);
        let mut outs = Vec::new();
        for i in 0..4 {
            let (s, c) = n.full_adder(a[i], b[i], carry);
            outs.push(s);
            carry = c;
        }
        let parity = n.xor_reduce(&outs);
        n.add_output(parity);
        n.add_output(carry);
        n
    }

    #[test]
    fn baseline_iteration_reaches_fixed_point_and_is_equivalent() {
        let net = sample();
        let result = iterate_graph_map(&net, NetworkKind::Xmg, MappingObjective::Area, 5);
        assert_eq!(result.network.kind(), NetworkKind::Xmg);
        assert!(cec(&net, &result.network).holds());
        // The XMG view of an adder tree is never larger than the AIG view.
        assert!(result.gate_count() <= net.gate_count());
    }

    #[test]
    fn mch_iteration_is_equivalent_and_not_worse_than_baseline() {
        let net = sample();
        let objective = MappingObjective::Area;
        let baseline = iterate_graph_map(&net, NetworkKind::Xmg, objective, 4);
        let params = MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Xmg]);
        let with_mch = iterate_graph_map_mch(&net, NetworkKind::Xmg, &params, objective, 4);
        assert!(cec(&net, &with_mch.network).holds());
        assert!(
            with_mch.gate_count() <= baseline.gate_count() + 1,
            "MCH graph mapping should not be substantially worse ({} vs {})",
            with_mch.gate_count(),
            baseline.gate_count()
        );
    }

    #[test]
    fn delay_objective_tracks_depth() {
        let net = sample();
        let area = iterate_graph_map(&net, NetworkKind::Xmg, MappingObjective::Area, 3);
        let delay = iterate_graph_map(&net, NetworkKind::Xmg, MappingObjective::Delay, 3);
        assert!(delay.depth() <= area.depth() + 1);
        assert!(cec(&net, &delay.network).holds());
    }
}
