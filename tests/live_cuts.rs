//! Mapper cut preparation enumerates only the nodes a cover can use.
//!
//! A flow's mixed network holds whole graph-mapped views, and a view node
//! that linked to nothing reaches no representative: it is neither mapped
//! nor a source of inherited cuts. `prepare_cuts` enumerates only the
//! original nodes, the choice nodes and their fan-in (`live_nodes`). Every
//! such node's list must equal a whole-network enumeration's bit for bit —
//! leaves, function, signature, arrival and area-flow bits — at every
//! thread count, and every other node's list must be empty.

use mch::benchmarks::benchmark;
use mch::choice::{add_snapshot_views, build_mch, ChoiceNetwork};
use mch::core::MchConfig;
use mch::cut::{enumerate_cuts_threaded, enumerate_cuts_with_model, Cut, CutParams, NetworkCuts};
use mch::logic::{transitive_fanin, Network, NetworkKind, NodeId};
use mch::mapper::{
    library_cost_model, live_nodes, prepare_cuts, AsicMapParams, CutCostModel, LutMapParams,
};
use mch::opt::graph_map_all;
use mch::techlib::asap7_lite;

/// Circuits whose flow views leave dead nodes in the mixed network.
const CIRCUITS: [&str; 4] = ["max", "i2c", "adder", "arbiter"];

/// The flow's mixed network: `build_mch`, then every graph-mapped view
/// linked in one sweep.
fn flow_choices(network: &Network, config: &MchConfig) -> ChoiceNetwork {
    assert!(config.mix_optimized_snapshots);
    let mut choices = build_mch(network, &config.mch);
    let kinds: Vec<NetworkKind> = std::iter::once(network.kind())
        .chain(config.mch.secondary.iter().copied())
        .collect();
    add_snapshot_views(
        &mut choices,
        &graph_map_all(network, &kinds, config.objective),
    );
    choices
}

/// Which nodes reach a representative, computed independently of the
/// mapper's sweep: the fan-in cones of every original and choice node.
fn reaching(choice: &ChoiceNetwork) -> Vec<bool> {
    let mut roots: Vec<NodeId> = (0..choice.original_len()).map(NodeId::from_index).collect();
    for repr in choice.representatives() {
        roots.extend(choice.choices_of(repr).iter().map(|&(node, _)| node));
    }
    let cone = transitive_fanin(choice.network(), &roots);
    (0..choice.network().len())
        .map(|i| cone.contains(&NodeId::from_index(i)))
        .collect()
}

fn assert_same_list(case: &str, id: NodeId, got: &[Cut], want: &[Cut]) {
    assert_eq!(got, want, "{case}: cut list of {id}");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.signature(), b.signature(), "{case}: signature at {id}");
        assert_eq!(a.arrival(), b.arrival(), "{case}: arrival at {id}");
        assert_eq!(
            a.area_flow().to_bits(),
            b.area_flow().to_bits(),
            "{case}: area flow at {id}"
        );
    }
}

/// Checks one preset: enumeration parameters and cost model as the mapper
/// uses them.
fn check(preset: &str, config: MchConfig, cut_size: usize, cut_limit: usize, model: CutCostModel) {
    let params = CutParams::new(cut_size, cut_limit).with_cost(config.cut_ranking);
    for circuit in CIRCUITS {
        let case = format!("{circuit} {preset}");
        let network = benchmark(circuit).expect("suite circuit");
        let choice = flow_choices(&network, &config);
        let net = choice.network();
        let live = live_nodes(&choice);
        assert_eq!(live, reaching(&choice), "{case}: live node set");
        let dead = live.iter().filter(|&&l| !l).count();
        assert!(dead > 0, "{case}: no dead node, the check would be vacuous");

        let whole = enumerate_cuts_with_model(net, &params, &model, None);
        let serial = enumerate_cuts_threaded(net, &params, &model, 1, Some(&live));
        for threads in [2, 4] {
            let threaded = enumerate_cuts_threaded(net, &params, &model, threads, Some(&live));
            assert!(
                serial.identical(&threaded),
                "{case}: {threads} threads differ from serial"
            );
        }
        let check_lists = |what: &str, cuts: &NetworkCuts, skip: &dyn Fn(NodeId) -> bool| {
            for (i, &is_live) in live.iter().enumerate() {
                let id = NodeId::from_index(i);
                if !is_live {
                    assert!(
                        cuts.of(id).is_empty(),
                        "{case}: {what} enumerated dead {id}"
                    );
                } else if !skip(id) {
                    assert_same_list(&format!("{case} {what}"), id, cuts.of(id), whole.of(id));
                }
            }
        };
        check_lists("enumeration", &serial, &|_| false);

        // The mapper's own preparation: only representatives with choices
        // gain inherited cuts; every other list is the enumerated one.
        let prepared = prepare_cuts(&choice, cut_size, cut_limit, config.cut_ranking, &model, 2);
        check_lists("prepare_cuts", &prepared, &|id| {
            !choice.choices_of(id).is_empty()
        });
    }
}

#[test]
fn delay_oriented_enumerates_only_live_nodes() {
    let config = MchConfig::delay_oriented();
    let library = asap7_lite();
    let params = AsicMapParams::new(config.objective);
    check(
        "delay_oriented",
        config,
        library.max_inputs().clamp(3, 6),
        params.cut_limit,
        library_cost_model(&library),
    );
}

#[test]
fn area_oriented_enumerates_only_live_nodes() {
    let config = MchConfig::area_oriented();
    let params = LutMapParams::new(config.objective);
    check(
        "area_oriented",
        config,
        6,
        params.cut_limit,
        CutCostModel::unit(),
    );
}

#[test]
fn lut_area_enumerates_only_live_nodes() {
    let config = MchConfig::lut_area();
    let params = LutMapParams::new(config.objective);
    check(
        "lut_area",
        config,
        6,
        params.cut_limit,
        CutCostModel::unit(),
    );
}
