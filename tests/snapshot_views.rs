//! The snapshot layer in one pass: one 4-LUT cover for every graph-mapped
//! view, and one link sweep over every view.
//!
//! `graph_map_all` and `add_snapshot_views` replace a cover per view and a
//! signature simulation, support pass and proof pass per view. They must
//! build exactly what the per-view calls build: the same views, the same
//! choice network down to its node vector, and the same number of links.

use mch::benchmarks::benchmark;
use mch::choice::{
    add_snapshot_choices, add_snapshot_views, build_mch, dch_from_snapshots, ChoiceNetwork,
};
use mch::core::MchConfig;
use mch::logic::{Network, NetworkKind};
use mch::mapper::MappingObjective;
use mch::opt::{compress2rs_like, compress_round, graph_map, graph_map_all};

/// The circuits `tests/snapshot_links.rs` pins.
const CIRCUITS: [&str; 6] = ["ctrl", "dec", "int2float", "cavlc", "router", "bar"];

fn input(circuit: &str) -> Network {
    benchmark(circuit).expect("suite circuit")
}

/// The representations a flow graph-maps its views into, in flow order.
fn view_kinds(network: &Network, config: &MchConfig) -> Vec<NetworkKind> {
    std::iter::once(network.kind())
        .chain(config.mch.secondary.iter().copied())
        .collect()
}

/// Links `views` one call each, in order; returns the summed link count.
fn link_per_view(cn: &mut ChoiceNetwork, views: &[Network]) -> usize {
    views.iter().map(|view| add_snapshot_choices(cn, view)).sum()
}

fn check_preset(config: MchConfig) {
    assert!(config.mix_optimized_snapshots);
    for circuit in CIRCUITS {
        let network = input(circuit);
        let kinds = view_kinds(&network, &config);
        let views: Vec<Network> = kinds
            .iter()
            .map(|&kind| graph_map(&network, kind, config.objective))
            .collect();
        assert!(
            graph_map_all(&network, &kinds, config.objective) == views,
            "{circuit} under {}: views differ from per-kind graph mapping",
            config.name
        );

        let built = build_mch(&network, &config.mch.clone().with_threads(1));
        let mut per_view = built.clone();
        let expected = link_per_view(&mut per_view, &views);
        let mut one_sweep = built;
        let links = add_snapshot_views(&mut one_sweep, &views);
        assert_eq!(links, expected, "{circuit} under {}: link count", config.name);
        assert!(
            one_sweep == per_view,
            "{circuit} under {}: the one-sweep choice network differs",
            config.name
        );
    }
}

#[test]
fn lut_area_views_link_in_one_sweep() {
    check_preset(MchConfig::lut_area());
}

#[test]
fn delay_oriented_views_link_in_one_sweep() {
    check_preset(MchConfig::delay_oriented());
}

#[test]
fn area_oriented_views_link_in_one_sweep() {
    check_preset(MchConfig::area_oriented());
}

/// The DCH baseline's two optimization snapshots, linked in one sweep by
/// `dch_from_snapshots`, give the network per-snapshot linking gives.
#[test]
fn dch_snapshots_link_in_one_sweep() {
    let mut links = 0;
    for circuit in CIRCUITS {
        let network = input(circuit);
        let snap1 = compress_round(&network);
        let snap2 = compress2rs_like(&snap1, 2);
        let snapshots = [snap1, snap2];
        let mut per_snapshot = ChoiceNetwork::from_network(&network);
        links += link_per_view(&mut per_snapshot, &snapshots);
        let one_sweep = dch_from_snapshots(&network, &snapshots);
        assert!(one_sweep == per_snapshot, "{circuit}: DCH choice networks differ");
    }
    assert!(links > 0, "the snapshots link nothing");
}

/// Every target emitted from the shared cover equals its own graph mapping,
/// under every objective, and no target means no view.
#[test]
fn graph_map_all_matches_graph_map_per_target() {
    let kinds = [
        NetworkKind::Aig,
        NetworkKind::Xag,
        NetworkKind::Mig,
        NetworkKind::Xmg,
        NetworkKind::Aig,
    ];
    for circuit in ["ctrl", "int2float", "router"] {
        let network = input(circuit);
        for objective in [
            MappingObjective::Area,
            MappingObjective::Delay,
            MappingObjective::Balanced,
        ] {
            let all = graph_map_all(&network, &kinds, objective);
            assert_eq!(all.len(), kinds.len());
            for (view, &kind) in all.iter().zip(&kinds) {
                assert!(
                    *view == graph_map(&network, kind, objective),
                    "{circuit}: {kind} under {objective:?}"
                );
            }
        }
        assert!(graph_map_all(&network, &[], MappingObjective::Area).is_empty());
    }
}
