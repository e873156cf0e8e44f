//! Pinned snapshot-link counts: the choices `add_snapshot_choices` proves and
//! records when the MCH flows mix graph-mapped views into the choice network.
//!
//! Each case rebuilds the choice network the way the flow does (Algorithm 1,
//! then one graph-mapped view per representation, linked in order) and pins
//! the links each view adds plus the final `choice_count()`. A change to how
//! links are proven must leave every number here unchanged: a lower count
//! means a provable pair was refused, a higher one that an unprovable pair
//! was linked.

use mch::benchmarks::benchmark;
use mch::choice::{add_snapshot_choices, build_mch};
use mch::core::MchConfig;
use mch::logic::NetworkKind;
use mch::opt::graph_map;

/// Links added per view (in flow order) and the final choice count.
fn link_counts(circuit: &str, config: &MchConfig) -> (Vec<usize>, usize) {
    let network = benchmark(circuit).expect("suite circuit");
    let mut choices = build_mch(&network, &config.mch);
    let kinds: Vec<NetworkKind> = std::iter::once(network.kind())
        .chain(config.mch.secondary.iter().copied())
        .collect();
    let links = kinds
        .iter()
        .map(|&kind| {
            let view = graph_map(&network, kind, config.objective);
            add_snapshot_choices(&mut choices, &view)
        })
        .collect();
    (links, choices.choice_count())
}

fn check(config: MchConfig, expected: &[(&str, &[usize], usize)]) {
    assert!(config.mix_optimized_snapshots);
    for &(circuit, links, choices) in expected {
        assert_eq!(
            link_counts(circuit, &config),
            (links.to_vec(), choices),
            "{circuit} under {}",
            config.name
        );
    }
}

#[test]
fn lut_area_link_counts_are_pinned() {
    check(
        MchConfig::lut_area(),
        &[
            ("ctrl", &[23, 17], 342),
            ("dec", &[128, 128], 860),
            ("int2float", &[95, 83], 771),
            ("cavlc", &[191, 168], 1360),
            ("router", &[48, 47], 506),
            ("bar", &[269, 241], 1959),
        ],
    );
}

#[test]
fn delay_oriented_link_counts_are_pinned() {
    check(
        MchConfig::delay_oriented(),
        &[
            ("ctrl", &[20, 2], 218),
            ("dec", &[128, 0], 552),
            ("int2float", &[73, 42], 479),
            ("cavlc", &[194, 154], 954),
            ("router", &[48, 39], 339),
            ("bar", &[232, 0], 425),
        ],
    );
}
