//! Pinned choice-network and graph-mapped-view fingerprints.
//!
//! The determinism suites compare builds of one revision with each other
//! (threaded against serial, warm against cold), so a change that alters
//! every build the same way passes them all. A different NPN canonical
//! transform of the same class is such a change: it replays the class
//! structure through another permutation and yields other, equally valid
//! bytes. This suite pins the bytes themselves, per circuit and preset:
//!
//! - the structural fingerprint and choice count of the `build_mch` network;
//! - the deterministic NPN-cache counters of `MchStats::timeless`;
//! - the structural fingerprint of every graph-mapped view the flow mixes in
//!   (the input's own representation first, then each secondary one).
//!
//! Most functions these builds canonicalise have 3 or 4 inputs. `lut_area`
//! and `delay_oriented` also make a few calls on 5 inputs (the largest
//! exact search) and on 6 (the semi-canonical path); `area_oriented` makes
//! none on these circuits, although it admits MFFCs of up to 8 inputs.
//!
//! The one-to-one mapping re-emits every gate in the style of each
//! secondary representation. `delay_oriented` pins the XAG style and
//! `lut_area` / `area_oriented` the XMG style; the `MIG+AIG mixed` case
//! pins the MIG style (AND and OR as majorities, XOR expanded) and the AIG
//! style (XOR and MAJ expanded into AND trees).

use mch::benchmarks::benchmark;
use mch::choice::build_mch_with_stats;
use mch::choice::MchParams;
use mch::core::MchConfig;
use mch::logic::NetworkKind;
use mch::opt::graph_map;

/// One pinned case: `(circuit, build fingerprint, choice count, NPN classes,
/// NPN cache hits, view fingerprints in flow order)`.
type Pin<'a> = (&'a str, u64, usize, usize, usize, &'a [u64]);

/// One case in the layout of a [`Pin`] line, so a deliberate re-pin can
/// paste the observed values.
fn render(&(circuit, build, choices, classes, hits, views): &Pin<'_>) -> String {
    let views: Vec<String> = views.iter().map(|v| format!("{v:#018x}")).collect();
    format!(
        "(\"{circuit}\", {build:#018x}, {choices}, {classes}, {hits}, &[{}]),",
        views.join(", ")
    )
}

fn observe(circuit: &str, config: &MchConfig) -> String {
    let network = benchmark(circuit).expect("suite circuit");
    let (choices, stats) = build_mch_with_stats(&network, &config.mch);
    let stats = stats.timeless();
    let views: Vec<u64> = std::iter::once(network.kind())
        .chain(config.mch.secondary.iter().copied())
        .map(|kind| graph_map(&network, kind, config.objective).structural_fingerprint())
        .collect();
    render(&(
        circuit,
        choices.network().structural_fingerprint(),
        choices.choice_count(),
        stats.npn_classes,
        stats.npn_cache_hits,
        &views,
    ))
}

fn check(config: MchConfig, expected: &[Pin]) {
    assert!(config.mix_optimized_snapshots);
    let observed: Vec<String> = expected.iter().map(|pin| observe(pin.0, &config)).collect();
    let expected: Vec<String> = expected.iter().map(render).collect();
    assert_eq!(
        observed.join("\n"),
        expected.join("\n"),
        "{} pins changed",
        config.name
    );
}

#[test]
fn lut_area_fingerprints_are_pinned() {
    check(MchConfig::lut_area(), LUT_AREA);
}

#[test]
fn delay_oriented_fingerprints_are_pinned() {
    check(MchConfig::delay_oriented(), DELAY_ORIENTED);
}

#[test]
fn area_oriented_fingerprints_are_pinned() {
    check(MchConfig::area_oriented(), AREA_ORIENTED);
}

#[test]
fn mig_aig_mixed_fingerprints_are_pinned() {
    let config = MchConfig {
        name: "MIG+AIG mixed".into(),
        mch: MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Aig]),
        ..MchConfig::balanced()
    };
    check(config, MIG_AIG_MIXED);
}

const LUT_AREA: &[Pin] = &[
    ("ctrl", 0x479c998c3b31ed88, 302, 40, 216, &[0x7be331ce933fc003, 0x4026e3f572a1b01a]),
    ("int2float", 0x6ff20e7933607655, 593, 30, 419, &[0x656b60a70b85298c, 0xd17a9eb214a29470]),
    ("cavlc", 0x4f74a19814ece6b0, 1001, 50, 704, &[0x2fc382dacd2ac08d, 0x119f75ef8d3a65ca]),
    ("router", 0x0016e1310c119278, 411, 39, 259, &[0x99343276064ed769, 0x3008c38d9a28c7a2]),
    ("max", 0xf089691bbe5c34a4, 1444, 24, 994, &[0xdd1786589c5deaff, 0xaab3465a19e928c4]),
    ("i2c", 0x8db1e1d614f329f1, 2123, 57, 1532, &[0x4f6980f755a80c26, 0x0e22e4f42daee2b1]),
];

const DELAY_ORIENTED: &[Pin] = &[
    ("ctrl", 0xcdbda791dd1684d6, 196, 78, 416, &[0x912cd1b44e2a1c50, 0x36e80c4ec2cac815]),
    ("int2float", 0x7a3aa6935b543dcb, 364, 76, 871, &[0xae52305a8ceefa98, 0x8db2715582925012]),
    ("cavlc", 0x2d69fb09190694e4, 606, 106, 1461, &[0x5457f75ba4b65789, 0x447266b7038db359]),
    ("router", 0x9e74d657444c302e, 252, 81, 549, &[0x0e0b2b0b5e843f9a, 0x785782ad73c9ca51]),
    ("max", 0xd6c22af420bfae05, 770, 53, 2159, &[0x7827507a6c4f807f, 0xb2fcebbcd17c4ca3]),
    ("i2c", 0x54ce5222d36397e5, 1287, 126, 3339, &[0x8e8440971c80db8c, 0x36d31b005f617065]),
];

const AREA_ORIENTED: &[Pin] = &[
    ("ctrl", 0x5465d528710bddf8, 307, 51, 283, &[0x7be331ce933fc003, 0x4026e3f572a1b01a]),
    ("int2float", 0xa46eaf08f4ab9a1f, 611, 34, 459, &[0x656b60a70b85298c, 0xd17a9eb214a29470]),
    ("cavlc", 0xf03848a7864f5e62, 1003, 63, 915, &[0x2fc382dacd2ac08d, 0x119f75ef8d3a65ca]),
    ("router", 0x1b4352b8353d56bc, 418, 53, 320, &[0x99343276064ed769, 0x3008c38d9a28c7a2]),
    ("max", 0x79fff9fa849d3f44, 1444, 29, 1113, &[0xdd1786589c5deaff, 0xaab3465a19e928c4]),
    ("i2c", 0x87e3a20ee2dc370c, 2136, 78, 2024, &[0x4f6980f755a80c26, 0x0e22e4f42daee2b1]),
];

const MIG_AIG_MIXED: &[Pin] = &[
    ("ctrl", 0xb6f27a0be81ac045, 309, 63, 277, &[0x912cd1b44e2a1c50, 0xd891a514b031e5e2, 0x912cd1b44e2a1c50]),
    ("int2float", 0x1eade09beb23d9b0, 614, 41, 522, &[0xc0127dd5ba1af38e, 0xaa79efe91ca0087d, 0xc0127dd5ba1af38e]),
    ("cavlc", 0xd71cc03eca79e664, 1003, 74, 924, &[0xff157874cc5a22d1, 0x4a06ba8710dab40e, 0xff157874cc5a22d1]),
    ("router", 0xf0194872dcacecb3, 419, 58, 328, &[0x59261693ca5bb9d1, 0x6df4f8db672fd939, 0x59261693ca5bb9d1]),
    ("max", 0xeb024a37c5ab03e0, 1444, 34, 1216, &[0x5e52f380f1a0a0df, 0x3f7fada4404c1fa4, 0x5e52f380f1a0a0df]),
    ("i2c", 0xaabf005846cc3c83, 2139, 95, 2059, &[0xdc91a541fe06c400, 0x766ed4ae6eb81265, 0xdc91a541fe06c400]),
];
