//! Pinned mapped-netlist fingerprints.
//!
//! Every other byte check on mapped netlists compares one revision with
//! itself: threaded against serial, warm against cold, batched against solo,
//! prepared against one-shot. A change that alters every cover the same way
//! passes them all. This suite pins the netlists themselves, per circuit and
//! flow, at one thread:
//!
//! - a [`Fingerprinter`] fold of the serialised netlist (`write_verilog` for
//!   cell netlists, `write_lut_blif` for LUT netlists);
//! - the flow's QoR (area and delay, or LUT count and levels).
//!
//! The fused case runs `lut_fusion` under [`FusionMode::Inject`]. On `i2c`
//! the guided cover beats the unguided one in this flow, so the pin covers
//! the ASIC guide pass, the harvest and the guard end to end; `Full` and
//! `Bias` keep the unguided cover on every suite circuit.

use mch::benchmarks::benchmark;
use mch::core::{
    try_asic_flow_mch, try_lut_flow_mch, try_lut_flow_mch_fused, FusionMode, MchConfig,
};
use mch::io::{write_lut_blif, write_verilog};
use mch::logic::{Fingerprinter, Network};
use mch::techlib::{asap7_lite, LutLibrary};

/// One pinned case: `(circuit, netlist fingerprint, QoR)`.
type Pin<'a> = (&'a str, u64, &'a str);

/// One case in the layout of a [`Pin`] line, so a deliberate re-pin can
/// paste the observed values.
fn render(&(circuit, netlist, qor): &Pin<'_>) -> String {
    format!("(\"{circuit}\", {netlist:#018x}, \"{qor}\"),")
}

fn fold(text: &str) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_str(text);
    fp.finish()
}

/// A flow under pin: maps one circuit and returns its serialised netlist
/// and QoR.
type Flow = fn(&Network) -> (String, String);

fn check(name: &str, flow: Flow, expected: &[Pin]) {
    let observed: Vec<String> = expected
        .iter()
        .map(|&(circuit, _, _)| {
            let network = benchmark(circuit).expect("suite circuit");
            let (text, qor) = flow(&network);
            render(&(circuit, fold(&text), &qor))
        })
        .collect();
    let expected: Vec<String> = expected.iter().map(render).collect();
    assert_eq!(
        observed.join("\n"),
        expected.join("\n"),
        "{name} netlist pins changed"
    );
}

fn asic(network: &Network, config: MchConfig) -> (String, String) {
    let library = asap7_lite();
    let result =
        try_asic_flow_mch(network, &library, &config.with_threads(1)).expect("suite circuits map");
    assert!(result.verified, "{} failed verification", network.name());
    let qor = format!("area {:?} delay {:?}", result.area, result.delay);
    (write_verilog(&result.netlist, &library), qor)
}

fn lut(network: &Network, fused: bool) -> (String, String) {
    let k6 = LutLibrary::k6();
    let result = if fused {
        let config = MchConfig::lut_fusion().with_fusion(FusionMode::Inject);
        try_lut_flow_mch_fused(network, &k6, &asap7_lite(), &config.with_threads(1))
    } else {
        try_lut_flow_mch(network, &k6, &MchConfig::lut_area().with_threads(1))
    }
    .expect("suite circuits map");
    assert!(result.verified, "{} failed verification", network.name());
    let qor = format!("{} LUTs {} levels", result.luts, result.levels);
    (write_lut_blif(&result.netlist), qor)
}

#[test]
fn delay_oriented_netlists_are_pinned() {
    check(
        "delay_oriented",
        |n| asic(n, MchConfig::delay_oriented()),
        DELAY_ORIENTED,
    );
}

#[test]
fn area_oriented_netlists_are_pinned() {
    check(
        "area_oriented",
        |n| asic(n, MchConfig::area_oriented()),
        AREA_ORIENTED,
    );
}

#[test]
fn lut_area_netlists_are_pinned() {
    check("lut_area", |n| lut(n, false), LUT_AREA);
}

#[test]
fn fused_inject_netlists_are_pinned() {
    check("lut_fusion Inject", |n| lut(n, true), FUSED_INJECT);
}

const DELAY_ORIENTED: &[Pin] = &[
    ("ctrl", 0x89c9c3aad42166f9, "area 5.687000000000004 delay 141.0"),
    ("int2float", 0xeb784e1f0e85ca8f, "area 9.341999999999997 delay 249.0"),
    ("router", 0xa28a29e6d0fa6acd, "area 9.507000000000003 delay 263.0"),
    ("i2c", 0xb617f456bf56366d, "area 52.95799999999996 delay 774.0"),
];

const AREA_ORIENTED: &[Pin] = &[
    ("ctrl", 0xf796d9119a7ac2db, "area 4.257 delay 156.0"),
    ("int2float", 0xae61b40c26dee222, "area 7.408999999999999 delay 279.0"),
    ("router", 0x39555053178beb08, "area 7.550999999999999 delay 305.0"),
    ("i2c", 0xd3f8a036ce82f644, "area 36.293 delay 933.0"),
];

const LUT_AREA: &[Pin] = &[
    ("ctrl", 0xac957959ff7e9346, "19 LUTs 2 levels"),
    ("int2float", 0x3b39dd33ceb82fdc, "28 LUTs 5 levels"),
    ("router", 0x6d450f661a360ebb, "35 LUTs 8 levels"),
    ("i2c", 0x4ca1a3e1f60f4eba, "173 LUTs 29 levels"),
];

const FUSED_INJECT: &[Pin] = &[
    ("ctrl", 0xac957959ff7e9346, "19 LUTs 2 levels"),
    ("int2float", 0x3b39dd33ceb82fdc, "28 LUTs 5 levels"),
    ("router", 0x6d450f661a360ebb, "35 LUTs 8 levels"),
    ("i2c", 0x5041696c274e9b95, "172 LUTs 29 levels"),
];

/// One pinned rebuilt network: `(circuit, structural fingerprint)`.
type NetworkPin<'a> = (&'a str, u64);

/// A flow under pin whose output is the network its closing check hands to
/// `cec`: the mapped netlist rebuilt by `to_network`.
type Rebuild = fn(&Network) -> Network;

/// Pins the [`Network::structural_fingerprint`] of every rebuilt network, so
/// a change to decomposition or cofactoring that moves a node of what CEC
/// checks fails here even when the netlists themselves stay put.
fn check_rebuilt(name: &str, rebuild: Rebuild, expected: &[NetworkPin]) {
    let render =
        |&(circuit, fingerprint): &NetworkPin<'_>| format!("(\"{circuit}\", {fingerprint:#018x}),");
    let observed: Vec<String> = expected
        .iter()
        .map(|&(circuit, _)| {
            let network = benchmark(circuit).expect("suite circuit");
            render(&(circuit, rebuild(&network).structural_fingerprint()))
        })
        .collect();
    let expected: Vec<String> = expected.iter().map(render).collect();
    assert_eq!(
        observed.join("\n"),
        expected.join("\n"),
        "{name} rebuilt-network pins changed"
    );
}

fn asic_rebuilt(network: &Network, config: MchConfig) -> Network {
    let library = asap7_lite();
    let result =
        try_asic_flow_mch(network, &library, &config.with_threads(1)).expect("suite circuits map");
    result.netlist.to_network(&library)
}

fn lut_rebuilt(network: &Network, fused: bool) -> Network {
    let k6 = LutLibrary::k6();
    let result = if fused {
        let config = MchConfig::lut_fusion().with_fusion(FusionMode::Inject);
        try_lut_flow_mch_fused(network, &k6, &asap7_lite(), &config.with_threads(1))
    } else {
        try_lut_flow_mch(network, &k6, &MchConfig::lut_area().with_threads(1))
    }
    .expect("suite circuits map");
    result.netlist.to_network()
}

#[test]
fn delay_oriented_rebuilt_networks_are_pinned() {
    check_rebuilt(
        "delay_oriented",
        |n| asic_rebuilt(n, MchConfig::delay_oriented()),
        DELAY_ORIENTED_REBUILT,
    );
}

#[test]
fn area_oriented_rebuilt_networks_are_pinned() {
    check_rebuilt(
        "area_oriented",
        |n| asic_rebuilt(n, MchConfig::area_oriented()),
        AREA_ORIENTED_REBUILT,
    );
}

#[test]
fn lut_area_rebuilt_networks_are_pinned() {
    check_rebuilt("lut_area", |n| lut_rebuilt(n, false), LUT_AREA_REBUILT);
}

#[test]
fn fused_inject_rebuilt_networks_are_pinned() {
    check_rebuilt(
        "lut_fusion Inject",
        |n| lut_rebuilt(n, true),
        FUSED_INJECT_REBUILT,
    );
}

const DELAY_ORIENTED_REBUILT: &[NetworkPin] = &[
    ("ctrl", 0x7135067c4aaaffeb),
    ("int2float", 0xc83102bf9ab5c5b2),
    ("router", 0xd54712db75ebb6f0),
    ("i2c", 0x4de0a30d8ca01854),
];

const AREA_ORIENTED_REBUILT: &[NetworkPin] = &[
    ("ctrl", 0xab7f52978918a4df),
    ("int2float", 0x0dbfdcf87ca883dd),
    ("router", 0xf2272a2647c2f4aa),
    ("i2c", 0x6384a54cbf26e0a9),
];

const LUT_AREA_REBUILT: &[NetworkPin] = &[
    ("ctrl", 0x1ac0cf297651c4ac),
    ("int2float", 0x60a80f64f42151ce),
    ("router", 0xf2819c94310bf3af),
    ("i2c", 0xfef5a2f28783fa0d),
];

const FUSED_INJECT_REBUILT: &[NetworkPin] = &[
    ("ctrl", 0x1ac0cf297651c4ac),
    ("int2float", 0x60a80f64f42151ce),
    ("router", 0xf2819c94310bf3af),
    ("i2c", 0x50d7225b71c63d04),
];
