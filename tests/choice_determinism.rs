//! Determinism of choice construction: repeated `build_mch` calls must
//! produce **identical** choice networks (choice classes, deterministic
//! statistics and the mixed network, node for node), and both full flows at
//! 1, 2, 4 and 8 worker threads identical mapped netlists, across AIG, XAG
//! and MIG inputs. Thread scheduling must never be observable in a result.
//!
//! Also sweeps `ChoiceNetwork::verify` over the random suite — every
//! recorded choice class must simulate equivalent — and pins the id-sorted
//! iteration order of `representatives()`.
//!
//! The commit-heavy profile (wide circuits, raised candidate cap, two
//! secondary representations) makes commits dominate the build. Its wide
//! levels make the mapper's level-parallel cut enumeration shard at every
//! tested thread count, so a cut set that depended on scheduling would
//! change the mapped netlists and show up as a byte difference here.

use mch::benchmarks::random_logic;
use mch::choice::{build_mch, build_mch_with_stats, MchParams};
use mch::core::{asic_flow_mch, lut_flow_mch, MchConfig};
use mch::logic::{convert, Network, NetworkKind, NodeId, Prng};
use mch::techlib::{asap7_lite, LutLibrary};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// The `i`-th random network of the suite, cycled through the AIG, XAG and
/// MIG representations so the one-to-one templates and the resynthesis
/// strategies see every gate kind.
fn arbitrary_network(i: usize) -> Network {
    let mut rng = Prng::seed_from_u64(0xC401_CE00 + i as u64);
    let inputs = rng.gen_range(4..20);
    let outputs = rng.gen_range(1..6);
    let gates = rng.gen_range(80..400);
    let seed = rng.next_u64();
    let aig = random_logic("choice-prop", inputs, outputs, gates, seed);
    match i % 3 {
        0 => aig,
        1 => convert(&aig, NetworkKind::Xag),
        _ => convert(&aig, NetworkKind::Mig),
    }
}

#[test]
fn build_mch_is_identical_across_repeated_builds() {
    for i in 0..9 {
        let net = arbitrary_network(i);
        for params in [
            MchParams::balanced(),
            MchParams::area_oriented(),
            MchParams::delay_oriented(),
        ] {
            let (first_cn, first_stats) = build_mch_with_stats(&net, &params);
            let (cn, stats) = build_mch_with_stats(&net, &params);
            // Mixed network (node for node), choice classes and phases —
            // the ChoiceNetwork PartialEq covers all of it.
            assert_eq!(first_cn, cn, "case {i}: a repeated build diverged");
            // Deterministic statistics: choice counts, critical nodes,
            // NPN cache hits/classes. Only wall times may differ.
            assert_eq!(
                first_stats.timeless(),
                stats.timeless(),
                "case {i}: a repeated build's stats diverged"
            );
        }
    }
}

/// A wide random network: levels wide enough that the mapper's cut
/// enumeration shards across workers at every tested thread count.
fn wide_arbitrary_network(i: usize) -> Network {
    let mut rng = Prng::seed_from_u64(0xC0_3317 + i as u64);
    let inputs = rng.gen_range(20..30);
    let outputs = rng.gen_range(4..8);
    let gates = rng.gen_range(500..800);
    let seed = rng.next_u64();
    let aig = random_logic("choice-commit-heavy", inputs, outputs, gates, seed);
    if i.is_multiple_of(2) {
        aig
    } else {
        convert(&aig, NetworkKind::Xag)
    }
}

#[test]
fn commit_heavy_builds_are_identical_across_repeated_builds() {
    // Stress profile for the commit: wide circuits, two secondary
    // representations (so the one-to-one mapping emits twice per gate) and
    // a raised candidate cap so commit traffic dominates the build. A
    // repeated build must still produce the byte-identical choice network.
    for i in 0..4 {
        let net = wide_arbitrary_network(i);
        let mut params = MchParams::mixed(&[NetworkKind::Xag, NetworkKind::Xmg]);
        params.max_candidates_per_node = 8;
        let (first_cn, first_stats) = build_mch_with_stats(&net, &params);
        let (cn, stats) = build_mch_with_stats(&net, &params);
        assert_eq!(
            first_cn, cn,
            "case {i}: a repeated commit-heavy build diverged"
        );
        assert_eq!(
            first_stats.timeless(),
            stats.timeless(),
            "case {i}: a repeated commit-heavy build's stats diverged"
        );
    }
}

#[test]
fn commit_heavy_flows_are_identical_across_thread_counts() {
    // The same stress profile end to end: both technology-mapping flows over
    // a raised candidate cap must hand back identical netlists at every
    // thread count.
    let lib = asap7_lite();
    let lut = LutLibrary::k6();
    let net = wide_arbitrary_network(0);
    let commit_heavy = |mut config: MchConfig, threads: usize| {
        config.mch.max_candidates_per_node = 6;
        config.with_threads(threads)
    };
    let asic_serial = asic_flow_mch(&net, &lib, &commit_heavy(MchConfig::area_oriented(), 1));
    let lut_serial = lut_flow_mch(&net, &lut, &commit_heavy(MchConfig::lut_area(), 1));
    assert!(asic_serial.verified && lut_serial.verified);
    for threads in THREAD_COUNTS {
        let asic = asic_flow_mch(&net, &lib, &commit_heavy(MchConfig::area_oriented(), threads));
        assert_eq!(
            asic_serial.netlist, asic.netlist,
            "{threads}-thread commit-heavy ASIC flow diverged"
        );
        assert_eq!(asic_serial.area.to_bits(), asic.area.to_bits());
        assert_eq!(asic_serial.delay.to_bits(), asic.delay.to_bits());
        let fpga = lut_flow_mch(&net, &lut, &commit_heavy(MchConfig::lut_area(), threads));
        assert_eq!(
            lut_serial.netlist, fpga.netlist,
            "{threads}-thread commit-heavy LUT flow diverged"
        );
        assert_eq!((lut_serial.luts, lut_serial.levels), (fpga.luts, fpga.levels));
    }
}

#[test]
fn full_flows_are_identical_across_thread_counts() {
    let lib = asap7_lite();
    let lut = LutLibrary::k6();
    for i in 0..3 {
        let net = arbitrary_network(i);
        let asic_serial = asic_flow_mch(&net, &lib, &MchConfig::area_oriented().with_threads(1));
        let lut_serial = lut_flow_mch(&net, &lut, &MchConfig::lut_area().with_threads(1));
        assert!(asic_serial.verified && lut_serial.verified);
        for threads in THREAD_COUNTS {
            let asic =
                asic_flow_mch(&net, &lib, &MchConfig::area_oriented().with_threads(threads));
            assert_eq!(
                asic_serial.netlist, asic.netlist,
                "case {i}: {threads}-thread ASIC flow diverged"
            );
            assert_eq!(asic_serial.area.to_bits(), asic.area.to_bits(), "case {i}");
            assert_eq!(asic_serial.delay.to_bits(), asic.delay.to_bits(), "case {i}");
            let fpga = lut_flow_mch(&net, &lut, &MchConfig::lut_area().with_threads(threads));
            assert_eq!(
                lut_serial.netlist, fpga.netlist,
                "case {i}: {threads}-thread LUT flow diverged"
            );
            assert_eq!((lut_serial.luts, lut_serial.levels), (fpga.luts, fpga.levels));
        }
    }
}

#[test]
fn fused_flows_are_identical_across_thread_counts() {
    // The ASIC-guided fused LUT flow runs TWO cover problems per circuit, so
    // it has twice the surface for scheduling to leak into a result: the
    // guide cover's selection feeds candidate injection and ranking bias.
    // Every fusion mode must still be byte-identical at every thread count,
    // and Off must be byte-identical to the plain LUT flow.
    use mch::core::{try_lut_flow_mch_fused, FusionMode};
    let lib = asap7_lite();
    let lut = LutLibrary::k6();
    let fused_flow = |net: &Network, config: &MchConfig| {
        try_lut_flow_mch_fused(net, &lut, &lib, config).expect("valid inputs map")
    };
    for i in 0..3 {
        let net = arbitrary_network(i);
        let plain_serial = lut_flow_mch(&net, &lut, &MchConfig::lut_area().with_threads(1));
        for mode in [FusionMode::Off, FusionMode::Bias, FusionMode::Inject, FusionMode::Full] {
            let config = |threads: usize| {
                MchConfig::lut_fusion().with_fusion(mode).with_threads(threads)
            };
            let serial = fused_flow(&net, &config(1));
            assert!(serial.verified, "case {i} ({mode:?}): not equivalent");
            if mode == FusionMode::Off {
                assert_eq!(
                    plain_serial.netlist, serial.netlist,
                    "case {i}: fusion Off diverged from the plain LUT flow"
                );
            }
            for threads in THREAD_COUNTS {
                let fused = fused_flow(&net, &config(threads));
                assert_eq!(
                    serial.netlist, fused.netlist,
                    "case {i} ({mode:?}): {threads}-thread fused flow diverged"
                );
                assert_eq!(
                    (serial.luts, serial.levels),
                    (fused.luts, fused.levels),
                    "case {i} ({mode:?}): {threads}-thread fused metrics diverged"
                );
            }
        }
    }
}

#[test]
fn verify_stays_empty_over_the_random_suite() {
    // Property sweep: every choice class the construction records — one-to-one
    // styled candidates, NPN-replayed resyntheses, MFFC rewrites — must
    // simulate equivalent to its representative.
    for i in 0..12 {
        let net = arbitrary_network(i);
        let params = match i % 3 {
            0 => MchParams::balanced(),
            1 => MchParams::area_oriented(),
            _ => MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Xmg]),
        };
        let cn = build_mch(&net, &params);
        let bad = cn.verify(16, 0x0BAD_5EED ^ i as u64);
        assert!(
            bad.is_empty(),
            "case {i}: {} inconsistent choice classes, first {:?}",
            bad.len(),
            bad.first()
        );
    }
}

#[test]
fn representatives_are_id_sorted_for_every_build() {
    for i in 0..6 {
        let net = arbitrary_network(i);
        let cn = build_mch(&net, &MchParams::area_oriented());
        let reprs: Vec<NodeId> = cn.representatives().collect();
        assert!(
            reprs.windows(2).all(|w| w[0] < w[1]),
            "case {i}: representatives not strictly id-sorted"
        );
        // And every representative actually owns at least one choice.
        assert!(reprs.iter().all(|&r| !cn.choices_of(r).is_empty()));
    }
}
