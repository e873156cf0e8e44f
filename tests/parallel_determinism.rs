//! Determinism of the level-parallel engine: serial (`threads = 1`) and
//! multi-threaded (2, 4, 8 workers) runs must agree **exactly** — identical
//! cuts (leaves, functions, costs, arena layout), identical transferred
//! choice cuts and identical mapped netlists — on the random AIG/XAG/MIG
//! property suite. Thread scheduling must never be observable in a result.

use mch::benchmarks::random_logic;
use mch::choice::{build_mch, ChoiceNetwork, MchParams};
use mch::cut::{
    enumerate_cuts, enumerate_cuts_threaded, CutCost, CutCostModel, CutParams,
};
use mch::logic::{convert, Network, NetworkKind, Prng};
use mch::mapper::{
    map_asic, map_lut, prepare_cuts, AsicMapParams, LutMapParams, MappingObjective,
};
use mch::techlib::{asap7_lite, LutLibrary};

const CASES: usize = 18;
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// The `i`-th random network of the suite, cycled through the AIG, XAG and
/// MIG representations so both the 2- and 3-fanin kernels are exercised.
fn arbitrary_network(i: usize) -> Network {
    let mut rng = Prng::seed_from_u64(0x9A7A_11E1 + i as u64);
    let inputs = rng.gen_range(4..24);
    let outputs = rng.gen_range(1..8);
    let gates = rng.gen_range(30..600);
    let seed = rng.next_u64();
    let aig = random_logic("par-prop", inputs, outputs, gates, seed);
    match i % 3 {
        0 => aig,
        1 => convert(&aig, NetworkKind::Xag),
        _ => convert(&aig, NetworkKind::Mig),
    }
}

#[test]
fn parallel_enumeration_is_byte_identical_to_serial_on_wide_circuits() {
    // Wide, structured circuits whose levels comfortably exceed the sharding
    // threshold, so the pool genuinely splits them (the random suite below
    // also covers narrow networks that fall back to the serial driver).
    let wide = [
        mch::benchmarks::voter(255),
        mch::benchmarks::multiplier(16),
        convert(&mch::benchmarks::voter(127), NetworkKind::Mig),
    ];
    let params = CutParams::new(6, 8).with_cost(CutCost::Hybrid);
    for (i, net) in wide.iter().enumerate() {
        let serial = enumerate_cuts(net, &params);
        for threads in THREAD_COUNTS {
            let parallel =
                enumerate_cuts_threaded(net, &params, &CutCostModel::unit(), threads, None);
            assert!(
                serial.identical(&parallel),
                "wide case {i}, {threads} threads: parallel diverged"
            );
        }
    }
}

#[test]
fn parallel_enumeration_is_byte_identical_to_serial() {
    for i in 0..CASES {
        let net = arbitrary_network(i);
        for params in [
            CutParams::new(4, 6),
            CutParams::new(6, 8).with_cost(CutCost::Hybrid),
        ] {
            let serial = enumerate_cuts(&net, &params);
            for threads in THREAD_COUNTS {
                let parallel =
                    enumerate_cuts_threaded(&net, &params, &CutCostModel::unit(), threads, None);
                assert!(
                    serial.identical(&parallel),
                    "case {i}, {threads} threads, {params:?}: parallel diverged"
                );
            }
        }
    }
}

#[test]
fn parallel_choice_transfer_is_identical_to_serial() {
    for i in 0..CASES / 2 {
        let net = arbitrary_network(i);
        let mch = build_mch(&net, &MchParams::area_oriented());
        let serial = prepare_cuts(&mch, 4, 8, CutCost::Hybrid, &CutCostModel::unit(), 1);
        for threads in THREAD_COUNTS {
            let parallel =
                prepare_cuts(&mch, 4, 8, CutCost::Hybrid, &CutCostModel::unit(), threads);
            assert!(
                serial.identical(&parallel),
                "case {i}, {threads} threads: choice transfer diverged"
            );
            assert_eq!(serial.wasted_slots(), parallel.wasted_slots(), "case {i}");
        }
    }
}

#[test]
fn parallel_mapping_results_are_identical_to_serial() {
    let lut = LutLibrary::k6();
    let lib = asap7_lite();
    for i in 0..CASES / 3 {
        let net = arbitrary_network(i);
        let mch = build_mch(&net, &MchParams::area_oriented());
        for choice in [&ChoiceNetwork::from_network(&net), &mch] {
            let lut_serial = map_lut(
                choice,
                &lut,
                &LutMapParams::new(MappingObjective::Balanced).with_threads(1),
            );
            let asic_serial = map_asic(
                choice,
                &lib,
                &AsicMapParams::new(MappingObjective::Balanced).with_threads(1),
            );
            for threads in THREAD_COUNTS {
                let lut_parallel = map_lut(
                    choice,
                    &lut,
                    &LutMapParams::new(MappingObjective::Balanced).with_threads(threads),
                );
                assert_eq!(
                    lut_serial, lut_parallel,
                    "case {i}, {threads} threads: LUT netlist diverged"
                );
                let asic_parallel = map_asic(
                    choice,
                    &lib,
                    &AsicMapParams::new(MappingObjective::Balanced).with_threads(threads),
                );
                assert_eq!(
                    asic_serial, asic_parallel,
                    "case {i}, {threads} threads: cell netlist diverged"
                );
            }
        }
    }
}
