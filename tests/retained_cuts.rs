//! The cut lists a prepared cover retains.
//!
//! A `PreparedCover` keeps only the cut lists its candidate skeleton was
//! built from: those of the choice network's original (representative)
//! nodes. For each cover — LUT under `lut_area`, ASIC under
//! `delay_oriented`, and the fusion guide of `lut_fusion` — every original
//! node's retained list must equal the one cut preparation plus `compact()`
//! produce, down to signatures and cost bits, and every other node's list
//! must be empty.

use mch::benchmarks::benchmark;
use mch::choice::{build_mch, ChoiceNetwork};
use mch::core::MchConfig;
use mch::cut::NetworkCuts;
use mch::logic::NodeId;
use mch::mapper::{
    library_cost_model, prepare_asic_cover, prepare_cuts, prepare_fusion_guide, prepare_lut_cover,
    AsicMapParams, CutCostModel, LutMapParams,
};
use mch::techlib::{asap7_lite, LutLibrary};

const CIRCUITS: [&str; 4] = ["ctrl", "int2float", "router", "i2c"];

fn choices(circuit: &str, config: &MchConfig) -> ChoiceNetwork {
    let network = benchmark(circuit).expect("suite circuit");
    build_mch(&network, &config.mch)
}

fn lut_params(config: &MchConfig) -> LutMapParams {
    LutMapParams::new(config.objective)
        .with_ranking(config.cut_ranking)
        .with_threads(1)
}

fn assert_retained(case: &str, choice: &ChoiceNetwork, kept: &NetworkCuts, mut full: NetworkCuts) {
    full.compact();
    let mut retained = 0;
    for i in 0..choice.network().len() {
        let id = NodeId::from_index(i);
        let got = kept.of(id);
        if !choice.is_original(id) {
            assert!(
                got.is_empty(),
                "{case}: choice node {id} kept {} cuts",
                got.len()
            );
            continue;
        }
        let want = full.of(id);
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
        retained += got.len();
    }
    assert_eq!(kept.total_cuts(), retained, "{case}: stray cuts");
    assert!(
        retained < full.total_cuts(),
        "{case}: no choice node had cuts to drop"
    );
}

#[test]
fn lut_covers_retain_only_the_representatives_cut_lists() {
    let config = MchConfig::lut_area().with_threads(1);
    let lut = LutLibrary::k6();
    let params = lut_params(&config);
    for circuit in CIRCUITS {
        let choice = choices(circuit, &config);
        let prep = prepare_lut_cover(&choice, &lut, &params);
        let full = prepare_cuts(
            &choice,
            lut.k(),
            params.cut_limit,
            params.cut_ranking,
            &CutCostModel::unit(),
            1,
        );
        assert_retained(&format!("{circuit} lut_area"), &choice, prep.cuts(), full);
    }
}

#[test]
fn asic_covers_retain_only_the_representatives_cut_lists() {
    let config = MchConfig::delay_oriented().with_threads(1);
    let library = asap7_lite();
    let params = AsicMapParams::new(config.objective)
        .with_ranking(config.cut_ranking)
        .with_threads(1);
    for circuit in CIRCUITS {
        let choice = choices(circuit, &config);
        let prep = prepare_asic_cover(&choice, &library, &params);
        let full = prepare_cuts(
            &choice,
            library.max_inputs().clamp(3, 6),
            params.cut_limit,
            params.cut_ranking,
            &library_cost_model(&library),
            1,
        );
        let case = format!("{circuit} delay_oriented");
        assert_retained(&case, &choice, prep.cuts(), full);
    }
}

#[test]
fn fusion_guides_retain_only_the_representatives_cut_lists() {
    let config = MchConfig::lut_fusion().with_threads(1);
    let library = asap7_lite();
    let params = lut_params(&config);
    for circuit in CIRCUITS {
        let choice = choices(circuit, &config);
        let prep = prepare_fusion_guide(&choice, &library, &params);
        let full = prepare_cuts(
            &choice,
            library.max_inputs().clamp(3, 6),
            params.cut_limit,
            params.objective.default_ranking(),
            &library_cost_model(&library),
            1,
        );
        let case = format!("{circuit} fusion guide");
        assert_retained(&case, &choice, prep.cuts(), full);
    }
}
