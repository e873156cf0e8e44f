//! What a prepared cover keeps of its cut lists: nothing.
//!
//! A `PreparedCover` reads the representatives' cut lists once, while its
//! candidate skeleton is built, and drops them. For each cover — LUT under
//! `lut_area`, ASIC under `delay_oriented`, and the fusion guide of
//! `lut_fusion` — the cover's cut set must be empty, and its skeleton must
//! equal, byte for byte of its `Debug` form, the skeleton built directly
//! over what cut preparation plus `compact()` produce.

use mch::benchmarks::benchmark;
use mch::choice::{build_mch, ChoiceNetwork};
use mch::core::MchConfig;
use mch::cut::NetworkCuts;
use mch::mapper::{
    library_cost_model, prepare_asic_cover, prepare_cuts, prepare_fusion_guide, prepare_lut_cover,
    AsicMapParams, AsicTarget, CoverSkeleton, CoverTarget, CutCostModel, LutMapParams, LutTarget,
    PreparedCover,
};
use mch::techlib::{asap7_lite, LutLibrary};
use std::fmt::Debug;

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

fn assert_cutless<T: CoverTarget>(
    case: &str,
    choice: &ChoiceNetwork,
    prep: &PreparedCover<T::Candidate>,
    target: &T,
    mut full: NetworkCuts,
) where
    T::Candidate: Debug,
{
    assert_eq!(prep.cuts().total_cuts(), 0, "{case}: the cover kept cuts");
    assert_eq!(prep.cuts().approx_bytes(), 0, "{case}: a cut arena");
    assert!(
        choice.network().len() > choice.original_len(),
        "{case}: no choice node, so no transferred cut"
    );
    full.compact();
    let want = CoverSkeleton::build(choice, target, &full);
    assert_eq!(
        format!("{:?}", prep.skeleton()),
        format!("{want:?}"),
        "{case}: skeleton differs from one built over the compacted cuts"
    );
}

#[test]
fn lut_covers_keep_no_cuts_and_match_a_compacted_build() {
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
        let case = format!("{circuit} lut_area");
        assert_cutless(&case, &choice, &prep, &LutTarget::new(&lut), full);
    }
}

#[test]
fn asic_covers_keep_no_cuts_and_match_a_compacted_build() {
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
        assert_cutless(&case, &choice, &prep, &AsicTarget::new(&library), full);
    }
}

#[test]
fn fusion_guides_keep_no_cuts_and_match_a_compacted_build() {
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
        assert_cutless(&case, &choice, &prep, &AsicTarget::new(&library), full);
    }
}
