//! End-to-end tests of the budgeted degradation ladder.
//!
//! The size-based rungs are pure configuration transformations, so a
//! breached budget must produce the *same* degraded netlist at every thread
//! count (byte-identical serialization), the same pinned
//! `DegradationReport`, and an output that still passes combinational
//! equivalence checking against the input.

use mch::core::{
    DegradationStep, FlowBudget, Job, LutFlowResult, MappingService, MchConfig, StrategyClass,
};
use mch::benchmarks::demo_adder_gt;
use mch::techlib::{asap7_lite, LutLibrary};
use mch::io::{write_lut_blif, write_verilog};
use std::time::Duration;

/// A budget every demo-sized flow breaches on all size axes.
fn breaching_budget(network_len: usize) -> FlowBudget {
    FlowBudget::unlimited()
        .with_max_cut_arena_slots(network_len * 2)
        .with_max_resynthesis_candidates(0)
}

#[test]
fn degraded_lut_flow_is_identical_at_every_thread_count() {
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let budget = breaching_budget(net.len());
    let mut serializations = Vec::new();
    for threads in [1, 2, 4] {
        let config = MchConfig::lut_area().with_threads(threads);
        let result = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &config, &budget)
            .expect("breached budgets degrade, they do not fail");
        assert!(result.degradation.degraded(), "the budget must breach");
        assert!(
            result.verified,
            "degraded output must stay simulation-equivalent at {threads} threads"
        );
        serializations.push(write_lut_blif(&result.netlist));
    }
    assert_eq!(
        serializations[0], serializations[1],
        "degraded netlist differs between 1 and 2 threads"
    );
    assert_eq!(
        serializations[0], serializations[2],
        "degraded netlist differs between 1 and 4 threads"
    );
}

#[test]
fn degraded_asic_flow_is_identical_at_every_thread_count() {
    let net = demo_adder_gt();
    let lib = asap7_lite();
    let budget = breaching_budget(net.len());
    let mut serializations = Vec::new();
    for threads in [1, 2, 4] {
        let config = MchConfig::area_oriented().with_threads(threads);
        let result = mch::core::try_asic_flow_mch_with_budget(&net, &lib, &config, &budget)
            .expect("breached budgets degrade, they do not fail");
        assert!(result.degradation.degraded());
        assert!(result.verified);
        serializations.push(write_verilog(&result.netlist, &lib));
    }
    assert_eq!(serializations[0], serializations[1]);
    assert_eq!(serializations[0], serializations[2]);
}

#[test]
fn degraded_parallel_commit_is_identical_at_every_thread_count() {
    // A *partially* breaching budget over a circuit large enough for the
    // pool to shard its cut enumeration: the candidate cap halves (a pure
    // pre-flow config transform) but resynthesis and snapshot mixing stay
    // on, so the degraded build still commits resynthesis candidates over
    // level-parallel cuts at `threads > 1`. Budgets and threads must
    // compose: the same rungs taken, the same degraded netlist, at every
    // thread count.
    let net = mch::benchmarks::adder(16);
    let lut = LutLibrary::k6();
    let budget = FlowBudget::unlimited().with_max_resynthesis_candidates(1000);
    let mut reports = Vec::new();
    let mut serializations = Vec::new();
    for threads in [1, 2, 4, 8] {
        let config = MchConfig::lut_area().with_threads(threads);
        let result = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &config, &budget)
            .expect("a partially breached budget degrades, it does not fail");
        assert!(result.degradation.degraded(), "the cap must breach");
        assert!(
            !result
                .degradation
                .steps
                .contains(&DegradationStep::ResynthesisDisabled),
            "resynthesis must survive so the degraded build still commits candidates"
        );
        assert!(result.verified, "degraded output must verify at {threads} threads");
        reports.push(result.degradation.steps.clone());
        serializations.push(write_lut_blif(&result.netlist));
    }
    for (i, (report, blif)) in reports.iter().zip(&serializations).enumerate().skip(1) {
        assert_eq!(report, &reports[0], "degradation report diverged (index {i})");
        assert_eq!(blif, &serializations[0], "degraded netlist diverged (index {i})");
    }
}

/// The ladder `lut_area` walks under [`breaching_budget`] on the demo
/// circuit. `lut_area` starts from cut_limit 8, 3 candidates per node, one
/// level and one area strategy entry, and snapshot mixing on. A zero
/// candidate cap plus a 2-slots-per-node arena cap walks the entire ladder
/// in its fixed order; the mapper's cut limit is then re-shrunk against the
/// (larger) choice network.
fn lut_area_ladder() -> Vec<DegradationStep> {
    vec![
        DegradationStep::CutLimitShrunk { from: 8, to: 4 },
        DegradationStep::CutLimitShrunk { from: 4, to: 2 },
        DegradationStep::CandidateCapReduced { from: 3, to: 1 },
        DegradationStep::StrategyDropped {
            library: StrategyClass::Area,
            remaining: 0,
        },
        DegradationStep::StrategyDropped {
            library: StrategyClass::Level,
            remaining: 0,
        },
        DegradationStep::ResynthesisDisabled,
        DegradationStep::SnapshotsDropped,
        DegradationStep::CutLimitShrunk { from: 8, to: 4 },
        DegradationStep::CutLimitShrunk { from: 4, to: 2 },
    ]
}

/// Runs the fused LUT flow as a budgeted service job.
fn fused_job(config: MchConfig, budget: FlowBudget) -> LutFlowResult {
    let job = Job::lut_fused(
        "fused",
        demo_adder_gt(),
        LutLibrary::k6(),
        asap7_lite(),
        config,
    )
    .with_budget(budget);
    let output = MappingService::new()
        .run(job)
        .outcome
        .expect("breached budgets degrade, they do not fail");
    output.as_lut().expect("a LUT job returns a LUT result").clone()
}

#[test]
fn forced_breach_report_is_pinned() {
    // This exact sequence is the contract — an unintended reorder of the
    // ladder must fail this pin.
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let budget = breaching_budget(net.len());
    let result =
        mch::core::try_lut_flow_mch_with_budget(&net, &lut, &MchConfig::lut_area(), &budget)
            .expect("flow must degrade, not fail");
    let report = &result.degradation;
    assert!(!report.deadline_breached);
    assert_eq!(
        report.steps,
        lut_area_ladder(),
        "the degradation ladder took an unexpected path"
    );
}

#[test]
fn asic_breach_report_is_pinned() {
    // `area_oriented` carries two area strategy entries, so the ladder drops
    // area entries twice before the level entry.
    let net = demo_adder_gt();
    let lib = asap7_lite();
    let budget = breaching_budget(net.len());
    let result =
        mch::core::try_asic_flow_mch_with_budget(&net, &lib, &MchConfig::area_oriented(), &budget)
            .expect("flow must degrade, not fail");
    assert!(!result.degradation.deadline_breached);
    assert_eq!(
        result.degradation.steps,
        vec![
            DegradationStep::CutLimitShrunk { from: 8, to: 4 },
            DegradationStep::CutLimitShrunk { from: 4, to: 2 },
            DegradationStep::CandidateCapReduced { from: 3, to: 1 },
            DegradationStep::StrategyDropped {
                library: StrategyClass::Area,
                remaining: 1,
            },
            DegradationStep::StrategyDropped {
                library: StrategyClass::Area,
                remaining: 0,
            },
            DegradationStep::StrategyDropped {
                library: StrategyClass::Level,
                remaining: 0,
            },
            DegradationStep::ResynthesisDisabled,
            DegradationStep::SnapshotsDropped,
            DegradationStep::CutLimitShrunk { from: 8, to: 4 },
            DegradationStep::CutLimitShrunk { from: 4, to: 2 },
        ],
        "the ASIC degradation ladder took an unexpected path"
    );
}

#[test]
fn plain_lut_flow_takes_no_fusion_rung() {
    // The plain LUT flow ignores `config.fusion`: under `lut_fusion` it walks
    // the `lut_area` ladder and maps the same netlist.
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let budget = breaching_budget(net.len());
    let area =
        mch::core::try_lut_flow_mch_with_budget(&net, &lut, &MchConfig::lut_area(), &budget)
            .expect("flow must degrade, not fail");
    let fusion =
        mch::core::try_lut_flow_mch_with_budget(&net, &lut, &MchConfig::lut_fusion(), &budget)
            .expect("flow must degrade, not fail");
    assert!(!fusion.degradation.deadline_breached);
    assert_eq!(fusion.degradation.steps, lut_area_ladder());
    assert_eq!(write_lut_blif(&fusion.netlist), write_lut_blif(&area.netlist));
}

#[test]
fn fused_breach_report_is_pinned() {
    // The fused flow walks the `lut_area` ladder, then drops fusion: the
    // guide pass's second cut arena cannot fit the slot cap.
    let net = demo_adder_gt();
    let result = fused_job(MchConfig::lut_fusion(), breaching_budget(net.len()));
    let mut expected = lut_area_ladder();
    expected.push(DegradationStep::FusionDropped);
    assert!(!result.degradation.deadline_breached);
    assert_eq!(
        result.degradation.steps, expected,
        "the fused degradation ladder took an unexpected path"
    );
    assert!(result.verified);
}

#[test]
fn zero_deadline_drops_fusion_before_the_fallback() {
    let budget = FlowBudget::unlimited().with_deadline(Duration::ZERO);
    let result = fused_job(MchConfig::lut_fusion(), budget);
    assert!(result.degradation.deadline_breached);
    assert_eq!(
        result.degradation.steps,
        vec![
            DegradationStep::FusionDropped,
            DegradationStep::DeadlineFallback
        ]
    );
    assert!(result.verified, "the fallback mapping must still verify");
}

#[test]
fn zero_deadline_falls_back_to_structural_mapping() {
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let budget = FlowBudget::unlimited().with_deadline(Duration::ZERO);
    let result = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &MchConfig::lut_area(), &budget)
        .expect("deadline breach degrades, it does not fail");
    assert!(result.degradation.deadline_breached);
    assert!(result
        .degradation
        .steps
        .contains(&DegradationStep::DeadlineFallback));
    assert!(result.verified, "the fallback mapping must still verify");
    assert!(result.luts >= 1);
}

#[test]
fn unbreached_budget_changes_nothing() {
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let generous = FlowBudget::unlimited()
        .with_deadline(Duration::from_secs(3600))
        .with_max_cut_arena_slots(usize::MAX)
        .with_max_resynthesis_candidates(usize::MAX);
    let config = MchConfig::lut_area();
    let plain = mch::core::lut_flow_mch(&net, &lut, &config);
    let budgeted = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &config, &generous)
        .expect("generous budget must not fail");
    assert!(!budgeted.degradation.degraded());
    assert_eq!(
        write_lut_blif(&plain.netlist),
        write_lut_blif(&budgeted.netlist),
        "an unbreached budget must be a byte-level no-op"
    );
}
