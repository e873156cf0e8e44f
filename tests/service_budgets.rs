//! Per-job budgets × batch composition for the mapping service.
//!
//! A budget belongs to exactly one job: a breached job walks the pinned,
//! deterministic degradation ladder (recorded on its own report) while an
//! unbudgeted sibling in the same batch is a byte-level no-op — and the
//! degraded job itself is byte-identical to its solo run, in every batch
//! composition and at every thread count.

use mch::benchmarks::{adder, demo_adder_gt};
use mch::core::{
    DegradationStep, FlowBudget, Job, JobOutput, JobReport, MappingService, MchConfig,
};
use mch::io::write_lut_blif;
use mch::techlib::LutLibrary;
use std::time::Duration;

fn lut_job(name: &str, big: bool, threads: usize) -> Job {
    let network = if big { adder(16) } else { demo_adder_gt() };
    Job::lut(
        name,
        network,
        LutLibrary::k6(),
        MchConfig::lut_area().with_threads(threads),
    )
}

/// A budget whose breach is deterministic: the zero deadline has already
/// passed when the post-choice check runs, on every machine.
fn zero_deadline() -> FlowBudget {
    FlowBudget::unlimited().with_deadline(Duration::ZERO)
}

/// A size budget that walks the resynthesis rungs of the ladder —
/// deterministic because it depends only on circuit sizes.
fn tight_size_budget(network_len: usize) -> FlowBudget {
    FlowBudget::unlimited()
        .with_max_cut_arena_slots(network_len * 2)
        .with_max_resynthesis_candidates(0)
}

fn unwrap_lut(report: &JobReport) -> &mch::core::LutFlowResult {
    let out = report
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("job {} failed: {e}", report.name));
    let r = match out {
        JobOutput::Lut(r) => r,
        _ => panic!("expected a LUT job"),
    };
    assert!(r.verified, "job {} must stay equivalent", report.name);
    r
}

#[test]
fn deadline_breach_degrades_one_job_and_leaves_the_sibling_untouched() {
    for threads in [1, 4] {
        // Solo baselines: the budgeted job alone, the unbudgeted job alone.
        let solo_budgeted = {
            let report =
                MappingService::new().run(lut_job("budgeted", true, threads).with_budget(zero_deadline()));
            let r = unwrap_lut(&report).clone();
            (write_lut_blif(&r.netlist), r.degradation)
        };
        let solo_plain = {
            let report = MappingService::new().run(lut_job("plain", false, threads));
            let r = unwrap_lut(&report);
            assert!(!r.degradation.degraded(), "unbudgeted job must not degrade");
            write_lut_blif(&r.netlist)
        };

        // Same two jobs in one batch, both in flight.
        let service = MappingService::new().with_max_in_flight(2);
        let reports = service.run_batch(vec![
            lut_job("budgeted", true, threads).with_budget(zero_deadline()),
            lut_job("plain", false, threads),
        ]);
        let budgeted = unwrap_lut(&reports[0]);
        assert!(budgeted.degradation.deadline_breached);
        assert!(budgeted
            .degradation
            .steps
            .contains(&DegradationStep::DeadlineFallback));
        assert_eq!(
            (write_lut_blif(&budgeted.netlist), budgeted.degradation.clone()),
            solo_budgeted,
            "budgeted job diverged from its solo run at {threads} threads"
        );
        let plain = unwrap_lut(&reports[1]);
        assert!(
            !plain.degradation.degraded(),
            "the sibling must not inherit the budget"
        );
        assert_eq!(
            write_lut_blif(&plain.netlist),
            solo_plain,
            "unbudgeted sibling is not a byte-level no-op at {threads} threads"
        );
    }
}

#[test]
fn size_budget_walks_the_pinned_ladder_in_any_batch_composition() {
    let threads = 2;
    let big_len = adder(16).len();
    // The budgeted job's pinned expectation: bytes + full degradation trace,
    // from a solo run.
    let solo = {
        let report = MappingService::new().run(
            lut_job("capped", true, threads).with_budget(tight_size_budget(big_len)),
        );
        let r = unwrap_lut(&report).clone();
        assert!(r.degradation.degraded(), "the size budget must bite");
        assert!(!r.degradation.deadline_breached, "size rungs only");
        (write_lut_blif(&r.netlist), r.degradation)
    };

    // Composition sweep: alone in a batch, first of three, last of three.
    let compositions: Vec<Vec<Job>> = vec![
        vec![lut_job("capped", true, threads).with_budget(tight_size_budget(big_len))],
        vec![
            lut_job("capped", true, threads).with_budget(tight_size_budget(big_len)),
            lut_job("s1", false, threads),
            lut_job("s2", false, threads),
        ],
        vec![
            lut_job("s1", false, threads),
            lut_job("s2", false, threads),
            lut_job("capped", true, threads).with_budget(tight_size_budget(big_len)),
        ],
    ];
    for jobs in compositions {
        let n = jobs.len();
        let service = MappingService::new().with_max_in_flight(n);
        let reports = service.run_batch(jobs);
        let capped = reports
            .iter()
            .find(|r| r.name == "capped")
            .expect("capped job present");
        let r = unwrap_lut(capped);
        assert_eq!(
            (write_lut_blif(&r.netlist), r.degradation.clone()),
            solo,
            "degradation trace not pinned in a {n}-job batch"
        );
        for report in reports.iter().filter(|r| r.name != "capped") {
            assert!(
                !unwrap_lut(report).degradation.degraded(),
                "sibling {} inherited a budget it does not have",
                report.name
            );
        }
    }
}

#[test]
fn degraded_outputs_are_identical_across_thread_counts_in_batches() {
    let big_len = adder(16).len();
    let mut serializations = Vec::new();
    for threads in [1, 2, 4] {
        let service = MappingService::new().with_max_in_flight(2);
        let reports = service.run_batch(vec![
            lut_job("capped", true, threads).with_budget(tight_size_budget(big_len)),
            lut_job("plain", false, threads),
        ]);
        let r = unwrap_lut(&reports[0]);
        assert!(r.degradation.degraded());
        serializations.push((write_lut_blif(&r.netlist), r.degradation.clone()));
    }
    for s in &serializations[1..] {
        assert_eq!(
            s, &serializations[0],
            "batched degraded output must be thread-count invariant"
        );
    }
}
