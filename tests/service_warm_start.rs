//! Warm-start determinism battery: sweep jobs and the prepared-flow cache.
//!
//! The contract: every warm-started result — a sweep variant reusing a
//! cached choice network and prepared cover, or a batch job hitting an
//! artifact another job inserted — is **byte-identical** to a cold solo run
//! of the same job, at every thread count, for every batch permutation, and
//! in every cache state (cold, warm, evicted, disabled). Budgets compose:
//! a budgeted sweep degrades exactly like its budgeted solo runs.
//!
//! The suites below sweep threads {1, 2, 4, 8} for the LUT path and exercise
//! the ASIC and fused paths alongside; `tests/service_faults.rs` adds the
//! fault-composition leg (cache failpoints → cold byte-identical fallback).

use mch::benchmarks::{adder, demo_adder_gt, voter};
use mch::core::{
    CutCost, FlowBudget, FusionMode, Job, JobKind, JobOutput, JobReport, MappingService, MchConfig,
};
use mch::io::{write_lut_blif, write_verilog};
use mch::techlib::{asap7_lite, Library, LutLibrary};

/// The thread counts the determinism gate sweeps (the ISSUE's contract).
fn thread_counts() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// A LUT parameter sweep sharing one choice construction: the variants vary
/// only mapper-side knobs (recovery rounds, exact area, cut ranking), so all
/// of them key to the same prepared flow.
fn lut_variants(threads: usize) -> Vec<MchConfig> {
    let base = MchConfig::lut_area().with_threads(threads);
    let mut structural = base.clone();
    structural.cut_ranking = CutCost::Structural;
    let mut depth = base.clone().with_area_rounds(2);
    depth.cut_ranking = CutCost::Depth;
    vec![
        base.clone(),
        base.clone().with_area_rounds(0),
        base.clone().with_area_rounds(4),
        base.clone().with_exact_area(true),
        base.clone().with_area_rounds(6).with_exact_area(true),
        structural,
        depth,
        base.with_area_rounds(1),
    ]
}

/// An ASIC sweep over one choice construction (same objective, different
/// recovery settings).
fn asic_variants(threads: usize) -> Vec<MchConfig> {
    let base = MchConfig::balanced().with_threads(threads);
    vec![
        base.clone(),
        base.clone().with_area_rounds(0),
        base.clone().with_area_rounds(4),
        base.with_exact_area(true),
    ]
}

/// Serialises everything deterministic about a job output: netlist bytes,
/// verification and the degradation trace; sweeps serialise every variant.
fn out_fingerprint(out: &JobOutput) -> String {
    match out {
        JobOutput::Asic(r) => {
            assert!(r.verified, "ASIC result did not verify");
            format!("{}\n{:?}", write_verilog(&r.netlist, &asap7_lite()), r.degradation)
        }
        JobOutput::Lut(r) => {
            assert!(r.verified, "LUT result did not verify");
            format!("{}\n{:?}", write_lut_blif(&r.netlist), r.degradation)
        }
        JobOutput::Sweep(reports) => reports
            .iter()
            .map(report_fingerprint)
            .collect::<Vec<_>>()
            .join("\n--\n"),
    }
}

fn report_fingerprint(report: &JobReport) -> String {
    let out = report
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("job {} failed: {e}", report.name));
    out_fingerprint(out)
}

/// A service with warm starts disabled: the cold reference — byte-for-byte
/// the pre-warm-start behaviour.
fn cold_service() -> MappingService {
    MappingService::new().with_prepared_capacity(0)
}

/// The cold reference for a sweep: each variant as its own solo job on a
/// cache-disabled service, serialised exactly like a sweep output.
fn cold_sweep_reference(
    network: &mch::core::Network,
    kind: &JobKind,
    variants: &[MchConfig],
) -> String {
    variants
        .iter()
        .map(|cfg| {
            let job = match kind {
                JobKind::AsicMch(lib) => {
                    Job::asic("cold", network.clone(), lib.clone(), cfg.clone())
                }
                JobKind::LutMch(lut) => Job::lut("cold", network.clone(), *lut, cfg.clone()),
                JobKind::LutFusedMch(lut, lib) => {
                    Job::lut_fused("cold", network.clone(), *lut, lib.clone(), cfg.clone())
                }
                JobKind::Sweep(..) => unreachable!("references are per-variant"),
            };
            report_fingerprint(&cold_service().run(job))
        })
        .collect::<Vec<_>>()
        .join("\n--\n")
}

#[test]
fn lut_sweeps_match_cold_solo_runs_at_every_thread_count_and_cache_state() {
    let network = adder(12);
    let kind = JobKind::LutMch(LutLibrary::k6());
    for threads in thread_counts() {
        let variants = lut_variants(threads);
        let expected = cold_sweep_reference(&network, &kind, &variants);
        // Cache states: cold (fresh default service), warm (same sweep again
        // on the now-populated cache), evicted (capacity too small to retain
        // anything), disabled (capacity zero).
        let service = MappingService::new();
        let first = service.run(Job::sweep(
            "sweep",
            network.clone(),
            kind.clone(),
            variants.clone(),
        ));
        assert_eq!(
            report_fingerprint(&first),
            expected,
            "cold-cache sweep diverged at {threads} threads"
        );
        let second = service.run(Job::sweep(
            "sweep-again",
            network.clone(),
            kind.clone(),
            variants.clone(),
        ));
        assert_eq!(
            report_fingerprint(&second),
            expected,
            "warm-cache sweep diverged at {threads} threads"
        );
        let stats = service.stats();
        assert!(
            stats.prepared_hits >= variants.len(),
            "a warm service must serve later variants from cache: {stats:?}"
        );
        assert!(stats.prepared_entries >= 1 && stats.prepared_bytes > 0);

        let evicting = MappingService::new().with_prepared_capacity(1);
        let evicted = evicting.run(Job::sweep(
            "sweep-evicted",
            network.clone(),
            kind.clone(),
            variants.clone(),
        ));
        assert_eq!(
            report_fingerprint(&evicted),
            expected,
            "evicting-cache sweep diverged at {threads} threads"
        );
        let estats = evicting.stats();
        assert!(estats.prepared_evictions >= 1, "1-byte cache must evict: {estats:?}");
        assert_eq!(estats.prepared_entries, 0);

        let disabled = cold_service().run(Job::sweep(
            "sweep-disabled",
            network.clone(),
            kind.clone(),
            variants,
        ));
        assert_eq!(
            report_fingerprint(&disabled),
            expected,
            "disabled-cache sweep diverged at {threads} threads"
        );
    }
}

#[test]
fn asic_and_fused_sweeps_match_cold_solo_runs() {
    let lib: Library = asap7_lite();
    let lut = LutLibrary::k6();
    for threads in [1, 4] {
        let network = demo_adder_gt();
        let asic_kind = JobKind::AsicMch(lib.clone());
        let variants = asic_variants(threads);
        let expected = cold_sweep_reference(&network, &asic_kind, &variants);
        let service = MappingService::new();
        let report = service.run(Job::sweep("asic-sweep", network.clone(), asic_kind, variants));
        assert_eq!(
            report_fingerprint(&report),
            expected,
            "ASIC sweep diverged at {threads} threads"
        );

        // The fused path builds two prepared covers (LUT + ASIC guide) per
        // variant; warm variants must still match their cold solo runs.
        let fused_kind = JobKind::LutFusedMch(lut, lib.clone());
        let fused_variants: Vec<MchConfig> = vec![
            MchConfig::lut_fusion().with_threads(threads),
            MchConfig::lut_fusion().with_threads(threads).with_area_rounds(0),
            MchConfig::lut_fusion().with_threads(threads).with_exact_area(true),
        ];
        let fused_expected = cold_sweep_reference(&network, &fused_kind, &fused_variants);
        let fused_report = service.run(Job::sweep(
            "fused-sweep",
            network.clone(),
            fused_kind,
            fused_variants,
        ));
        assert_eq!(
            report_fingerprint(&fused_report),
            fused_expected,
            "fused sweep diverged at {threads} threads"
        );
    }
}

/// A fusion guide's harvested cones are memoised per LUT size, on the guide
/// cover both sweeps below share (its key holds no LUT size). A fused K-6
/// sweep and then a fused K-4 sweep of one circuit on one service must each
/// byte-match their cold solo runs, mode by mode.
#[test]
fn fused_sweeps_over_two_lut_sizes_share_one_guide_and_match_cold_runs() {
    let lib: Library = asap7_lite();
    let network = demo_adder_gt();
    for threads in [1, 4] {
        let base = MchConfig::lut_fusion().with_threads(threads);
        let variants: Vec<MchConfig> = vec![
            base.clone().with_fusion(FusionMode::Off),
            base.clone().with_fusion(FusionMode::Bias),
            base.clone().with_fusion(FusionMode::Inject),
            base.clone(),
            base.clone().with_area_rounds(6).with_exact_area(true),
        ];
        let service = MappingService::new();
        for lut in [LutLibrary::k6(), LutLibrary::k4()] {
            let kind = JobKind::LutFusedMch(lut, lib.clone());
            let expected = cold_sweep_reference(&network, &kind, &variants);
            let report = service.run(Job::sweep("fused", network.clone(), kind, variants.clone()));
            assert_eq!(
                report_fingerprint(&report),
                expected,
                "fused K-{} sweep diverged at {threads} threads",
                lut.k()
            );
        }
        let stats = service.stats();
        assert_eq!(
            (stats.prepared_misses, stats.prepared_entries),
            (1, 1),
            "both sweeps must run over one prepared flow: {stats:?}"
        );
    }
}

#[test]
fn batch_permutations_with_coincidentally_identical_jobs_stay_byte_identical() {
    // A batch mixing a sweep, two *identical* plain jobs (same circuit, same
    // config — the coincidental warm-hit case) and an unrelated ASIC job.
    // Every permutation must reproduce the cold solo bytes of every job.
    let threads = 2;
    let lut = LutLibrary::k6();
    let lib: Library = asap7_lite();
    let sweep_variants = &lut_variants(threads)[..3];
    let make_jobs = || -> Vec<Job> {
        vec![
            Job::sweep(
                "sweep",
                adder(12),
                JobKind::LutMch(lut),
                sweep_variants.to_vec(),
            ),
            Job::lut("twin-a", demo_adder_gt(), lut, MchConfig::lut_area().with_threads(threads)),
            Job::lut("twin-b", demo_adder_gt(), lut, MchConfig::lut_area().with_threads(threads)),
            Job::asic(
                "asic",
                voter(9),
                lib.clone(),
                MchConfig::balanced().with_threads(threads),
            ),
        ]
    };
    let expected: Vec<String> = make_jobs()
        .into_iter()
        .map(|job| report_fingerprint(&cold_service().run(job)))
        .collect();
    let orders: [[usize; 4]; 3] = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]];
    for order in orders {
        let mut slots: Vec<Option<Job>> = make_jobs().into_iter().map(Some).collect();
        let jobs: Vec<Job> = order.iter().map(|&i| slots[i].take().expect("once")).collect();
        let service = MappingService::new().with_max_in_flight(jobs.len());
        let reports = service.run_batch(jobs);
        for (report, &i) in reports.iter().zip(&order) {
            assert_eq!(
                report_fingerprint(report),
                expected[i],
                "batch order {order:?}: job {} diverged from its cold solo run",
                report.name
            );
        }
    }
    // Serialised execution pins the coincidental warm-hit: the second twin
    // must find the artifact the first one inserted.
    let serial = MappingService::new().with_max_in_flight(1);
    let reports = serial.run_batch(make_jobs());
    for (report, want) in reports.iter().zip(&expected) {
        assert_eq!(&report_fingerprint(report), want, "serialised batch diverged");
    }
    let stats = serial.stats();
    // The sweep's tail variants (all but the first, which builds the
    // artifact) plus the second twin job: (3 - 1) + 1 = 3 warm hits, i.e.
    // at least `sweep_variants.len()`.
    assert!(
        stats.prepared_hits >= sweep_variants.len(),
        "sweep tail variants and the twin job must warm-hit: {stats:?}"
    );
}

#[test]
fn budgeted_sweeps_degrade_exactly_like_budgeted_solo_runs() {
    // Budget composition: the warm-start path keys prepared flows on the
    // *post-degradation* config and post-shrink cut limit, so a budgeted
    // sweep must byte-match budgeted cold solo runs — degradation traces
    // included (they are part of the fingerprint).
    let network = adder(12);
    let lut = LutLibrary::k6();
    let budget = FlowBudget::unlimited().with_max_cut_arena_slots(network.len() * 2);
    for threads in [1, 4] {
        let variants = &lut_variants(threads)[..4];
        let expected: Vec<String> = variants
            .iter()
            .map(|cfg| {
                let job = Job::lut("cold", network.clone(), lut, cfg.clone())
                    .with_budget(budget.clone());
                report_fingerprint(&cold_service().run(job))
            })
            .collect();
        let service = MappingService::new();
        // An unbudgeted sweep first: its cached artifacts must not leak into
        // the budgeted run (different post-shrink cut limit → different key).
        let _ = service.run(Job::sweep(
            "unbudgeted",
            network.clone(),
            JobKind::LutMch(lut),
            variants.to_vec(),
        ));
        let budgeted = service.run(
            Job::sweep(
                "budgeted",
                network.clone(),
                JobKind::LutMch(lut),
                variants.to_vec(),
            )
            .with_budget(budget.clone()),
        );
        let out = budgeted.outcome.expect("budgeted sweep failed");
        let reports = out.as_sweep().expect("sweep output");
        assert_eq!(reports.len(), variants.len());
        for (report, want) in reports.iter().zip(&expected) {
            assert_eq!(
                &report_fingerprint(report),
                want,
                "budgeted sweep variant {} diverged at {threads} threads",
                report.name
            );
        }
    }
}

#[test]
fn warm_start_cache_telemetry_is_wired_through_service_stats() {
    let service = MappingService::new();
    assert_eq!(service.stats().prepared_entries, 0);
    let variants = lut_variants(1);
    let n = variants.len();
    let _ = service.run(Job::sweep(
        "sweep",
        demo_adder_gt(),
        JobKind::LutMch(LutLibrary::k6()),
        variants,
    ));
    let stats = service.stats();
    assert_eq!(stats.jobs_succeeded, 1);
    assert_eq!(stats.prepared_misses, 1, "only the first variant builds cold: {stats:?}");
    assert_eq!(stats.prepared_hits, n - 1, "every later variant must hit: {stats:?}");
    assert_eq!(stats.prepared_entries, 1);
    assert!(stats.prepared_bytes > 0);
    assert_eq!(stats.prepared_evictions, 0);
}
