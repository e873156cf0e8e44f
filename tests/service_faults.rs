//! Chaos suite for the batched mapping service (per-job fault isolation).
//!
//! Compiled only with `--features fault-injection`. Run it at both thread
//! counts (the CI bench-service-smoke job does):
//!
//! ```sh
//! MCH_THREADS=1 cargo test --features fault-injection --test service_faults -- --test-threads=1
//! MCH_THREADS=4 cargo test --features fault-injection --test service_faults -- --test-threads=1
//! ```
//!
//! Contract: an injected fault — at the service's own `service::submit` /
//! `service::job_boundary` boundaries or at any in-flow site — surfaces as
//! **that job's** structured `FlowError::WorkerPanic`; sibling jobs in the
//! same batch and a follow-up batch byte-match pristine baselines; no
//! deadlock; the service stays reusable.
#![cfg(feature = "fault-injection")]

use mch::benchmarks::{adder, benchmark, demo_adder_gt};
use mch::core::{FlowError, FusionMode, Job, JobReport, MappingService, MchConfig};
use mch::io::write_lut_blif;
use mch::logic::failpoint;
use mch::techlib::{asap7_lite, LutLibrary};
use std::sync::{Mutex, PoisonError};

/// Serializes chaos tests against each other: the failpoint registry is
/// process-global.
static GATE: Mutex<()> = Mutex::new(());

/// Runs `body` with the registry gate held and the expected injected panics
/// silenced; always disarms afterwards, even if `body` itself panics.
fn with_chaos(body: impl FnOnce()) {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with(failpoint::PANIC_PREFIX));
        if !injected {
            eprintln!("{info}");
        }
    }));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    failpoint::disarm();
    std::panic::set_hook(prev_hook);
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}

/// The thread counts exercised: the `MCH_THREADS` environment override (the
/// CI matrix axis) plus the fixed 1-vs-4 pair.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 4];
    if let Ok(env) = std::env::var("MCH_THREADS") {
        if let Ok(t) = env.parse::<usize>() {
            if !counts.contains(&t) {
                counts.push(t);
            }
        }
    }
    counts
}

/// A three-job LUT batch: one batch-threshold-clearing circuit flanked by
/// two small ones (fresh `Job` values each call).
fn batch(threads: usize) -> Vec<Job> {
    let lut = LutLibrary::k6();
    vec![
        Job::lut(
            "small-a",
            demo_adder_gt(),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::lut(
            "big",
            adder(16),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::lut(
            "small-b",
            demo_adder_gt(),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
    ]
}

fn bytes_of(report: &JobReport) -> String {
    let out = report
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("job {} failed: {e}", report.name));
    let r = out.as_lut().expect("lut job");
    assert!(r.verified, "job {} must verify", report.name);
    write_lut_blif(&r.netlist)
}

/// Pristine per-job baselines: each job solo on a fresh service.
fn baselines(threads: usize) -> Vec<String> {
    batch(threads)
        .into_iter()
        .map(|job| bytes_of(&MappingService::new().run(job)))
        .collect()
}

fn assert_worker_panic(report: &JobReport, site: &str) {
    match &report.outcome {
        Err(FlowError::WorkerPanic { message }) => assert!(
            message.starts_with(failpoint::PANIC_PREFIX) && message.contains(site),
            "job {}: wrong payload for {site}: {message}",
            report.name
        ),
        Err(other) => panic!("job {}: expected WorkerPanic for {site}, got {other}", report.name),
        Ok(_) => panic!("job {}: failpoint {site} did not fire", report.name),
    }
}

/// The service's own boundary failpoints, fired surgically at the second job
/// of a serialised batch: that job alone reports the structured error, its
/// siblings and a follow-up batch on the same service byte-match pristine
/// baselines.
#[test]
fn service_failpoints_fault_one_job_and_spare_siblings() {
    with_chaos(|| {
        for threads in thread_counts() {
            let pristine = baselines(threads);
            for site in ["service::submit", "service::job_boundary"] {
                // max_in_flight = 1 serialises job execution, so hit index 1
                // is deterministically the second submitted job.
                let service = MappingService::new().with_max_in_flight(1);
                failpoint::arm_exact(site, &[1]);
                let reports = service.run_batch(batch(threads));
                failpoint::disarm();
                assert_worker_panic(&reports[1], site);
                assert_eq!(bytes_of(&reports[0]), pristine[0], "{site}: sibling 0");
                assert_eq!(bytes_of(&reports[2]), pristine[2], "{site}: sibling 2");
                // The service stays reusable: a follow-up batch is pristine
                // byte for byte.
                let followup = service.run_batch(batch(threads));
                for (report, want) in followup.iter().zip(&pristine) {
                    assert_eq!(&bytes_of(report), want, "{site}: follow-up batch");
                }
                let stats = service.stats();
                assert_eq!(stats.jobs_failed, 1, "{site}: exactly one job fails");
                assert_eq!(stats.jobs_succeeded, 5, "{site}: five jobs survive");
            }
        }
    });
}

/// A fault injected into a *concurrent* batch: scheduling decides which job
/// claims the firing hit, but exactly one job fails and every surviving job
/// byte-matches its pristine baseline.
#[test]
fn concurrent_batch_contains_the_fault_to_exactly_one_job() {
    with_chaos(|| {
        for threads in thread_counts() {
            let pristine = baselines(threads);
            for site in ["service::submit", "npn::commit"] {
                let jobs = batch(threads);
                let service = MappingService::new().with_max_in_flight(jobs.len());
                failpoint::arm_exact(site, &[0]);
                let reports = service.run_batch(jobs);
                failpoint::disarm();
                let failures: Vec<&JobReport> =
                    reports.iter().filter(|r| r.outcome.is_err()).collect();
                assert_eq!(failures.len(), 1, "{site}: exactly one job must fail");
                assert_worker_panic(failures[0], site);
                for (i, report) in reports.iter().enumerate() {
                    if report.outcome.is_ok() {
                        assert_eq!(
                            bytes_of(report),
                            pristine[i],
                            "{site}: surviving sibling {i} diverged"
                        );
                    }
                }
                let followup = service.run_batch(batch(threads));
                for (report, want) in followup.iter().zip(&pristine) {
                    assert_eq!(&bytes_of(report), want, "{site}: follow-up batch");
                }
            }
        }
    });
}

/// Seeded density sweeps over every failpoint at once, against full batches:
/// every report comes back (no deadlock), failures are structured, and the
/// service serves pristine byte-identical batches afterwards.
#[test]
fn seeded_chaos_sweep_over_batches_never_deadlocks_or_corrupts() {
    with_chaos(|| {
        for threads in thread_counts() {
            let pristine = baselines(threads);
            let service = MappingService::new().with_max_in_flight(batch(threads).len());
            for seed in 0..4 {
                failpoint::arm(seed, 0.02);
                let reports = service.run_batch(batch(threads));
                failpoint::disarm();
                assert_eq!(reports.len(), 3, "every job must report back");
                for (i, report) in reports.iter().enumerate() {
                    match &report.outcome {
                        Ok(_) => assert_eq!(
                            bytes_of(report),
                            pristine[i],
                            "seed {seed}: surviving job {i} diverged"
                        ),
                        Err(e) => assert!(
                            matches!(e, FlowError::WorkerPanic { .. }),
                            "seed {seed}: non-structured error: {e}"
                        ),
                    }
                }
                let recovered = service.run_batch(batch(threads));
                for (report, want) in recovered.iter().zip(&pristine) {
                    assert_eq!(
                        &bytes_of(report),
                        want,
                        "seed {seed} at {threads} threads corrupted later batches"
                    );
                }
            }
        }
    });
}

/// A fault inside the first harvest of a fusion guide's cones. A plain job
/// warms the prepared flow without harvesting anything, so the guide's ASIC
/// solve is the first `engine::round` the fused job runs: that job reports
/// the structured error, the guide's cone memo keeps no partial entry, and
/// the same fused job on the same service then byte-matches its cold solo
/// run. On `i2c` the injected guide cones win the cover, so a memo holding
/// the wrong cones would show in the bytes.
#[test]
fn fault_in_the_first_guide_harvest_leaves_the_service_usable() {
    with_chaos(|| {
        let net = benchmark("i2c").expect("suite circuit");
        for threads in thread_counts() {
            let lut = LutLibrary::k6();
            let config = MchConfig::lut_fusion()
                .with_fusion(FusionMode::Inject)
                .with_threads(threads);
            let fused = || Job::lut_fused("fused", net.clone(), lut, asap7_lite(), config.clone());
            let cold = bytes_of(&MappingService::new().with_prepared_capacity(0).run(fused()));
            let service = MappingService::new();
            bytes_of(&service.run(Job::lut("warm", net.clone(), lut, config.clone())));
            failpoint::arm_exact("engine::round", &[0]);
            let faulted = service.run(fused());
            failpoint::disarm();
            assert_worker_panic(&faulted, "engine::round");
            assert_eq!(
                bytes_of(&service.run(fused())),
                cold,
                "the retried fused job diverged at {threads} threads"
            );
            let stats = service.stats();
            assert_eq!((stats.jobs_failed, stats.jobs_succeeded), (1, 2));
            assert_eq!(
                stats.prepared_misses, 1,
                "every job must share the warmed flow"
            );
        }
    });
}

/// The warm-start cache failpoints (`cache::prepared_hit`,
/// `cache::prepared_insert`): a fault at either site is contained *inside*
/// the cache wrappers — the job does not fail, it silently falls back to a
/// cold, byte-identical run, and the cache stays coherent for later jobs on
/// the same service.
#[test]
fn cache_failpoint_faults_degrade_to_cold_byte_identical_runs() {
    with_chaos(|| {
        for threads in thread_counts() {
            let lut = LutLibrary::k6();
            let variants: Vec<MchConfig> = vec![
                MchConfig::lut_area().with_threads(threads),
                MchConfig::lut_area().with_threads(threads).with_area_rounds(4),
                MchConfig::lut_area().with_threads(threads).with_exact_area(true),
            ];
            // Cold per-variant references from a warm-start-disabled service.
            let reference: Vec<String> = variants
                .iter()
                .map(|cfg| {
                    let service = MappingService::new().with_prepared_capacity(0);
                    bytes_of(&service.run(Job::lut("cold", demo_adder_gt(), lut, cfg.clone())))
                })
                .collect();
            for site in ["cache::prepared_hit", "cache::prepared_insert"] {
                for hit in [0u64, 1] {
                    let service = MappingService::new();
                    failpoint::arm_exact(site, &[hit]);
                    let report = service.run(Job::sweep(
                        "sweep",
                        demo_adder_gt(),
                        mch::core::JobKind::LutMch(lut),
                        variants.clone(),
                    ));
                    failpoint::disarm();
                    let out = report
                        .outcome
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{site}[{hit}]: sweep must not fail: {e}"));
                    let sweep = out.as_sweep().expect("sweep output");
                    assert_eq!(sweep.len(), variants.len());
                    for (variant_report, want) in sweep.iter().zip(&reference) {
                        assert_eq!(
                            &bytes_of(variant_report),
                            want,
                            "{site}[{hit}] at {threads} threads: variant {} diverged",
                            variant_report.name
                        );
                    }
                    // The cache stays coherent: an unfaulted follow-up sweep
                    // on the same service matches byte for byte and the
                    // service counters show no failed jobs.
                    let followup = service.run(Job::sweep(
                        "followup",
                        demo_adder_gt(),
                        mch::core::JobKind::LutMch(lut),
                        variants.clone(),
                    ));
                    let followup_out = followup.outcome.expect("follow-up sweep failed");
                    for (variant_report, want) in followup_out
                        .as_sweep()
                        .expect("sweep output")
                        .iter()
                        .zip(&reference)
                    {
                        assert_eq!(
                            &bytes_of(variant_report),
                            want,
                            "{site}[{hit}] at {threads} threads: follow-up variant diverged"
                        );
                    }
                    let stats = service.stats();
                    assert_eq!(stats.jobs_failed, 0, "{site}[{hit}]: no job may fail");
                    assert_eq!(stats.jobs_succeeded, 2);
                }
            }
        }
    });
}
