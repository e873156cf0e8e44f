//! The batching-is-invisible battery for the mapping service.
//!
//! Every job submitted to a [`MappingService`] must produce output
//! **byte-identical** to a solo run of that same job — at every thread
//! count, for every batch size, under every submission order, and whether
//! the shared NPN store is cold or warm. The suites below sweep threads
//! {1, 2, 4, 8}, batch sizes {1, 4, 16} and batch permutations, and pin the
//! per-job NPN cache statistics (counted in per-job commit order) against
//! private-cache builds.

use mch::benchmarks::{adder, demo_adder_gt, voter};
use mch::choice::{build_mch_with_stats, build_mch_with_stats_shared, SharedNpnCache};
use mch::core::{Job, JobReport, MappingService, MchConfig};
use mch::cut::WorkerPool;
use mch::io::{write_lut_blif, write_verilog};
use mch::techlib::{asap7_lite, Library, LutLibrary};
use std::sync::{Arc, Mutex, PoisonError};

/// The thread counts the determinism gate sweeps (the ISSUE's contract).
fn thread_counts() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// A mixed big/small, ASIC/LUT job suite. `adder(16)` clears the batched
/// commit threshold, the rest exercise the serial paths alongside it.
fn job_suite(threads: usize) -> Vec<Job> {
    let lut = LutLibrary::k6();
    let lib: Library = asap7_lite();
    vec![
        Job::lut(
            "big-lut",
            adder(16),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::lut(
            "small-lut",
            demo_adder_gt(),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::asic(
            "small-asic",
            demo_adder_gt(),
            lib.clone(),
            MchConfig::balanced().with_threads(threads),
        ),
        Job::asic(
            "voter-asic",
            voter(9),
            lib,
            MchConfig::delay_oriented().with_threads(threads),
        ),
    ]
}

/// Serialises everything deterministic about a report: the netlist bytes,
/// the verification flag and the degradation trace. Wall times are excluded.
fn fingerprint(report: &JobReport) -> String {
    let out = report
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("job {} failed: {e}", report.name));
    assert!(out.verified(), "job {} did not verify", report.name);
    let lib = asap7_lite();
    let bytes = match out {
        mch::core::JobOutput::Asic(r) => write_verilog(&r.netlist, &lib),
        mch::core::JobOutput::Lut(r) => write_lut_blif(&r.netlist),
        mch::core::JobOutput::Sweep(_) => panic!("this suite has no sweep jobs"),
    };
    format!("{bytes}\n{:?}", out.degradation())
}

/// Solo baselines: each job on its own fresh service (cold shared store).
fn solo_fingerprints(threads: usize) -> Vec<String> {
    job_suite(threads)
        .into_iter()
        .map(|job| fingerprint(&MappingService::new().run(job)))
        .collect()
}

/// Byte-compares a batch's reports (already in submission order) against the
/// expected fingerprints.
fn assert_batch_matches(reports: &[JobReport], expected: &[String], what: &str) {
    assert_eq!(reports.len(), expected.len());
    for (report, want) in reports.iter().zip(expected) {
        assert_eq!(
            &fingerprint(report),
            want,
            "{what}: job {} diverged from its solo run",
            report.name
        );
    }
}

#[test]
fn solo_service_runs_match_the_plain_flow_api() {
    // The service layer (shared store included) must be invisible next to
    // the pre-existing one-shot flow API.
    for threads in [1, 4] {
        let lut = LutLibrary::k6();
        let config = MchConfig::lut_area().with_threads(threads);
        let plain = mch::core::try_lut_flow_mch(&adder(16), &lut, &config).expect("plain flow");
        let service = MappingService::new();
        let report = service.run(Job::lut("solo", adder(16), lut, config));
        let out = report.outcome.expect("service job");
        let r = out.as_lut().expect("lut job");
        assert_eq!(
            write_lut_blif(&r.netlist),
            write_lut_blif(&plain.netlist),
            "service wrapper changed bytes at {threads} threads"
        );
    }
}

#[test]
fn batched_jobs_match_solo_runs_across_threads_and_permutations() {
    for threads in thread_counts() {
        let solo = solo_fingerprints(threads);
        // Three submission orders of the same batch; reports come back in
        // submission order, so re-index the expectations per permutation.
        let orders: [[usize; 4]; 3] = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]];
        for order in orders {
            let all = job_suite(threads);
            let mut slots: Vec<Option<Job>> = all.into_iter().map(Some).collect();
            let jobs: Vec<Job> = order.iter().map(|&i| slots[i].take().expect("once")).collect();
            let expected: Vec<String> = order.iter().map(|&i| solo[i].clone()).collect();
            let service = MappingService::new().with_max_in_flight(jobs.len());
            let first = service.run_batch(jobs.clone());
            assert_batch_matches(&first, &expected, &format!("cold batch {order:?} @{threads}t"));
            // Same batch again on the now-warm shared store: still identical.
            let warm = service.run_batch(jobs);
            assert_batch_matches(&warm, &expected, &format!("warm batch {order:?} @{threads}t"));
        }
    }
}

#[test]
fn batch_sizes_one_four_sixteen_are_invisible() {
    let threads = 2;
    let solo = solo_fingerprints(threads);
    // Sixteen jobs cycling the suite (fresh Job values, distinct names).
    let sixteen = || -> Vec<(Job, String)> {
        (0..16)
            .map(|i| {
                let mut job = job_suite(threads).swap_remove(i % 4);
                job.name = format!("{}-{i}", job.name);
                (job, solo[i % 4].clone())
            })
            .collect()
    };
    for batch_size in [1usize, 4, 16] {
        let service = MappingService::new().with_max_in_flight(batch_size);
        let mut pending = sixteen();
        while !pending.is_empty() {
            let take = batch_size.min(pending.len());
            let chunk: Vec<(Job, String)> = pending.drain(..take).collect();
            let (jobs, expected): (Vec<Job>, Vec<String>) = chunk.into_iter().unzip();
            let reports = service.run_batch(jobs);
            assert_batch_matches(&reports, &expected, &format!("batch size {batch_size}"));
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_succeeded, 16);
        assert_eq!(stats.jobs_failed, 0);
    }
}

#[test]
fn in_flight_cap_changes_scheduling_not_bytes() {
    let threads = 2;
    let solo = solo_fingerprints(threads);
    for cap in [1usize, 2, 3] {
        let service = MappingService::new().with_max_in_flight(cap);
        let reports = service.run_batch(job_suite(threads));
        assert_batch_matches(&reports, &solo, &format!("in-flight cap {cap}"));
    }
}

#[test]
fn per_job_npn_stats_are_pinned_in_commit_order() {
    // The per-job NPN database counts hits/misses in that job's commit
    // order; a shared store behind it — cold or warmed by a *different*
    // circuit — must leave both the choice network and the deterministic
    // stats byte-identical to a private-cache build, at every thread count.
    for threads in [1, 2, 4, 8] {
        let params = MchConfig::lut_area().mch.with_threads(threads);
        for network in [adder(16), demo_adder_gt()] {
            let (solo_cn, solo_stats) = build_mch_with_stats(&network, &params);
            let shared = Arc::new(SharedNpnCache::new());
            // Warm the store with another circuit's classes first.
            let warmup = voter(9);
            let _ = build_mch_with_stats_shared(&warmup, &params, Some(&shared));
            let (shared_cn, shared_stats) =
                build_mch_with_stats_shared(&network, &params, Some(&shared));
            assert_eq!(
                solo_cn.network(),
                shared_cn.network(),
                "shared store changed the choice network at {threads} threads"
            );
            assert_eq!(
                solo_stats.timeless(),
                shared_stats.timeless(),
                "shared store changed per-job stats at {threads} threads"
            );
        }
    }
}

#[test]
fn nested_submission_from_a_pool_worker_runs_serially_and_matches() {
    // A job submitting a sub-batch from *inside* a fan-out job must fall
    // back to serial via the `is_worker` recursion guard — completing with
    // byte-identical results.
    let threads = 4;
    let expected = solo_fingerprints(threads);
    let service = MappingService::new();
    let nested: Mutex<Option<Vec<JobReport>>> = Mutex::new(None);
    let job: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
        assert!(WorkerPool::is_worker(), "closure must run as a fan-out job");
        let reports = service.run_batch(job_suite(threads));
        *nested.lock().unwrap_or_else(PoisonError::into_inner) = Some(reports);
    });
    WorkerPool::global().run_with(vec![job], || {});
    let reports = nested
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("nested batch must complete");
    assert_batch_matches(&reports, &expected, "nested submission");
}
