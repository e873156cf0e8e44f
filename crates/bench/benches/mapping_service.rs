//! Benchmark for the batched mapping service: circuits/sec × threads over a
//! mixed big/small workload, against a sequential one-job-at-a-time
//! baseline. Results are written to `BENCH_service.json` at the workspace
//! root.
//!
//! Every batched run is byte-compared against solo runs of the same jobs at
//! the same thread count — determinism is the hard invariant (CI gates on
//! `all_deterministic`); the throughput curve is only meaningful when the
//! host actually has the cores (`host_cpus` is recorded; on a 1-core
//! container the batched curve measures coordination overhead, not
//! throughput).
//!
//! Set `MCH_BENCH_SMOKE=1` for a reduced workload with fewer samples (used
//! by CI); set `MCH_BENCH_FULL=1` for the complete list.

use mch_bench::harness::{format_ns, Criterion};
use mch_benchmarks::{adder, demo_adder_gt, multiplier, square, voter};
use mch_core::service::{Job, JobOutput, JobReport, MappingService};
use mch_core::MchConfig;
use mch_io::{write_lut_blif, write_verilog};
use mch_techlib::{asap7_lite, LutLibrary};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The mixed workload: a couple of batch-threshold-clearing circuits plus a
/// tail of small ones whose tasks backfill the big jobs' idle levels.
fn workload(threads: usize) -> Vec<Job> {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let full = std::env::var_os("MCH_BENCH_FULL").is_some();
    let lut = LutLibrary::k6();
    let lib = asap7_lite();
    let mut jobs = vec![
        Job::lut(
            "mul12-lut",
            multiplier(12),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::asic(
            "voter63-asic",
            voter(63),
            lib.clone(),
            MchConfig::balanced().with_threads(threads),
        ),
        Job::lut(
            "adder16-lut",
            adder(16),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::lut(
            "adder8-lut",
            adder(8),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::lut(
            "demo-lut",
            demo_adder_gt(),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::asic(
            "square8-asic",
            square(8),
            lib.clone(),
            MchConfig::area_oriented().with_threads(threads),
        ),
    ];
    if !smoke {
        jobs.push(Job::lut(
            "mul16-lut",
            multiplier(16),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ));
        jobs.push(Job::asic(
            "voter127-asic",
            voter(127),
            lib,
            MchConfig::balanced().with_threads(threads),
        ));
    }
    if full {
        jobs.push(Job::lut(
            "square12-lut",
            square(12),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ));
    }
    jobs
}

/// Deterministic fingerprint of a successful report: netlist bytes plus the
/// degradation trace (wall times excluded).
fn fingerprint(report: &JobReport) -> String {
    let out = report
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("job {} failed: {e}", report.name));
    let bytes = match out {
        JobOutput::Asic(r) => {
            assert!(r.verified, "{} did not verify", report.name);
            write_verilog(&r.netlist, &asap7_lite())
        }
        JobOutput::Lut(r) => {
            assert!(r.verified, "{} did not verify", report.name);
            write_lut_blif(&r.netlist)
        }
        JobOutput::Sweep(_) => panic!("{}: this workload has no sweep jobs", report.name),
    };
    format!("{bytes}\n{:?}", out.degradation())
}

/// The hard gate: a batched run at `threads` byte-matches solo runs of the
/// same jobs at the same thread count.
fn check_determinism(threads: usize) -> bool {
    let solo: Vec<String> = workload(threads)
        .into_iter()
        .map(|job| fingerprint(&MappingService::new().run(job)))
        .collect();
    let batched = MappingService::new().run_batch(workload(threads));
    batched
        .iter()
        .zip(&solo)
        .all(|(report, want)| &fingerprint(report) == want)
}

fn main() {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let sample_size = if smoke { 2 } else { 3 };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let n_jobs = workload(1).len();

    // Determinism first, outside all timing.
    let deterministic: Vec<(usize, bool)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, check_determinism(t)))
        .collect();
    let all_deterministic = deterministic.iter().all(|&(_, ok)| ok);

    let mut c = Criterion::new();
    let mut group = c.benchmark_group("mapping_service");
    group.sample_size(sample_size);
    // Sequential baseline: one job at a time, single-threaded phases, cold
    // service per sample — the "one circuit at a time" deployment.
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let service = MappingService::new();
            for job in workload(1) {
                let report = service.run(job);
                assert!(report.outcome.is_ok());
            }
        })
    });
    // Batched service: whole workload in flight at once, per-job phases at
    // the swept thread count, cold service per sample.
    for &t in &THREAD_COUNTS {
        group.bench_function(format!("batched/{t}threads"), |b| {
            b.iter(|| {
                let service = MappingService::new();
                let reports = service.run_batch(workload(t));
                assert!(reports.iter().all(|r| r.outcome.is_ok()));
            })
        });
    }
    group.finish();
    let records = c.records();
    let base = records.len() - 1 - THREAD_COUNTS.len();
    let sequential_ns = records[base].median_ns;
    let batched_ns: Vec<f64> = (0..THREAD_COUNTS.len())
        .map(|i| records[base + 1 + i].median_ns)
        .collect();
    c.final_summary();

    // Warm-cache throughput: the same service serving a second batch (the
    // shared NPN store is hot). Single shot at 4 threads.
    let warm_service = MappingService::new();
    let _ = warm_service.run_batch(workload(4));
    let warm_start = Instant::now();
    let warm_reports = warm_service.run_batch(workload(4));
    let warm_ns = warm_start.elapsed().as_nanos() as f64;
    assert!(warm_reports.iter().all(|r| r.outcome.is_ok()));
    let service_stats = warm_service.stats();

    let cps = |ns: f64| n_jobs as f64 / (ns / 1e9);

    let mut json = String::from("{\n  \"bench\": \"mapping_service\",\n");
    let _ = writeln!(
        json,
        "  \"host_cpus\": {host_cpus},\n  \"thread_counts\": [1, 2, 4, 8],\n  \"jobs\": ["
    );
    let jobs = workload(1);
    for (i, job) in jobs.iter().enumerate() {
        let kind = match &job.kind {
            mch_core::JobKind::AsicMch(_) => "asic",
            mch_core::JobKind::LutMch(_) => "lut",
            mch_core::JobKind::LutFusedMch(_, _) => "lut-fused",
            mch_core::JobKind::Sweep(_, _) => "sweep",
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"gates\": {}, \"kind\": \"{kind}\"}}{}",
            job.name,
            job.network.gate_count(),
            if i + 1 < jobs.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"sequential\": {{\"ns\": {sequential_ns:.0}, \"circuits_per_sec\": {:.3}}},",
        cps(sequential_ns)
    );
    let _ = writeln!(json, "  \"service\": [");
    for (i, &t) in THREAD_COUNTS.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {t}, \"ns\": {:.0}, \"circuits_per_sec\": {:.3}, \"speedup_vs_sequential\": {:.2}}}{}",
            batched_ns[i],
            cps(batched_ns[i]),
            sequential_ns / batched_ns[i],
            if i + 1 < THREAD_COUNTS.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"warm\": {{\"threads\": 4, \"ns\": {warm_ns:.0}, \"circuits_per_sec\": {:.3}}},",
        cps(warm_ns)
    );
    let _ = writeln!(
        json,
        "  \"shared_npn\": {{\"classes\": {}, \"hits\": {}, \"misses\": {}}},",
        service_stats.shared_npn_classes,
        service_stats.shared_npn_hits,
        service_stats.shared_npn_misses
    );
    let _ = writeln!(json, "  \"all_deterministic\": {all_deterministic}\n}}");

    // crates/bench → workspace root.
    let out: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    std::fs::write(&out, &json).expect("write BENCH_service.json");

    eprintln!(
        "\nmapping service: {n_jobs} mixed jobs, host has {host_cpus} cpu(s); sequential {}:",
        format_ns(sequential_ns)
    );
    for (i, &t) in THREAD_COUNTS.iter().enumerate() {
        let (_, det) = deterministic[i];
        eprintln!(
            "  batched @{t}t  {:>10}  {:.2} circuits/sec  ×{:.2} vs sequential{}",
            format_ns(batched_ns[i]),
            cps(batched_ns[i]),
            sequential_ns / batched_ns[i],
            if det { "" } else { "  !! NONDETERMINISTIC" },
        );
    }
    eprintln!(
        "  warm @4t      {:>10}  {:.2} circuits/sec (shared NPN: {} classes, {} hits / {} misses)",
        format_ns(warm_ns),
        cps(warm_ns),
        service_stats.shared_npn_classes,
        service_stats.shared_npn_hits,
        service_stats.shared_npn_misses
    );
    assert!(
        all_deterministic,
        "a batched job diverged from its solo run"
    );
    eprintln!("wrote {}", out.display());
}
