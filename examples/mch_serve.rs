//! A long-running batched mapping service: one persistent [`MappingService`]
//! serves rounds of mixed big/small jobs on a bounded set of coordinator
//! threads, and the shared NPN store amortises synthesis across jobs.
//!
//! Run with `cargo run --example mch_serve --release`. Environment knobs:
//!
//! - `MCH_SERVE_ROUNDS` — number of batches to serve (default 3).
//! - `MCH_SERVE_THREADS` — per-job thread budget (default: host cores).
//!
//! Every job's output is byte-identical to a solo run of the same job; the
//! example rechecks that on the final round.

use mch::benchmarks::{adder, demo_adder_gt, multiplier, square, voter};
use mch::core::{Job, JobOutput, MappingService, MchConfig};
use mch::io::{write_lut_blif, write_verilog};
use mch::techlib::{asap7_lite, LutLibrary};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One round's batch: two batch-threshold-clearing circuits plus small fry,
/// mixing LUT and ASIC targets. `round` is folded into the names only — the
/// work is identical every round, which is what makes the per-round
/// throughput comparable (round 1 is cold, later rounds hit the warm store).
fn round_batch(round: usize, threads: usize) -> Vec<Job> {
    let lut = LutLibrary::k6();
    let lib = asap7_lite();
    vec![
        Job::lut(
            format!("r{round}/mul12-lut"),
            multiplier(12),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::lut(
            format!("r{round}/adder16-lut"),
            adder(16),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
        Job::asic(
            format!("r{round}/voter63-asic"),
            voter(63),
            lib.clone(),
            MchConfig::balanced().with_threads(threads),
        ),
        Job::asic(
            format!("r{round}/square8-asic"),
            square(8),
            lib,
            MchConfig::area_oriented().with_threads(threads),
        ),
        Job::lut(
            format!("r{round}/demo-lut"),
            demo_adder_gt(),
            lut,
            MchConfig::lut_area().with_threads(threads),
        ),
    ]
}

fn bytes_of(out: &JobOutput) -> String {
    match out {
        JobOutput::Asic(r) => write_verilog(&r.netlist, &asap7_lite()),
        JobOutput::Lut(r) => write_lut_blif(&r.netlist),
        JobOutput::Sweep(reports) => reports
            .iter()
            .map(|r| match &r.outcome {
                Ok(out) => format!("{}:\n{}", r.name, bytes_of(out)),
                Err(e) => format!("{}: error {e}", r.name),
            })
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

fn main() {
    let rounds = env_usize("MCH_SERVE_ROUNDS", 3);
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = env_usize("MCH_SERVE_THREADS", host);
    let service = MappingService::new();
    println!("mch_serve: {rounds} round(s), {threads} thread(s) per job, host has {host} core(s)");

    let started = Instant::now();
    for round in 1..=rounds {
        let batch = round_batch(round, threads);
        let n = batch.len();
        let t0 = Instant::now();
        let reports = service.run_batch(batch);
        let secs = t0.elapsed().as_secs_f64();
        for report in &reports {
            match &report.outcome {
                Ok(out) => {
                    assert!(out.verified(), "{} failed verification", report.name);
                    println!("  {:<22} ok      {:8.3}s", report.name, report.seconds);
                }
                Err(e) => println!("  {:<22} FAILED  {e}", report.name),
            }
        }
        println!(
            "round {round}: {n} circuits in {secs:.3}s = {:.2} circuits/sec",
            n as f64 / secs
        );
    }

    // Byte-identity spot check: the last round's outputs against solo runs.
    let solo = MappingService::new();
    let last = service.run_batch(round_batch(rounds + 1, threads));
    for (report, job) in last.iter().zip(round_batch(rounds + 1, threads)) {
        let batched = report.outcome.as_ref().map(bytes_of).unwrap_or_default();
        let alone = solo.run(job).outcome.as_ref().map(bytes_of).unwrap_or_default();
        assert_eq!(batched, alone, "{} diverged from its solo run", report.name);
    }
    println!("byte-identity check: batched outputs match solo runs");

    let stats = service.stats();
    println!(
        "served {} job(s) ({} failed) in {:.3}s; shared NPN store: {} classes, {} hits / {} misses",
        stats.jobs_succeeded + stats.jobs_failed,
        stats.jobs_failed,
        started.elapsed().as_secs_f64(),
        stats.shared_npn_classes,
        stats.shared_npn_hits,
        stats.shared_npn_misses
    );
}
