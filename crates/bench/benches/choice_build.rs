//! Benchmark for choice construction: serial-vs-threaded curves for
//! `build_mch`, a per-phase wall-time breakdown, the choice phase's share of
//! a full MCH flow, and the arena waste reclaimed by `NetworkCuts::compact`
//! after choice transfer. Results are written to `BENCH_choice.json` at the
//! workspace root.
//!
//! `build_mch` is one serial pass except for its level-parallel cut
//! enumeration, so the threads curve measures only that enumeration (its
//! share of a serial build is `serial_phase_pct.cut_enum`). Every threaded
//! build is checked **identical** to the serial one (the `ChoiceNetwork`
//! comparison covers the mixed network node for node, the choice classes
//! and the deterministic statistics) — determinism is the hard invariant;
//! the speedup curve is only meaningful when the host actually has the cores
//! (`host_cpus` is recorded; on a 1-core host the curve hovers around 1.0x
//! and measures fan-out overhead, not scaling).
//!
//! Set `MCH_BENCH_SMOKE=1` for a reduced circuit list with fewer samples
//! (used by CI); set `MCH_BENCH_FULL=1` for the complete list.

use mch_bench::harness::{format_ns, Criterion};
use mch_benchmarks::{barrel_shifter, multiplier, sine_approx, square, voter};
use mch_choice::{build_mch, build_mch_with_stats, MchParams, MchStats};
use mch_core::{asic_flow_mch, MchConfig};
use mch_cut::{CutCost, CutCostModel};
use mch_logic::Network;
use mch_mapper::prepare_cuts;
use mch_techlib::asap7_lite;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

struct Row {
    circuit: String,
    gates: usize,
    serial_ns: f64,
    parallel_ns: Vec<f64>, // same order as THREAD_COUNTS
    deterministic: bool,
    phases: MchStats,
    choices: usize,
}

fn gather_circuits() -> Vec<(String, Network)> {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let full = std::env::var_os("MCH_BENCH_FULL").is_some();
    if smoke {
        vec![
            ("multiplier12".into(), multiplier(12)),
            ("voter127".into(), voter(127)),
            ("bar32".into(), barrel_shifter(32)),
        ]
    } else {
        let mut v = vec![
            ("multiplier16".into(), multiplier(16)),
            ("square24".into(), square(24)),
            ("voter255".into(), voter(255)),
            ("bar64".into(), barrel_shifter(64)),
        ];
        if full {
            v.push(("sin12".into(), sine_approx(12)));
            v.push(("multiplier24".into(), multiplier(24)));
        }
        v
    }
}

/// The choice-heaviest preset (two area strategies plus an XMG secondary
/// representation), at an explicit thread count.
fn params(threads: usize) -> MchParams {
    MchParams::area_oriented().with_threads(threads)
}

/// Serial-vs-parallel identity check, run once per circuit outside timing.
/// Compares the full choice network (mixed network, classes) and the
/// deterministic half of the statistics.
fn check_determinism(net: &Network) -> (bool, MchStats, usize) {
    let (serial, serial_stats) = build_mch_with_stats(net, &params(1));
    let mut ok = true;
    for &t in &THREAD_COUNTS {
        let (threaded, stats) = build_mch_with_stats(net, &params(t));
        ok &= serial == threaded && serial_stats.timeless() == stats.timeless();
    }
    let choices = serial.choice_count();
    (ok, serial_stats, choices)
}

fn main() {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let sample_size = if smoke { 3 } else { 5 };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let circuits = gather_circuits();

    let mut c = Criterion::new();
    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        let (deterministic, phases, choices) = check_determinism(net);
        let mut group = c.benchmark_group(format!("choice_build/{name}"));
        group.sample_size(sample_size);
        group.bench_function("serial", |b| b.iter(|| build_mch(net, &params(1))));
        for &t in &THREAD_COUNTS {
            group.bench_function(format!("{t}threads"), |b| {
                b.iter(|| build_mch(net, &params(t)))
            });
        }
        group.finish();
        let records = c.records();
        let base = records.len() - 1 - THREAD_COUNTS.len();
        rows.push(Row {
            circuit: name.clone(),
            gates: net.gate_count(),
            serial_ns: records[base].median_ns,
            parallel_ns: (0..THREAD_COUNTS.len())
                .map(|i| records[base + 1 + i].median_ns)
                .collect(),
            deterministic,
            phases,
            choices,
        });
    }
    c.final_summary();

    // Choice share of a full flow: one end-to-end MCH ASIC flow per circuit
    // (un-benched single shot; the flow verifies internally) against the
    // serial choice-construction median.
    let lib = asap7_lite();
    let mut flow_rows: Vec<(String, f64, f64)> = Vec::new();
    for ((name, net), row) in circuits.iter().zip(&rows) {
        let start = Instant::now();
        let flow = asic_flow_mch(net, &lib, &MchConfig::area_oriented().with_threads(1));
        let flow_ns = start.elapsed().as_nanos() as f64;
        assert!(flow.verified, "{name}: MCH flow failed verification");
        flow_rows.push((name.clone(), flow_ns, row.serial_ns));
    }

    // Arena waste after choice transfer, and what `compact` reclaims. The
    // observable cut sets must be untouched by compaction.
    let unit = CutCostModel::unit();
    let mut compact_rows: Vec<(String, usize, usize, usize)> = Vec::new();
    for (name, net) in &circuits {
        let mch = build_mch(net, &params(1));
        let mut cuts = prepare_cuts(&mch, 4, 8, CutCost::Hybrid, &unit, 1);
        let total = cuts.total_cuts();
        let wasted = cuts.wasted_slots();
        let before: usize = (0..mch.network().len())
            .map(|i| cuts.of(mch_logic::NodeId::from_index(i)).len())
            .sum();
        let reclaimed = cuts.compact();
        let after: usize = (0..mch.network().len())
            .map(|i| cuts.of(mch_logic::NodeId::from_index(i)).len())
            .sum();
        assert_eq!(before, after, "{name}: compaction changed a cut set");
        assert_eq!(reclaimed, wasted, "{name}: reclaimed != tracked waste");
        assert_eq!(cuts.wasted_slots(), 0, "{name}: residual waste after compact");
        compact_rows.push((name.clone(), total, wasted, cuts.wasted_slots()));
    }

    let geomean = |f: &dyn Fn(&Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let geomeans: Vec<f64> = (0..THREAD_COUNTS.len())
        .map(|i| geomean(&|r: &Row| r.serial_ns / r.parallel_ns[i]))
        .collect();
    let all_deterministic = rows.iter().all(|r| r.deterministic);

    let phase_pct = |p: &MchStats| -> [f64; 4] {
        let total = (p.one_to_one_time + p.cut_enum_time + p.resynthesis_time + p.commit_time)
            .as_nanos()
            .max(1) as f64;
        [
            p.one_to_one_time.as_nanos() as f64 / total * 100.0,
            p.cut_enum_time.as_nanos() as f64 / total * 100.0,
            p.resynthesis_time.as_nanos() as f64 / total * 100.0,
            p.commit_time.as_nanos() as f64 / total * 100.0,
        ]
    };

    let mut json = String::from("{\n  \"bench\": \"choice_build\",\n");
    let _ = writeln!(
        json,
        "  \"params\": \"MchParams::area_oriented (cut 4/8, K=8, XMG secondary)\",\n  \"host_cpus\": {host_cpus},\n  \"thread_counts\": [2, 4, 8],\n  \"circuits\": ["
    );
    for (i, r) in rows.iter().enumerate() {
        let mut curve = String::new();
        for (j, &t) in THREAD_COUNTS.iter().enumerate() {
            let _ = write!(
                curve,
                "{{\"threads\": {t}, \"ns\": {:.0}, \"speedup\": {:.2}}}{}",
                r.parallel_ns[j],
                r.serial_ns / r.parallel_ns[j],
                if j + 1 < THREAD_COUNTS.len() { ", " } else { "" },
            );
        }
        let pct = phase_pct(&r.phases);
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"choices\": {}, \"npn_classes\": {}, \"npn_cache_hits\": {}, \"serial_ns\": {:.0}, \"deterministic\": {}, \"parallel\": [{}], \"serial_phase_pct\": {{\"one_to_one\": {:.1}, \"cut_enum\": {:.1}, \"resynthesis\": {:.1}, \"commit\": {:.1}}}}}{}",
            r.circuit,
            r.gates,
            r.choices,
            r.phases.npn_classes,
            r.phases.npn_cache_hits,
            r.serial_ns,
            r.deterministic,
            curve,
            pct[0],
            pct[1],
            pct[2],
            pct[3],
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"geomean_speedup\": {{\"2\": {:.2}, \"4\": {:.2}, \"8\": {:.2}}},",
        geomeans[0], geomeans[1], geomeans[2]
    );
    let _ = writeln!(json, "  \"flow_share\": [");
    for (i, (name, flow_ns, choice_ns)) in flow_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{name}\", \"flow_ns\": {flow_ns:.0}, \"choice_ns\": {choice_ns:.0}, \"choice_share_pct\": {:.1}}}{}",
            choice_ns / flow_ns * 100.0,
            if i + 1 < flow_rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],\n  \"choice_transfer_compaction\": [");
    for (i, (name, total, wasted, residual)) in compact_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{name}\", \"arena_cuts\": {total}, \"wasted_slots_before\": {wasted}, \"residual_after_compact\": {residual}}}{}",
            if i + 1 < compact_rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],\n  \"all_deterministic\": {all_deterministic}\n}}");

    // crates/bench → workspace root.
    let out: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_choice.json");
    std::fs::write(&out, &json).expect("write BENCH_choice.json");

    eprintln!("\nchoice build: speedup vs threads (serial → 2 / 4 / 8), host has {host_cpus} cpu(s):");
    for r in &rows {
        let pct = phase_pct(&r.phases);
        eprintln!(
            "  {:<13} {:>7} gates {:>6} choices  {:>10}  ×{:.2} ×{:.2} ×{:.2}  [1:1 {:.0}% | cuts {:.0}% | resyn {:.0}% | commit {:.0}%]{}",
            r.circuit,
            r.gates,
            r.choices,
            format_ns(r.serial_ns),
            r.serial_ns / r.parallel_ns[0],
            r.serial_ns / r.parallel_ns[1],
            r.serial_ns / r.parallel_ns[2],
            pct[0],
            pct[1],
            pct[2],
            pct[3],
            if r.deterministic { "" } else { "  !! NONDETERMINISTIC" },
        );
    }
    eprintln!(
        "geomean speedup: ×{:.2} (2t) ×{:.2} (4t) ×{:.2} (8t)",
        geomeans[0], geomeans[1], geomeans[2]
    );
    for (name, flow_ns, choice_ns) in &flow_rows {
        eprintln!(
            "flow share {name}: choice construction {:.1}% of the MCH ASIC flow",
            choice_ns / flow_ns * 100.0
        );
    }
    for (name, total, wasted, _) in &compact_rows {
        eprintln!(
            "compaction {name}: {total} arena cuts, {wasted} wasted slots reclaimed, 0 residual"
        );
    }
    assert!(
        all_deterministic,
        "threaded choice construction diverged from serial"
    );
    eprintln!("wrote {}", out.display());
}
