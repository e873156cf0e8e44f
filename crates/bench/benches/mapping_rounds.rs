//! Benchmark for the covering engine's memoised area-recovery rounds.
//!
//! Times the covering dynamic program in isolation: per circuit, each
//! target's cover is prepared once (`prepare_lut_cover` /
//! `prepare_asic_cover`: cuts, candidates and fanout relations) and bound
//! into a `CoverProblem`, then `CoverProblem::solve` runs at `area_rounds` ∈
//! {2, 4, 8}, once with the engine's `CandidateCache` memoisation (the
//! default) and once with the full-recompute baseline (`memoise = false`),
//! and the wall-clock ratio is recorded. Cut enumeration, choice transfer and candidate
//! construction are excluded from the timed region — they are identical in
//! both configurations, independent of the round count, and would only
//! dilute the quantity under test. Memoised and recomputed netlists are
//! asserted **identical** outside the timed region — the cache is an exact
//! skip, never an approximation.
//!
//! Results go to `BENCH_rounds.json` at the workspace root. The headline
//! claim this file records: with memoisation, extra area-recovery rounds are
//! nearly free — the committed target is a ≥ 1.5× covering-phase speedup at
//! 8 rounds (gated in CI on multi-core runners, mirroring the
//! `cut_enum_parallel` gate pattern; wall-clock numbers from 1-CPU smoke
//! containers are recorded but too noisy to hard-gate).
//!
//! Set `MCH_BENCH_SMOKE=1` for the reduced CI circuit list; set
//! `MCH_BENCH_FULL=1` for the extended list.

use mch_bench::harness::{format_ns, Criterion};
use mch_benchmarks::benchmark;
use mch_choice::ChoiceNetwork;
use mch_logic::Network;
use mch_mapper::{
    prepare_asic_cover, prepare_lut_cover, AsicMapParams, AsicTarget, CoverProblem, EngineParams,
    LutMapParams, LutTarget, MappingObjective,
};
use mch_techlib::{asap7_lite, LutLibrary};
use std::fmt::Write as _;
use std::path::PathBuf;

const ROUND_COUNTS: [usize; 3] = [2, 4, 8];

struct TargetRow {
    memo_ns: Vec<f64>,      // same order as ROUND_COUNTS
    recompute_ns: Vec<f64>, // same order as ROUND_COUNTS
    identical: bool,
}

struct Row {
    circuit: String,
    gates: usize,
    lut: TargetRow,
    asic: TargetRow,
}

fn gather_circuits() -> Vec<(String, Network)> {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let full = std::env::var_os("MCH_BENCH_FULL").is_some();
    let names: &[&str] = if smoke {
        &["int2float", "cavlc", "priority"]
    } else if full {
        &["int2float", "cavlc", "priority", "sin", "voter", "bar", "max", "i2c"]
    } else {
        &["int2float", "cavlc", "priority", "sin", "voter"]
    };
    names
        .iter()
        .filter_map(|n| benchmark(n).map(|net| (n.to_string(), net)))
        .collect()
}

fn main() {
    let lut = LutLibrary::k6();
    let lib = asap7_lite();
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let sample_size = if smoke { 3 } else { 5 };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let circuits = gather_circuits();

    let engine_params = |rounds: usize, memoise: bool| EngineParams {
        objective: MappingObjective::Balanced,
        area_rounds: rounds,
        exact_area: false,
        memoise,
    };

    let mut c = Criterion::new();
    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        // Enumeration, choice transfer and candidate construction once per
        // circuit, outside timing: both configurations solve the exact same
        // prepared problem.
        let choice = ChoiceNetwork::from_network(net);
        let lut_params = LutMapParams::new(MappingObjective::Balanced).with_threads(1);
        let lut_prep = prepare_lut_cover(&choice, &lut, &lut_params);
        let lut_target = LutTarget::new(&lut);
        let lut_problem = CoverProblem::new(&choice, &lut_target, lut_prep.skeleton());
        let asic_params = AsicMapParams::new(MappingObjective::Balanced).with_threads(1);
        let asic_prep = prepare_asic_cover(&choice, &lib, &asic_params);
        let asic_target = AsicTarget::new(&lib);
        let asic_problem = CoverProblem::new(&choice, &asic_target, asic_prep.skeleton());
        // Exactness first, also outside the timed region: the memoised cover
        // must be bit-identical to full recomputation at every round count.
        let lut_identical = ROUND_COUNTS.iter().all(|&r| {
            lut_problem.solve(&engine_params(r, true)) == lut_problem.solve(&engine_params(r, false))
        });
        let asic_identical = ROUND_COUNTS.iter().all(|&r| {
            asic_problem.solve(&engine_params(r, true))
                == asic_problem.solve(&engine_params(r, false))
        });

        let mut group = c.benchmark_group(format!("mapping_rounds/{name}"));
        group.sample_size(sample_size);
        for &r in &ROUND_COUNTS {
            group.bench_function(format!("lut/{r}rounds/memo"), |b| {
                b.iter(|| lut_problem.solve(&engine_params(r, true)))
            });
            group.bench_function(format!("lut/{r}rounds/recompute"), |b| {
                b.iter(|| lut_problem.solve(&engine_params(r, false)))
            });
            group.bench_function(format!("asic/{r}rounds/memo"), |b| {
                b.iter(|| asic_problem.solve(&engine_params(r, true)))
            });
            group.bench_function(format!("asic/{r}rounds/recompute"), |b| {
                b.iter(|| asic_problem.solve(&engine_params(r, false)))
            });
        }
        group.finish();
        let records = c.records();
        let base = records.len() - 4 * ROUND_COUNTS.len();
        let pick = |offset: usize| -> Vec<f64> {
            (0..ROUND_COUNTS.len())
                .map(|i| records[base + 4 * i + offset].median_ns)
                .collect()
        };
        rows.push(Row {
            circuit: name.clone(),
            gates: net.gate_count(),
            lut: TargetRow {
                memo_ns: pick(0),
                recompute_ns: pick(1),
                identical: lut_identical,
            },
            asic: TargetRow {
                memo_ns: pick(2),
                recompute_ns: pick(3),
                identical: asic_identical,
            },
        });
    }
    c.final_summary();

    let geomean = |f: &dyn Fn(&Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let lut_geo: Vec<f64> = (0..ROUND_COUNTS.len())
        .map(|i| geomean(&|r: &Row| r.lut.recompute_ns[i] / r.lut.memo_ns[i]))
        .collect();
    let asic_geo: Vec<f64> = (0..ROUND_COUNTS.len())
        .map(|i| geomean(&|r: &Row| r.asic.recompute_ns[i] / r.asic.memo_ns[i]))
        .collect();
    let overall_geo: Vec<f64> = (0..ROUND_COUNTS.len())
        .map(|i| (lut_geo[i] * asic_geo[i]).sqrt())
        .collect();
    let all_identical = rows.iter().all(|r| r.lut.identical && r.asic.identical);

    let mut json = String::from("{\n  \"bench\": \"mapping_rounds\",\n");
    let _ = writeln!(
        json,
        "  \"params\": {{\"objective\": \"balanced\", \"cut_limit\": 8, \"lut_k\": 6, \"library\": \"asap7_lite\", \"timed\": \"covering DP only (CoverProblem::solve; cuts and candidates prepared once)\"}},\n  \"host_cpus\": {host_cpus},\n  \"round_counts\": [2, 4, 8],\n  \"circuits\": ["
    );
    let target_json = |t: &TargetRow| -> String {
        let mut s = String::from("[");
        for (i, &r) in ROUND_COUNTS.iter().enumerate() {
            let _ = write!(
                s,
                "{{\"rounds\": {r}, \"memo_ns\": {:.0}, \"recompute_ns\": {:.0}, \"speedup\": {:.2}}}{}",
                t.memo_ns[i],
                t.recompute_ns[i],
                t.recompute_ns[i] / t.memo_ns[i],
                if i + 1 < ROUND_COUNTS.len() { ", " } else { "" },
            );
        }
        s.push(']');
        s
    };
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"identical\": {}, \"lut\": {}, \"asic\": {}}}{}",
            r.circuit,
            r.gates,
            r.lut.identical && r.asic.identical,
            target_json(&r.lut),
            target_json(&r.asic),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"geomean_speedup\": {{\"lut\": {{\"2\": {:.2}, \"4\": {:.2}, \"8\": {:.2}}}, \"asic\": {{\"2\": {:.2}, \"4\": {:.2}, \"8\": {:.2}}}, \"overall\": {{\"2\": {:.2}, \"4\": {:.2}, \"8\": {:.2}}}}},",
        lut_geo[0], lut_geo[1], lut_geo[2],
        asic_geo[0], asic_geo[1], asic_geo[2],
        overall_geo[0], overall_geo[1], overall_geo[2],
    );
    let _ = writeln!(json, "  \"all_identical\": {all_identical}\n}}");

    // crates/bench → workspace root.
    let out: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_rounds.json");
    std::fs::write(&out, &json).expect("write BENCH_rounds.json");

    eprintln!("\nmemoised vs recompute speedup at 2 / 4 / 8 area rounds ({host_cpus} cpu(s)):");
    for r in &rows {
        eprintln!(
            "  {:<12} {:>6} gates  lut ×{:.2} ×{:.2} ×{:.2} ({})  asic ×{:.2} ×{:.2} ×{:.2}{}",
            r.circuit,
            r.gates,
            r.lut.recompute_ns[0] / r.lut.memo_ns[0],
            r.lut.recompute_ns[1] / r.lut.memo_ns[1],
            r.lut.recompute_ns[2] / r.lut.memo_ns[2],
            format_ns(r.lut.memo_ns[2]),
            r.asic.recompute_ns[0] / r.asic.memo_ns[0],
            r.asic.recompute_ns[1] / r.asic.memo_ns[1],
            r.asic.recompute_ns[2] / r.asic.memo_ns[2],
            if r.lut.identical && r.asic.identical { "" } else { "  !! DIVERGED" },
        );
    }
    eprintln!(
        "geomean speedup (overall): ×{:.2} (2 rounds) ×{:.2} (4 rounds) ×{:.2} (8 rounds)",
        overall_geo[0], overall_geo[1], overall_geo[2]
    );
    assert!(
        all_identical,
        "memoised covering diverged from full recomputation"
    );
    eprintln!("wrote {}", out.display());
}
