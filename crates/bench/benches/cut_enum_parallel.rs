//! Benchmark for level-parallel cut enumeration: speedup-vs-threads curves.
//!
//! Times 6-input cut enumeration (`CutParams::new(6, 8)`) over scaled-up
//! variants of the benchmark suite — wide enough that level-sharding has real
//! work per level — comparing the serial driver against
//! `enumerate_cuts_threaded` at 2, 4 and 8 worker threads. Every parallel run
//! is also checked byte-identical to the serial one, and the choice-transfer
//! path (serial, after the threaded enumeration) reports the arena slots
//! wasted by `NetworkCuts::commit_extension` (bounded by the in-place span
//! reuse). Results are written to `BENCH_parallel.json` at the
//! workspace root.
//!
//! The host core count is recorded in the JSON: speedups are only meaningful
//! when the machine actually has the cores (on a 1-core container the whole
//! curve hovers at or below 1.0x and the numbers measure fan-out overhead,
//! not scaling).
//!
//! Set `MCH_BENCH_SMOKE=1` for a reduced circuit list with fewer samples
//! (used by CI); set `MCH_BENCH_FULL=1` for the complete scaled suite.

use mch_bench::harness::{format_ns, Criterion};
use mch_benchmarks::{
    barrel_shifter, hypotenuse, multiplier, sine_approx, square, voter,
};
use mch_choice::{build_mch, MchParams};
use mch_cut::{
    enumerate_cuts, enumerate_cuts_threaded, CutCost, CutCostModel, CutParams,
};
use mch_logic::{convert, levelize, Network, NetworkKind};
use mch_mapper::prepare_cuts;
use std::fmt::Write as _;
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

struct Row {
    circuit: String,
    gates: usize,
    levels: usize,
    max_width: usize,
    serial_ns: f64,
    parallel_ns: Vec<f64>, // same order as THREAD_COUNTS
    deterministic: bool,
}

fn gather_circuits() -> Vec<(String, Network)> {
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let full = std::env::var_os("MCH_BENCH_FULL").is_some();
    let mut circuits: Vec<(String, Network)> = if smoke {
        vec![
            ("multiplier24".into(), multiplier(24)),
            ("voter255".into(), voter(255)),
            ("bar64".into(), barrel_shifter(64)),
        ]
    } else {
        let mut v = vec![
            ("multiplier32".into(), multiplier(32)),
            ("square48".into(), square(48)),
            ("voter511".into(), voter(511)),
            ("sin20".into(), sine_approx(20)),
            ("bar128".into(), barrel_shifter(128)),
        ];
        if full {
            v.push(("hyp24".into(), hypotenuse(24)));
        }
        v
    };
    // A majority-based view exercises the 3-fanin kernel in parallel too.
    let mig_src = if smoke { voter(255) } else { voter(511) };
    circuits.push(("voter_mig".into(), convert(&mig_src, NetworkKind::Mig)));
    circuits
}

/// Serial-vs-parallel identity check, run once per circuit outside timing.
fn check_determinism(net: &Network, params: &CutParams) -> bool {
    let unit = CutCostModel::unit();
    let serial = enumerate_cuts(net, params);
    THREAD_COUNTS.iter().all(|&t| {
        serial.identical(&enumerate_cuts_threaded(net, params, &unit, t, None))
    })
}

fn main() {
    let params = CutParams::new(6, 8);
    let smoke = std::env::var_os("MCH_BENCH_SMOKE").is_some();
    let sample_size = if smoke { 3 } else { 7 };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let circuits = gather_circuits();
    let unit = CutCostModel::unit();

    let mut c = Criterion::new();
    let mut rows: Vec<Row> = Vec::new();
    for (name, net) in &circuits {
        let deterministic = check_determinism(net, &params);
        let lv = levelize(net);
        let mut group = c.benchmark_group(format!("cut_enum_parallel/{name}"));
        group.sample_size(sample_size);
        group.bench_function("serial", |b| b.iter(|| enumerate_cuts(net, &params)));
        for &t in &THREAD_COUNTS {
            group.bench_function(format!("{t}threads"), |b| {
                b.iter(|| enumerate_cuts_threaded(net, &params, &unit, t, None))
            });
        }
        group.finish();
        let records = c.records();
        let base = records.len() - 1 - THREAD_COUNTS.len();
        rows.push(Row {
            circuit: name.clone(),
            gates: net.gate_count(),
            levels: lv.num_levels(),
            max_width: lv.max_width(),
            serial_ns: records[base].median_ns,
            parallel_ns: (0..THREAD_COUNTS.len())
                .map(|i| records[base + 1 + i].median_ns)
                .collect(),
            deterministic,
        });
    }
    c.final_summary();

    // Choice-transfer waste: enumerate + transfer over an MCH choice network
    // and report how many arena slots the transfer's commits abandoned.
    let transfer_sources: Vec<(&str, Network)> = vec![
        ("voter63", voter(63)),
        ("bar32", barrel_shifter(32)),
    ];
    let mut transfer_rows = Vec::new();
    for (name, net) in &transfer_sources {
        let mch = build_mch(net, &MchParams::area_oriented());
        let serial = prepare_cuts(&mch, 4, 8, CutCost::Hybrid, &unit, 1);
        let parallel = prepare_cuts(&mch, 4, 8, CutCost::Hybrid, &unit, 4);
        let transfer_deterministic = serial.identical(&parallel);
        transfer_rows.push((
            name.to_string(),
            serial.total_cuts(),
            serial.wasted_slots(),
            transfer_deterministic,
        ));
    }

    let geomean = |f: &dyn Fn(&Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let geomeans: Vec<f64> = (0..THREAD_COUNTS.len())
        .map(|i| geomean(&|r: &Row| r.serial_ns / r.parallel_ns[i]))
        .collect();
    let all_deterministic =
        rows.iter().all(|r| r.deterministic) && transfer_rows.iter().all(|t| t.3);

    let mut json = String::from("{\n  \"bench\": \"cut_enum_parallel\",\n");
    let _ = writeln!(
        json,
        "  \"params\": {{\"cut_size\": 6, \"cut_limit\": 8}},\n  \"host_cpus\": {host_cpus},\n  \"thread_counts\": [2, 4, 8],\n  \"circuits\": ["
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
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"levels\": {}, \"max_width\": {}, \"serial_ns\": {:.0}, \"deterministic\": {}, \"parallel\": [{}]}}{}",
            r.circuit,
            r.gates,
            r.levels,
            r.max_width,
            r.serial_ns,
            r.deterministic,
            curve,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"geomean_speedup\": {{\"2\": {:.2}, \"4\": {:.2}, \"8\": {:.2}}},",
        geomeans[0], geomeans[1], geomeans[2]
    );
    let _ = writeln!(json, "  \"choice_transfer\": [");
    for (i, (name, total, wasted, det)) in transfer_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{name}\", \"arena_cuts\": {total}, \"wasted_slots\": {wasted}, \"deterministic\": {det}}}{}",
            if i + 1 < transfer_rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],\n  \"all_deterministic\": {all_deterministic}\n}}");

    // crates/bench → workspace root.
    let out: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json");
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");

    eprintln!("\nspeedup vs threads (serial → 2 / 4 / 8), host has {host_cpus} cpu(s):");
    for r in &rows {
        eprintln!(
            "  {:<13} {:>7} gates {:>5} levels  {:>10}  ×{:.2} ×{:.2} ×{:.2}{}",
            r.circuit,
            r.gates,
            r.levels,
            format_ns(r.serial_ns),
            r.serial_ns / r.parallel_ns[0],
            r.serial_ns / r.parallel_ns[1],
            r.serial_ns / r.parallel_ns[2],
            if r.deterministic { "" } else { "  !! NONDETERMINISTIC" },
        );
    }
    eprintln!(
        "geomean speedup: ×{:.2} (2t) ×{:.2} (4t) ×{:.2} (8t)",
        geomeans[0], geomeans[1], geomeans[2]
    );
    for (name, total, wasted, _) in &transfer_rows {
        eprintln!("choice transfer {name}: {total} arena cuts, {wasted} wasted slots");
    }
    assert!(
        all_deterministic,
        "parallel enumeration diverged from the serial driver"
    );
    eprintln!("wrote {}", out.display());
}
