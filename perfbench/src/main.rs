//! End-to-end and per-layer benchmark of the MCH mapping flows.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lut_narrow_cold|asic_wide_cold|warm_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric with its unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! record of the run (seed, host CPUs, thread count, sample counts, medians
//! and quartiles, and with `--trace 1` every span) is written to
//! `perfbench/out/`. See `perfbench/README.md`.

mod check;
mod layers;
mod replay;
mod stats;
mod workload;

use stats::{median, quantile, Summary};
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Bench, Timed, Traced};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only time one set-up and print its seconds (the child processes of
    /// [`earlier_setups`]).
    setup_only: bool,
}

fn zero_or_one(value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err("expected 0 or 1".to_string()),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = zero_or_one(&value).map_err(|e| bad(&e))?,
            "--setup-only" => args.setup_only = zero_or_one(&value).map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {:?}",
            workload::NAMES
        ));
    }
    Ok(args)
}

/// One reported metric, with the samples it summarises where it has any.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Option<Summary>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
    }
}

fn sampled(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: Some(Summary::of(samples)),
    }
}

/// QoR that does not apply to a workload's target (cells on a LUT
/// workload, LUTs on a cell workload) reads 1: every end-to-end metric is
/// reported on every workload, and none may read 0.
const NOT_APPLICABLE: f64 = 1.0;

fn end_to_end(bench: &Bench, t: &Timed) -> Vec<Metric> {
    let (a, b) = bench.qor();
    let (lut, asic) = if bench.is_asic() {
        ((NOT_APPLICABLE, NOT_APPLICABLE), (a, b))
    } else {
        ((a, b), (NOT_APPLICABLE, NOT_APPLICABLE))
    };
    // The median is taken over the items' mean call times: every item runs
    // equally often, and a mean counts every call. Pooled over every call,
    // the median fell in a gap between two groups of items, where the calls
    // the host happened to run fast or slow decided its value. The 90th
    // percentile pools every call.
    let flow_ms = t.item_ms.concat();
    let item_ms: Vec<f64> = t
        .item_ms
        .iter()
        .map(|calls| calls.iter().sum::<f64>() / calls.len() as f64)
        .collect();
    let distinct = |name, unit, value| Metric {
        name,
        unit,
        value,
        samples: Some(Summary {
            n: t.item_ms.len(),
            p25: value,
            p50: value,
            p75: value,
        }),
    };
    vec![
        sampled("setup_s", "s", median(&bench.setup_s), &bench.setup_s),
        sampled(
            "gates_per_s",
            "gates/s",
            t.gates / t.seconds,
            &t.pass_gates_per_s,
        ),
        sampled("flow_ms_p50", "ms", median(&item_ms), &item_ms),
        sampled("flow_ms_p90", "ms", quantile(&flow_ms, 9, 10), &flow_ms),
        distinct("lut_count", "count", lut.0),
        distinct("lut_levels", "count", lut.1),
        distinct("asic_area", "um2", asic.0),
        distinct("asic_delay", "ps", asic.1),
        metric("verified_share", "ratio", t.ok as f64 / t.attempted as f64),
        metric("peak_rss_mb", "MB", t.peak_rss_mb),
    ]
}

/// The per-layer span names and the metric each one feeds.
const LAYER_SPANS: [(&str, &str); 12] = [
    ("choice.build_ms", "choice.build"),
    ("choice.one_to_one_ms", "choice.one_to_one"),
    ("choice.cut_enum_ms", "choice.cut_enum"),
    ("choice.resynthesis_ms", "choice.resynthesis"),
    ("choice.commit_ms", "choice.commit"),
    ("opt.graph_map_ms", "opt.graph_map"),
    ("choice.link_ms", "choice.link"),
    ("mapper.prepare_ms", "mapper.prepare"),
    ("mapper.cover_ms", "mapper.cover"),
    ("mapper.fused_cover_ms", "mapper.fused_cover"),
    ("logic.cec_ms", "logic.cec"),
    ("core.fingerprint_ms", "core.fingerprint"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(bench: &Bench, tr: &Traced) -> Vec<Metric> {
    let self_ms = layers::self_times_ms(&tr.rec.spans);
    let labels = &tr.labels;
    let mut out: Vec<Metric> = LAYER_SPANS
        .iter()
        .map(|&(name, span)| metric(name, "ms", tr.layer_ms(&self_ms, span, labels)))
        .collect();
    let sum = |f: fn(&replay::Facts) -> f64| tr.facts().map(f).sum::<f64>();
    let hits = sum(|f| f.stats.npn_cache_hits as f64);
    out.extend([
        metric(
            "choice.choices_added",
            "count",
            sum(|f| f.stats.total() as f64),
        ),
        metric(
            "choice.npn_hit_ratio",
            "ratio",
            ratio(hits, hits + sum(|f| f.stats.npn_classes as f64)),
        ),
        metric("choice.links_added", "count", sum(|f| f.links as f64)),
        metric("mapper.cuts", "count", sum(|f| f.cuts as f64)),
        metric("mapper.cut_mb", "MB", sum(|f| f.cut_bytes as f64) / 1e6),
        metric(
            "mapper.candidate_mb",
            "MB",
            sum(|f| f.candidate_bytes as f64) / 1e6,
        ),
        metric("logic.proven_share", "ratio", tr.proven_share()),
        metric(
            "core.flow_self_ms",
            "ms",
            tr.flow_ms(labels) - tr.covered_ms(labels),
        ),
    ]);
    let (hit_ratio, evictions) = tr.stats.as_ref().map_or((0.0, 0.0), |(a, b)| {
        let hits = (b.prepared_hits - a.prepared_hits) as f64;
        let misses = (b.prepared_misses - a.prepared_misses) as f64;
        (
            ratio(hits, hits + misses),
            (b.prepared_evictions - a.prepared_evictions) as f64,
        )
    });
    let (prepared_mb, npn_ratio) = bench.setup_stats.as_ref().map_or((0.0, 0.0), |s| {
        let (h, m) = (s.shared_npn_hits as f64, s.shared_npn_misses as f64);
        (s.prepared_bytes as f64 / 1e6, ratio(h, h + m))
    });
    out.extend([
        metric("core.prepared_hit_ratio", "ratio", hit_ratio),
        metric("core.prepared_evictions", "count", evictions),
        metric("core.prepared_mb", "MB", prepared_mb),
        metric("core.npn_shared_hit_ratio", "ratio", npn_ratio),
    ]);
    // Time at one thread over time at the host's CPU count (traced on
    // `asic_wide_cold` only); exactly 1 where the pool is not compared.
    let (one, pool) = (labels, &tr.pool_labels);
    let speedup = |serial: f64, parallel: f64| {
        if pool.is_empty() {
            1.0
        } else {
            ratio(serial, parallel)
        }
    };
    out.extend([
        metric(
            "choice.resynthesis_speedup",
            "x",
            speedup(
                tr.layer_ms(&self_ms, "choice.resynthesis", one),
                tr.layer_ms(&self_ms, "choice.resynthesis", pool),
            ),
        ),
        metric(
            "opt.graph_map_speedup",
            "x",
            speedup(
                tr.layer_wall_ms("opt.graph_map", one),
                tr.layer_wall_ms("opt.graph_map", pool),
            ),
        ),
        metric(
            "mapper.prepare_speedup",
            "x",
            speedup(
                tr.layer_wall_ms("mapper.prepare", one),
                tr.layer_wall_ms("mapper.prepare", pool),
            ),
        ),
        metric(
            "core.flow_speedup",
            "x",
            speedup(tr.flow_ms(one), tr.flow_ms(pool)),
        ),
    ]);
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: every metric's value with all its digits.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The run record written to `perfbench/out/`.
fn record(
    args: &Args,
    bench: &Bench,
    flows: usize,
    metrics: &[Metric],
    timed: Option<&Timed>,
    tr: Option<&Traced>,
) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host_cpus\": {host_cpus},\n  \"threads\": {},\n  \"flows\": {flows},\n  \"setup_s\": {:?},\n  \"metrics\": {{",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bench.threads,
        bench.setup_s,
    );
    for (k, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {}: {{\"value\": {}, \"unit\": {}",
            if k > 0 { "," } else { "" },
            json_str(m.name),
            m.value,
            json_str(m.unit)
        );
        if let Some(s) = &m.samples {
            let _ = write!(
                out,
                ", \"n\": {}, \"p25\": {}, \"median\": {}, \"p75\": {}",
                s.n, s.p25, s.p50, s.p75
            );
        }
        out.push('}');
    }
    out.push_str("\n  }");
    if let Some(t) = timed {
        out.push_str(",\n  \"flow_ms\": {");
        for (i, samples) in t.item_ms.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let label = json_str(&bench.items[i].label);
            let _ = write!(out, "{sep}\n    {label}: {samples:?}");
        }
        out.push_str("\n  }");
    }
    if let Some(tr) = tr {
        out.push_str(",\n  \"flow_labels\": [");
        let labels: Vec<String> = tr.rec.flows.iter().map(|l| json_str(l)).collect();
        out.push_str(&labels.join(", "));
        out.push_str("],\n  \"spans\": [");
        for (k, s) in tr.rec.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n    {{\"id\": {k}, \"flow\": {}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if k > 0 { "," } else { "" },
                s.flow,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Times all but the last of a timed run's set-ups, one after another, each
/// in a fresh process of this program, so that every set-up starts cold.
fn earlier_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.to_string();
    (1..SETUP_REPEATS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &seed])
                .args(["--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let seconds = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
            match seconds {
                Ok(s) if out.status.success() => Ok(s),
                _ => Err(format!("set-up process: {}", out.status)),
            }
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    // The flows set their thread counts explicitly; this also pins the
    // program's global worker pool to the host's CPUs.
    std::env::remove_var("MCH_THREADS");
    if args.setup_only {
        println!("{}", Bench::time_setup(&args.workload, args.seed)?);
        return Ok(());
    }
    // The traced run reports no set-up time and sets up once.
    let earlier = if args.trace {
        Vec::new()
    } else {
        earlier_setups(args)?
    };
    // This process's own set-up comes last: its peak resident set then
    // covers one set-up and the timed loop.
    let mut bench = Bench::set_up(&args.workload, args.seed)?;
    bench.setup_s.splice(0..0, earlier);
    let (metrics, attempted, ok, cache_held, timed, traced) = if args.trace {
        let tr = bench.trace(args.seconds)?;
        let held = tr.cache_held();
        (
            per_layer(&bench, &tr),
            tr.attempted,
            tr.ok,
            held,
            None,
            Some(tr),
        )
    } else {
        let t = bench.measure(args.seconds)?;
        (
            end_to_end(&bench, &t),
            t.attempted,
            t.ok,
            t.cache_held,
            Some(t),
            None,
        )
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    let failed = attempted - ok;
    // A warm flow that missed the prepared-flow cache ran a different
    // workload, however fast.
    let correct = failed == 0 && bench.references_pass() && cache_held;

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {}  seed {}  host_cpus {host_cpus}  threads {}  {} flows {attempted}  failed {failed}",
        bench.name,
        args.seed,
        bench.threads,
        if args.trace { "traced" } else { "timed" },
    );
    for m in &metrics {
        let spread = m.samples.as_ref().map_or(String::new(), |s| {
            format!(
                "  n={} p25={:.4} median={:.4} p75={:.4}",
                s.n, s.p25, s.p50, s.p75
            )
        });
        println!("{:<28} {:>14.4} {:<8}{spread}", m.name, m.value, m.unit);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        bench.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                record(
                    args,
                    &bench,
                    attempted,
                    &metrics,
                    timed.as_ref(),
                    traced.as_ref(),
                ),
            )
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
