//! The three workloads: their inputs, set-up, timed loop and traced loop.
//!
//! Every workload is a closed loop with one caller and one flow in flight.
//! A pass runs each (circuit, config) item once, in an order the seed
//! shuffles; runs are whole passes, so every run sees the same mix.

use crate::check::{self, Netlist};
use crate::layers::{self, Recorder};
use crate::replay::{self, Facts};
use crate::stats::{median, SplitMix64};
use mch_core::choice::SharedNpnCache;
use mch_core::logic::{Equivalence, Network};
use mch_core::techlib::{asap7_lite, Library, LutLibrary};
use mch_core::{
    AsicFlowResult, FusionMode, Job, JobKind, JobOutput, JobReport, LutFlowResult, MappingService,
    MchConfig, ServiceStats,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 3] = ["lut_narrow_cold", "asic_wide_cold", "warm_sweep"];

/// The suite circuits with at most 14 primary inputs: every CEC and every
/// snapshot-link proof is exhaustive, so linking dominates the flow.
const NARROW: [&str; 6] = ["sin", "square", "cavlc", "ctrl", "dec", "int2float"];
/// The suite circuits with more than 14 primary inputs: links skip the
/// proof, and resynthesis planning over the widened critical region
/// dominates the delay flow.
const WIDE: [&str; 14] = [
    "adder",
    "bar",
    "div",
    "hyp",
    "log2",
    "max",
    "multiplier",
    "sqrt",
    "arbiter",
    "i2c",
    "mem_ctrl",
    "priority",
    "router",
    "voter",
];
/// Sweep circuits: their prepared flows fit the service's default cache
/// together, so the timed phase never evicts.
const SWEEP: [&str; 6] = ["multiplier", "voter", "mem_ctrl", "i2c", "sqrt", "cavlc"];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    LutCold,
    AsicCold,
    WarmSweep,
}

/// One (circuit, config) pair.
pub struct Item {
    pub label: String,
    pub network: Network,
    pub config: MchConfig,
}

/// What the benchmark keeps of one flow call.
struct Outcome {
    netlist: Option<Netlist>,
    verified: bool,
    /// (LUTs, levels) or (area, delay).
    qor: (f64, f64),
}

impl Outcome {
    const FAILED: Outcome = Outcome {
        netlist: None,
        verified: false,
        qor: (0.0, 0.0),
    };

    fn lut(r: LutFlowResult) -> Outcome {
        Outcome {
            qor: (r.luts as f64, f64::from(r.levels)),
            verified: r.verified,
            netlist: Some(Netlist::Lut(r.netlist)),
        }
    }

    fn asic(r: AsicFlowResult) -> Outcome {
        Outcome {
            qor: (r.area, r.delay),
            verified: r.verified,
            netlist: Some(Netlist::Cells(r.netlist)),
        }
    }

    fn service(report: JobReport) -> Outcome {
        match report.outcome {
            Ok(JobOutput::Lut(r)) => Outcome::lut(r),
            _ => Outcome::FAILED,
        }
    }
}

/// A distinct item's set-up output, checked once; later outputs equal to
/// it share its verdict.
struct Reference {
    netlist: Netlist,
    passes: bool,
    qor: (f64, f64),
}

pub struct Bench {
    pub name: &'static str,
    kind: Kind,
    pub threads: usize,
    pub items: Vec<Item>,
    lut: LutLibrary,
    cells: Library,
    service: Option<MappingService>,
    references: Vec<Option<Reference>>,
    /// Set-up times in s, each from the start of its own process.
    pub setup_s: Vec<f64>,
    /// Service counters at the end of set-up (warm workload only).
    pub setup_stats: Option<ServiceStats>,
    seed: u64,
}

/// The timed loop's samples.
pub struct Timed {
    /// Wall time of every timed flow call, in ms, by item.
    pub item_ms: Vec<Vec<f64>>,
    /// Input gates per second of each pass.
    pub pass_gates_per_s: Vec<f64>,
    /// Input gates and wall time (s) summed over every timed flow.
    pub gates: f64,
    pub seconds: f64,
    pub attempted: usize,
    pub ok: usize,
    /// Whether the service served every timed call from its prepared-flow
    /// cache without evicting (always true without a service).
    pub cache_held: bool,
    /// The process's peak resident set over its set-up and the timed loop,
    /// in MB.
    pub peak_rss_mb: f64,
}

/// The traced loop's spans and per-item counters.
pub struct Traced {
    pub rec: Recorder,
    /// Flow ids of the untraced calls and of the replays, by label.
    pub calls: BTreeMap<String, Vec<usize>>,
    pub replays: BTreeMap<String, Vec<usize>>,
    /// The counters of each distinct replayed label (first replay).
    pub facts: BTreeMap<String, Facts>,
    /// Labels timed at the workload's thread count (one) and, for the pool
    /// comparison on `asic_wide_cold`, at the host's CPU count.
    pub labels: Vec<String>,
    pub pool_labels: Vec<String>,
    pub attempted: usize,
    pub ok: usize,
    pub stats: Option<(ServiceStats, ServiceStats)>,
}

/// Whether the service answered every call between two snapshots of its
/// counters from the prepared-flow cache, and evicted nothing.
fn cache_held(before: &ServiceStats, after: &ServiceStats) -> bool {
    after.prepared_misses == before.prepared_misses
        && after.prepared_evictions == before.prepared_evictions
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn sweep_variants() -> Vec<(&'static str, MchConfig)> {
    let base = MchConfig::lut_area().with_threads(1);
    let fused = |mode| base.clone().with_fusion(mode);
    vec![
        ("off", base.clone()),
        ("off_r0", base.clone().with_area_rounds(0)),
        ("off_r4", base.clone().with_area_rounds(4)),
        ("off_exact", base.clone().with_exact_area(true)),
        ("bias", fused(FusionMode::Bias)),
        ("inject", fused(FusionMode::Inject)),
        ("full", fused(FusionMode::Full)),
        (
            "full_r6_exact",
            fused(FusionMode::Full)
                .with_area_rounds(6)
                .with_exact_area(true),
        ),
    ]
}

/// The process's peak resident set (`VmHWM`), in MB.
fn read_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn input(name: &str, narrow: Option<bool>) -> Result<Network, String> {
    let net = layers::input(name).ok_or_else(|| format!("unknown suite circuit {name}"))?;
    if let Some(narrow) = narrow {
        if (net.input_count() <= check::EXHAUSTIVE_MAX_INPUTS) != narrow {
            return Err(format!(
                "{name} has {} inputs, outside its width class",
                net.input_count()
            ));
        }
    }
    Ok(net)
}

impl Bench {
    /// Builds the workload's inputs and runs one untimed pass of every flow
    /// (the set-up, whose time is the bench's one `setup_s`), then checks
    /// every distinct output once.
    pub fn set_up(name: &str, seed: u64) -> Result<Bench, String> {
        let (mut bench, outcomes) = Self::untimed_pass(name, seed)?;
        bench.setup_stats = bench.service.as_ref().map(MappingService::stats);
        bench.references = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| {
                let passes = bench.independent_check(i, &outcome);
                outcome.netlist.map(|netlist| Reference {
                    netlist,
                    passes,
                    qor: outcome.qor,
                })
            })
            .collect();
        Ok(bench)
    }

    /// The set-up alone, without checking its outputs: its time in s.
    pub fn time_setup(name: &str, seed: u64) -> Result<f64, String> {
        Ok(Self::untimed_pass(name, seed)?.0.setup_s[0])
    }

    fn untimed_pass(name: &str, seed: u64) -> Result<(Bench, Vec<Outcome>), String> {
        let (name, kind, threads) = match name {
            "lut_narrow_cold" => (NAMES[0], Kind::LutCold, 1),
            "asic_wide_cold" => (NAMES[1], Kind::AsicCold, 1),
            "warm_sweep" => (NAMES[2], Kind::WarmSweep, 1),
            other => {
                return Err(format!(
                    "unknown workload {other}; expected one of {NAMES:?}"
                ))
            }
        };
        let start = Instant::now();
        let mut bench = Bench {
            name,
            kind,
            threads,
            items: Self::items(kind, threads)?,
            lut: LutLibrary::k6(),
            cells: asap7_lite(),
            service: None,
            references: Vec::new(),
            setup_s: Vec::new(),
            setup_stats: None,
            seed,
        };
        let outcomes = bench.first_pass();
        bench.setup_s.push(start.elapsed().as_secs_f64());
        Ok((bench, outcomes))
    }

    fn items(kind: Kind, threads: usize) -> Result<Vec<Item>, String> {
        let mut items = Vec::new();
        match kind {
            Kind::LutCold => {
                for name in NARROW {
                    let config = MchConfig::lut_area().with_threads(threads);
                    items.push(Item {
                        label: format!("{name}/lut_area"),
                        network: input(name, Some(true))?,
                        config,
                    });
                }
            }
            Kind::AsicCold => {
                for name in WIDE {
                    let config = MchConfig::delay_oriented().with_threads(threads);
                    let network = input(name, Some(false))?;
                    items.push(Item {
                        label: format!("{name}/delay"),
                        network,
                        config,
                    });
                }
            }
            Kind::WarmSweep => {
                for name in SWEEP {
                    let network = input(name, None)?;
                    for (variant, config) in sweep_variants() {
                        let label = format!("{name}/{variant}");
                        items.push(Item {
                            label,
                            network: network.clone(),
                            config,
                        });
                    }
                }
            }
        }
        Ok(items)
    }

    /// The untimed pass. The warm workload fills a fresh service's cache
    /// with one cold `Job::sweep` per circuit instead.
    fn first_pass(&mut self) -> Vec<Outcome> {
        let mut quiet = Recorder::new(false);
        if self.kind != Kind::WarmSweep {
            return (0..self.items.len())
                .map(|i| self.call(&mut quiet, i, self.threads, None).0)
                .collect();
        }
        let service = MappingService::new();
        let variants = sweep_variants().len();
        let mut outcomes = Vec::new();
        for chunk in self.items.chunks(variants) {
            let configs = chunk.iter().map(|item| item.config.clone()).collect();
            let kind = JobKind::LutFusedMch(self.lut, self.cells.clone());
            let job = Job::sweep(
                chunk[0].label.clone(),
                chunk[0].network.clone(),
                kind,
                configs,
            );
            let (report, _, _) = layers::service_flow(&mut quiet, String::new(), &service, job);
            match report.outcome {
                Ok(JobOutput::Sweep(reports)) => {
                    outcomes.extend(reports.into_iter().map(Outcome::service))
                }
                _ => outcomes.extend(chunk.iter().map(|_| Outcome::FAILED)),
            }
        }
        self.service = Some(service);
        outcomes
    }

    /// The job a warm call will run, built before its timer starts.
    fn job(&self, i: usize, threads: usize) -> Option<Job> {
        let item = &self.items[i];
        (self.kind == Kind::WarmSweep).then(|| {
            let config = item.config.clone().with_threads(threads);
            Job::lut_fused(
                item.label.clone(),
                item.network.clone(),
                self.lut,
                self.cells.clone(),
                config,
            )
        })
    }

    /// One flow call through its public entry point, at `threads` (the
    /// workload's count unless overridden for the pool comparison). Warm
    /// calls take their job from [`Bench::job`].
    fn call(
        &self,
        rec: &mut Recorder,
        i: usize,
        threads: usize,
        job: Option<Job>,
    ) -> (Outcome, usize, Duration) {
        let item = &self.items[i];
        let label = label_at(&item.label, threads);
        let config = item.config.clone().with_threads(threads);
        match self.kind {
            Kind::LutCold => {
                let (result, id, d) =
                    layers::lut_flow(rec, label, &item.network, &self.lut, &config);
                (result.map_or(Outcome::FAILED, Outcome::lut), id, d)
            }
            Kind::AsicCold => {
                let (result, id, d) =
                    layers::asic_flow(rec, label, &item.network, &self.cells, &config);
                (result.map_or(Outcome::FAILED, Outcome::asic), id, d)
            }
            Kind::WarmSweep => {
                let service = self
                    .service
                    .as_ref()
                    .expect("the warm workload owns a service");
                let job = job.expect("warm calls are built before their timer");
                let (report, id, d) = layers::service_flow(rec, label, service, job);
                (Outcome::service(report), id, d)
            }
        }
    }

    fn independent_check(&self, i: usize, outcome: &Outcome) -> bool {
        let seed = self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        outcome.verified
            && outcome
                .netlist
                .as_ref()
                .is_some_and(|n| check::matches(&self.items[i].network, n, &self.cells, seed))
    }

    /// Whether a timed output is correct: the flow returned `Ok` with
    /// `verified = true`, and the independent check accepts the netlist —
    /// through the reference's verdict when the netlists are equal.
    fn passes(&self, i: usize, outcome: &Outcome) -> bool {
        match (&self.references[i], &outcome.netlist) {
            (Some(r), Some(n)) if outcome.verified && r.netlist == *n => r.passes,
            _ => self.independent_check(i, outcome),
        }
    }

    /// Whether every distinct set-up output exists and passed its check.
    pub fn references_pass(&self) -> bool {
        self.references
            .iter()
            .all(|r| r.as_ref().is_some_and(|r| r.passes))
    }

    /// The QoR of the distinct outputs, each counted once: summed (LUTs,
    /// levels) or (area, delay).
    pub fn qor(&self) -> (f64, f64) {
        self.references
            .iter()
            .flatten()
            .fold((0.0, 0.0), |(a, b), r| (a + r.qor.0, b + r.qor.1))
    }

    /// How many whole passes fill `seconds`: a fixed count per workload and
    /// run length, so every run has the same mix of flows and its quantiles
    /// fall on the same circuits. Sized by the median pass time of twenty
    /// timed runs per workload on a 2-vCPU x86-64 host.
    pub fn passes_for(&self, seconds: f64) -> usize {
        let pass_s = match self.kind {
            Kind::LutCold => 4.1,
            Kind::AsicCold => 7.6,
            Kind::WarmSweep => 0.40,
        };
        ((seconds / pass_s).round() as usize).max(1)
    }

    pub fn is_asic(&self) -> bool {
        self.kind == Kind::AsicCold
    }

    /// Runs [`Bench::passes_for`] whole passes, timing each flow call and
    /// checking its output.
    pub fn measure(&self, seconds: f64) -> Result<Timed, String> {
        let mut rec = Recorder::new(false);
        let mut rng = SplitMix64::new(self.seed);
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        let mut t = Timed {
            item_ms: vec![Vec::new(); self.items.len()],
            pass_gates_per_s: Vec::new(),
            gates: 0.0,
            seconds: 0.0,
            attempted: 0,
            ok: 0,
            cache_held: true,
            peak_rss_mb: 0.0,
        };
        let before = self.service.as_ref().map(MappingService::stats);
        for _ in 0..self.passes_for(seconds) {
            rng.shuffle(&mut order);
            let jobs: Vec<Option<Job>> = order.iter().map(|&i| self.job(i, self.threads)).collect();
            let (mut pass_gates, mut pass_s) = (0.0, 0.0);
            for (&i, job) in order.iter().zip(jobs) {
                let (outcome, _, d) = self.call(&mut rec, i, self.threads, job);
                t.item_ms[i].push(d.as_secs_f64() * 1e3);
                pass_gates += self.gates(i);
                pass_s += d.as_secs_f64();
                t.attempted += 1;
                t.ok += usize::from(self.passes(i, &outcome));
            }
            t.pass_gates_per_s.push(pass_gates / pass_s);
            t.gates += pass_gates;
            t.seconds += pass_s;
        }
        if let (Some(before), Some(service)) = (before, &self.service) {
            t.cache_held = cache_held(&before, &service.stats());
        }
        t.peak_rss_mb = read_peak_rss_mb()?;
        Ok(t)
    }

    /// Input gates of item `i`.
    pub fn gates(&self, i: usize) -> f64 {
        self.items[i].network.gate_count() as f64
    }

    /// The traced run: per item, the untraced flow call and its layer-by-
    /// layer replay, whose netlist must equal the flow's.
    /// `asic_wide_cold` repeats both at the host's CPU count to time the
    /// worker pool.
    pub fn trace(&self, seconds: f64) -> Result<Traced, String> {
        let mut tr = Traced {
            rec: Recorder::new(true),
            calls: BTreeMap::new(),
            replays: BTreeMap::new(),
            facts: BTreeMap::new(),
            labels: Vec::new(),
            pool_labels: Vec::new(),
            attempted: 0,
            ok: 0,
            stats: None,
        };
        let pool = (self.kind == Kind::AsicCold && host_threads() > 1).then(host_threads);
        let thread_counts: Vec<usize> = std::iter::once(self.threads).chain(pool).collect();
        for item in &self.items {
            tr.labels.push(label_at(&item.label, self.threads));
            tr.pool_labels
                .extend(pool.map(|t| label_at(&item.label, t)));
        }
        // The warm flows reuse prepared state; rebuild it once per circuit,
        // traced, as the set-up sweeps built it inside the service: in the
        // same order, over one shared NPN store like the service's.
        let mut prepared = Vec::new();
        if self.kind == Kind::WarmSweep {
            let npn = Arc::new(SharedNpnCache::new());
            let variants = sweep_variants().len();
            for chunk in self.items.chunks(variants) {
                let fused = chunk
                    .iter()
                    .find(|item| item.config.fusion.is_enabled())
                    .expect("a fused variant");
                let circuit = chunk[0].label.split('/').next().unwrap_or_default();
                let label = format!("{circuit}/setup");
                let ((p, facts), id, _) = tr.rec.flow("replay", label.clone(), |rec| {
                    replay::fused_setup(
                        rec,
                        &fused.network,
                        &self.lut,
                        &self.cells,
                        &fused.config,
                        &npn,
                    )
                });
                tr.replays.entry(label.clone()).or_default().push(id);
                tr.facts.entry(label.clone()).or_insert(facts);
                tr.labels.push(label);
                prepared.push(p);
            }
        }
        let before = self.service.as_ref().map(MappingService::stats);
        let mut rng = SplitMix64::new(self.seed);
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        let start = Instant::now();
        for pass in 0.. {
            rng.shuffle(&mut order);
            let pass_start = Instant::now();
            for &i in &order {
                for &threads in &thread_counts {
                    let label = label_at(&self.items[i].label, threads);
                    let call =
                        |rec: &mut Recorder| self.call(rec, i, threads, self.job(i, threads));
                    let replay = |rec: &mut Recorder| {
                        rec.flow("replay", label.clone(), |rec| {
                            self.replay(rec, i, threads, &prepared)
                        })
                    };
                    // Alternate which runs first, so neither side always
                    // starts from the state the other left behind.
                    let ((outcome, call_id, _), ((netlist, facts), replay_id, _)) = if pass % 2 == 0
                    {
                        let c = call(&mut tr.rec);
                        (c, replay(&mut tr.rec))
                    } else {
                        let r = replay(&mut tr.rec);
                        (call(&mut tr.rec), r)
                    };
                    if outcome.netlist.as_ref() != Some(&netlist) {
                        return Err(format!(
                            "{label}: the layer-by-layer netlist differs from the flow's"
                        ));
                    }
                    tr.calls.entry(label.clone()).or_default().push(call_id);
                    tr.replays.entry(label.clone()).or_default().push(replay_id);
                    tr.facts.entry(label).or_insert(facts);
                    tr.attempted += 1;
                    tr.ok += usize::from(self.passes(i, &outcome));
                }
            }
            if start.elapsed() + pass_start.elapsed() > Duration::from_secs_f64(seconds) {
                break;
            }
        }
        tr.stats = before.zip(self.service.as_ref().map(MappingService::stats));
        Ok(tr)
    }
}

impl Bench {
    /// Item `i`'s flow at `threads`, rebuilt from its layer calls.
    fn replay(
        &self,
        rec: &mut Recorder,
        i: usize,
        threads: usize,
        prepared: &[replay::Prepared],
    ) -> (Netlist, Facts) {
        let item = &self.items[i];
        let config = item.config.clone().with_threads(threads);
        match self.kind {
            Kind::LutCold => {
                let (netlist, facts) = replay::lut(rec, &item.network, &self.lut, &config);
                (Netlist::Lut(netlist), facts)
            }
            Kind::AsicCold => {
                let (netlist, facts) = replay::asic(rec, &item.network, &self.cells, &config);
                (Netlist::Cells(netlist), facts)
            }
            Kind::WarmSweep => {
                let p = &prepared[i / sweep_variants().len()];
                let (netlist, verdict) =
                    replay::fused_warm(rec, &item.network, p, &self.lut, &self.cells, &config);
                (
                    Netlist::Lut(netlist),
                    Facts {
                        verdict: Some(verdict),
                        ..Facts::default()
                    },
                )
            }
        }
    }
}

fn label_at(label: &str, threads: usize) -> String {
    format!("{label}@{threads}")
}

impl Traced {
    /// Per label, the median of `value` over the label's flows in `flows`;
    /// summed over `labels` (ms per pass for times).
    fn per_label(
        &self,
        flows: &BTreeMap<String, Vec<usize>>,
        labels: &[String],
        value: impl Fn(usize) -> f64,
    ) -> f64 {
        labels
            .iter()
            .filter_map(|l| flows.get(l))
            .map(|ids| median(&ids.iter().map(|&id| value(id)).collect::<Vec<_>>()))
            .fold(0.0, |sum, v| sum + v)
    }

    /// The summed self time of the spans named `layer` in each replay.
    pub fn layer_ms(&self, self_ms: &[f64], layer: &str, labels: &[String]) -> f64 {
        self.per_label(&self.replays, labels, |id| {
            let (root, spans) = self.rec.flow_spans(id);
            spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == layer)
                .map(|(k, _)| self_ms[root + k])
                .fold(0.0, |sum, v| sum + v)
        })
    }

    /// The wall time the spans named `layer` cover in each replay
    /// (overlapping snapshot views count once).
    pub fn layer_wall_ms(&self, layer: &str, labels: &[String]) -> f64 {
        self.per_label(&self.replays, labels, |id| {
            let (_, spans) = self.rec.flow_spans(id);
            let intervals = spans
                .iter()
                .filter(|s| s.name == layer)
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            layers::union_ns(intervals, 0, u64::MAX) as f64 / 1e6
        })
    }

    /// The duration of each untraced flow call.
    pub fn flow_ms(&self, labels: &[String]) -> f64 {
        self.per_label(&self.calls, labels, |id| self.rec.flow_spans(id).1[0].ms())
    }

    /// The wall time the layer spans cover in each replay, over the labels
    /// that also have untraced calls: subtracted from [`Traced::flow_ms`] it
    /// leaves the flow's own time outside every traced layer.
    pub fn covered_ms(&self, labels: &[String]) -> f64 {
        let called: Vec<String> = labels
            .iter()
            .filter(|l| self.calls.contains_key(*l))
            .cloned()
            .collect();
        self.per_label(&self.replays, &called, |id| {
            let (root, spans) = self.rec.flow_spans(id);
            let intervals = spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            layers::union_ns(intervals, 0, u64::MAX) as f64 / 1e6
        })
    }

    /// The counters of the distinct labels at the workload's thread count,
    /// each counted once.
    pub fn facts(&self) -> impl Iterator<Item = &Facts> {
        self.labels.iter().filter_map(|l| self.facts.get(l))
    }

    /// Whether the service served every traced call from its prepared-flow
    /// cache without evicting (always true without a service).
    pub fn cache_held(&self) -> bool {
        self.stats
            .as_ref()
            .is_none_or(|(before, after)| cache_held(before, after))
    }

    pub fn proven_share(&self) -> f64 {
        let verdicts: Vec<Equivalence> = self.facts().filter_map(|f| f.verdict).collect();
        let proven = verdicts
            .iter()
            .filter(|&&v| v == Equivalence::Equivalent)
            .count();
        proven as f64 / verdicts.len().max(1) as f64
    }
}
