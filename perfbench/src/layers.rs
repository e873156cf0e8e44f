//! Every call the benchmark makes into the program, one timed function per
//! layer, plus the in-memory span recorder they report to.
//!
//! The untraced run and the traced run share these call sites: with tracing
//! off a function only measures its own duration; with tracing on it also
//! records a span (name, start, end, parent) under the flow that is open.
//! The spans of one flow share its flow id and are written out when the run
//! ends. Timing is taken from outside each call — the program carries no
//! tracing of its own.

use mch_core::choice::{
    add_snapshot_choices, build_mch_with_stats_shared, ChoiceNetwork, MchParams, MchStats,
    SharedNpnCache,
};
use mch_core::cut::WorkerPool;
use mch_core::logic::{cec, Equivalence, Network, NetworkKind};
use mch_core::mapper::{
    map_asic_prepared, map_lut_fused_prepared, map_lut_prepared, prepare_asic_cover,
    prepare_fusion_guide, prepare_lut_cover, AsicMapParams, CellNetlist, LutCandidate,
    LutMapParams, LutNetlist, MappingObjective, MatchCandidate, PreparedCover,
};
use mch_core::opt::graph_map;
use mch_core::techlib::{Library, LutLibrary};
use mch_core::{
    try_asic_flow_mch, try_lut_flow_mch, AsicFlowResult, FlowError, Job, JobReport, LutFlowResult,
    MappingService, MchConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded call: `parent` indexes the enclosing span, `flow` is shared
/// by every span of one flow. Times are nanoseconds since the recorder
/// started.
pub struct Span {
    pub name: &'static str,
    pub flow: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// One label per flow id.
    pub flows: Vec<String>,
    /// The root span of each flow; a flow's spans are contiguous from it.
    roots: Vec<usize>,
    /// The root span of the open flow.
    open: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            flows: Vec::new(),
            roots: Vec::new(),
            open: None,
        }
    }

    /// The root span of flow `id` followed by every span recorded in it.
    pub fn flow_spans(&self, id: usize) -> (usize, &[Span]) {
        let start = self.roots[id];
        let end = self.roots.get(id + 1).copied().unwrap_or(self.spans.len());
        (start, &self.spans[start..end])
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let flow = self.flows.len() - 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            flow,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Runs `f` as one flow: a root span named `name`, under which every
    /// span recorded inside `f` lands. Returns the flow id and duration.
    pub fn flow<T>(
        &mut self,
        name: &'static str,
        label: String,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, usize, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, usize::MAX, start.elapsed());
        }
        self.flows.push(label);
        let root = self.push(name, None, start, start);
        self.roots.push(root);
        self.open = Some(root);
        let out = f(self);
        let end = Instant::now();
        self.spans[root].end_ns = self.ns(end);
        self.open = None;
        (out, self.flows.len() - 1, end - start)
    }

    /// Times `f` as a span of the open flow.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, start, end))
    }

    /// Records an already-measured interval as a span of the open flow
    /// (used for calls that ran on pool threads). Returns the span index,
    /// or `usize::MAX` when nothing was recorded.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        match (self.enabled, self.open) {
            (true, Some(root)) => self.push(name, Some(root), start, end),
            _ => usize::MAX,
        }
    }

    /// Adds `durations` as consecutive child spans of span `parent`,
    /// starting at its start. For phases the program measures itself
    /// ([`MchStats`]): their durations are exact, their placement inside the
    /// parent is the program's phase order.
    fn children(&mut self, parent: usize, durations: &[(&'static str, Duration)]) {
        if parent == usize::MAX {
            return;
        }
        let mut at = self.spans[parent].start_ns;
        let flow = self.spans[parent].flow;
        for &(name, d) in durations {
            let end_ns = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                flow,
                parent: Some(parent),
                start_ns: at,
                end_ns,
            });
            at = end_ns;
        }
    }
}

/// Generates a suite circuit at its default size.
pub fn input(name: &str) -> Option<Network> {
    mch_core::benchmarks::benchmark(name)
}

/// The whole LUT flow, timed around the public entry point.
pub fn lut_flow(
    rec: &mut Recorder,
    label: String,
    net: &Network,
    lut: &LutLibrary,
    config: &MchConfig,
) -> (Result<LutFlowResult, FlowError>, usize, Duration) {
    rec.flow("core.flow", label, |_| try_lut_flow_mch(net, lut, config))
}

/// The whole ASIC flow, timed around the public entry point.
pub fn asic_flow(
    rec: &mut Recorder,
    label: String,
    net: &Network,
    library: &Library,
    config: &MchConfig,
) -> (Result<AsicFlowResult, FlowError>, usize, Duration) {
    rec.flow("core.flow", label, |_| {
        try_asic_flow_mch(net, library, config)
    })
}

/// One service job, timed around `MappingService::run`.
pub fn service_flow(
    rec: &mut Recorder,
    label: String,
    service: &MappingService,
    job: Job,
) -> (JobReport, usize, Duration) {
    rec.flow("core.flow", label, |_| service.run(job))
}

pub fn fingerprint(rec: &mut Recorder, net: &Network) -> u64 {
    rec.time("core.fingerprint", || net.structural_fingerprint())
        .0
}

/// Choice construction, with its four self-measured sub-phases recorded as
/// child spans. `npn` is the service's shared NPN store, where the flow
/// being rebuilt runs inside a service.
pub fn build_choices(
    rec: &mut Recorder,
    net: &Network,
    params: &MchParams,
    npn: Option<&Arc<SharedNpnCache>>,
) -> (ChoiceNetwork, MchStats) {
    let ((choices, stats), span) = rec.time("choice.build", || {
        build_mch_with_stats_shared(net, params, npn)
    });
    rec.children(
        span,
        &[
            ("choice.one_to_one", stats.one_to_one_time),
            ("choice.cut_enum", stats.cut_enum_time),
            ("choice.resynthesis", stats.resynthesis_time),
            ("choice.commit", stats.commit_time),
        ],
    );
    (choices, stats)
}

/// The snapshot views, one `graph_map` span each. Above one thread the
/// views overlap exactly as in the flow: the first on the calling thread,
/// the rest as jobs on the program's global `WorkerPool`.
pub fn graph_map_views(
    rec: &mut Recorder,
    net: &Network,
    kinds: &[NetworkKind],
    objective: MappingObjective,
    threads: usize,
) -> Vec<Network> {
    let timed = |kind: NetworkKind| {
        let start = Instant::now();
        let view = graph_map(net, kind, objective);
        (view, start, Instant::now())
    };
    let mut slots: Vec<Option<(Network, Instant, Instant)>> = kinds.iter().map(|_| None).collect();
    if threads > 1 && kinds.len() > 1 && !WorkerPool::is_worker() {
        let (first, rest) = slots.split_at_mut(1);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = rest
            .iter_mut()
            .zip(&kinds[1..])
            .map(|(slot, &kind)| {
                Box::new(move || *slot = Some(timed(kind))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        WorkerPool::global().run_with(jobs, || first[0] = Some(timed(kinds[0])));
    } else {
        for (slot, &kind) in slots.iter_mut().zip(kinds) {
            *slot = Some(timed(kind));
        }
    }
    slots
        .into_iter()
        .flatten()
        .map(|(view, start, end)| {
            rec.record("opt.graph_map", start, end);
            view
        })
        .collect()
}

pub fn link(rec: &mut Recorder, choices: &mut ChoiceNetwork, view: &Network) -> usize {
    rec.time("choice.link", || add_snapshot_choices(choices, view))
        .0
}

pub fn prepare_lut(
    rec: &mut Recorder,
    choices: &ChoiceNetwork,
    lut: &LutLibrary,
    params: &LutMapParams,
) -> PreparedCover<LutCandidate> {
    rec.time("mapper.prepare", || prepare_lut_cover(choices, lut, params))
        .0
}

pub fn prepare_asic(
    rec: &mut Recorder,
    choices: &ChoiceNetwork,
    library: &Library,
    params: &AsicMapParams,
) -> PreparedCover<MatchCandidate> {
    rec.time("mapper.prepare", || {
        prepare_asic_cover(choices, library, params)
    })
    .0
}

pub fn prepare_guide(
    rec: &mut Recorder,
    choices: &ChoiceNetwork,
    library: &Library,
    params: &LutMapParams,
) -> PreparedCover<MatchCandidate> {
    rec.time("mapper.prepare", || {
        prepare_fusion_guide(choices, library, params)
    })
    .0
}

pub fn cover_lut(
    rec: &mut Recorder,
    choices: &ChoiceNetwork,
    lut: &LutLibrary,
    prep: &PreparedCover<LutCandidate>,
    params: &LutMapParams,
) -> LutNetlist {
    rec.time("mapper.cover", || {
        map_lut_prepared(choices, lut, prep, params)
    })
    .0
}

pub fn cover_asic(
    rec: &mut Recorder,
    choices: &ChoiceNetwork,
    library: &Library,
    prep: &PreparedCover<MatchCandidate>,
    params: &AsicMapParams,
) -> CellNetlist {
    rec.time("mapper.cover", || {
        map_asic_prepared(choices, library, prep, params)
    })
    .0
}

#[allow(clippy::too_many_arguments)]
pub fn cover_fused(
    rec: &mut Recorder,
    choices: &ChoiceNetwork,
    lut: &LutLibrary,
    library: &Library,
    params: &LutMapParams,
    lut_prep: &PreparedCover<LutCandidate>,
    guide_prep: &PreparedCover<MatchCandidate>,
) -> LutNetlist {
    rec.time("mapper.fused_cover", || {
        map_lut_fused_prepared(choices, lut, library, params, lut_prep, guide_prep)
    })
    .0
}

/// The flow's closing check: rebuild a network from the netlist and `cec`
/// it against the input.
pub fn cec_lut(rec: &mut Recorder, input: &Network, netlist: &LutNetlist) -> Equivalence {
    rec.time("logic.cec", || cec(input, &netlist.to_network()))
        .0
}

pub fn cec_asic(
    rec: &mut Recorder,
    input: &Network,
    netlist: &CellNetlist,
    library: &Library,
) -> Equivalence {
    rec.time("logic.cec", || cec(input, &netlist.to_network(library)))
        .0
}

/// Self time of every recorded span: its duration minus the part of it its
/// children cover.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let covered = union_ns(kids, s.start_ns, s.end_ns);
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            flow: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_count_once_in_self_time() {
        // A 100 ns root with two overlapping children (10..40, 30..60) and a
        // grandchild inside the first: the root's children cover 50 ns.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
            span(Some(1), 15, 20),
        ];
        let self_ms = self_times_ms(&spans);
        let ns = |ms: f64| (ms * 1e6).round() as u64;
        assert_eq!(ns(self_ms[0]), 50);
        assert_eq!(ns(self_ms[1]), 25);
        assert_eq!(ns(self_ms[2]), 30);
        assert_eq!(union_ns(vec![(5, 10), (0, 3), (8, 12)], 0, 11), 9);
    }
}
