//! The batched mapping service: many circuits, one thread budget, one NPN
//! database.
//!
//! A [`MappingService`] is the "mapping farm" front end of the ROADMAP: it
//! accepts a batch of [`Job`]s (network + flow kind + [`MchConfig`] +
//! optional [`FlowBudget`]) and runs them **concurrently** on a bounded set
//! of coordinator threads: by default as many as the global [`WorkerPool`]
//! budget, or the cap set by
//! [`with_max_in_flight`](MappingService::with_max_in_flight). Each
//! coordinator claims jobs off a shared cursor, largest first by input gate
//! count, and drives the ordinary flow phases, which fan out per
//! `config.threads` exactly as in a solo run, so a small job backfills a
//! coordinator that finished early instead of the batch ending on a big job
//! running alone.
//!
//! # Determinism
//!
//! Batching is **output-invisible**: every job's result — netlist bytes,
//! metrics, degradation report — is byte-identical to a solo run of that job
//! at the same `config.threads`, whatever the batch composition, submission
//! order, in-flight cap or machine load (`tests/service_determinism.rs`).
//! Two mechanisms make that structural rather than asserted:
//!
//! * all within-job ordering is unchanged — each job runs the exact phases
//!   of a solo flow on its own coordinator, building its choice network in
//!   one serial pass in node-id order; jobs share no work queue, so no job
//!   can reorder another's commits;
//! * the jobs share one service-wide [`SharedNpnCache`], but it is a pure
//!   value cache: `synthesize` is a pure function of the NPN class key, so a
//!   class network fetched from the shared store is identical to the one the
//!   job would have synthesised privately, and per-job hit/miss statistics
//!   are counted against the per-job database only.
//!
//! # Fault isolation
//!
//! A panic injected into one job (any `fault-injection` site, including the
//! service's own `service::submit` / `service::job_boundary` failpoints) or
//! a budget breach surfaces as **that job's** [`FlowError`] /
//! `DegradationReport`; sibling jobs in the same batch and every later batch
//! are byte-identical to pristine runs, and the service stays reusable
//! (`tests/service_faults.rs`, `tests/service_budgets.rs`).
//!
//! # Nested submission
//!
//! Submitting a batch from *inside* a fan-out job (a job that spawns a
//! sub-flow) must not multiply the thread budget.
//! [`MappingService::run_batch`] checks [`WorkerPool::is_worker`] — the same
//! recursion guard every parallel phase uses — and falls back to running the
//! batch serially inline on the calling thread; the nested jobs' phases then
//! take their own serial fallbacks. Results are identical to a top-level
//! submission.

use crate::flow::{asic_flow_mch_shared, contain, lut_flow_mch_shared, FlowShared};
use crate::prepared::PreparedFlowCache;
use crate::{AsicFlowResult, DegradationReport, FlowBudget, FlowError, LutFlowResult, MchConfig};
use mch_choice::SharedNpnCache;
use mch_cut::WorkerPool;
use mch_logic::Network;
use mch_techlib::{Library, LutLibrary};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Which mapping flow a [`Job`] runs.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// The MCH ASIC flow against a standard-cell library.
    AsicMch(Library),
    /// The MCH K-LUT flow against an FPGA LUT library.
    LutMch(LutLibrary),
    /// The fused MCH K-LUT flow: an ASIC guide cover over the cell library
    /// feeds the LUT cover per [`MchConfig::fusion`] (see
    /// [`mch_mapper::fusion`]). With [`FusionMode::Off`](mch_mapper::FusionMode)
    /// in the config this is byte-identical to [`JobKind::LutMch`]. The job
    /// owns its [`Library`] by value, which costs no copy of the matching
    /// index: a library clone shares it.
    LutFusedMch(LutLibrary, Library),
    /// A parameter sweep: the base flow kind run once per variant config over
    /// one circuit, in variant order. The service's warm-start cache
    /// ([`PreparedFlowCache`]) makes the variants after the first reuse the
    /// choice network and cut/candidate enumeration whenever their
    /// choice-relevant config subset matches — every variant's bytes are
    /// still identical to a cold solo run of that variant. Sweeps cannot
    /// nest; the base kind must be one of the three flow kinds.
    Sweep(Box<JobKind>, Vec<MchConfig>),
}

/// One unit of service work: a circuit, the flow to run on it, its
/// configuration and an optional resource budget.
#[derive(Clone, Debug)]
pub struct Job {
    /// Caller-chosen job name, echoed on the [`JobReport`].
    pub name: String,
    /// The input network to map.
    pub network: Network,
    /// Which flow to run.
    pub kind: JobKind,
    /// Flow configuration; `config.threads` is authoritative for the job's
    /// internal phases, exactly as in a solo flow call.
    pub config: MchConfig,
    /// Per-job resource bounds; `None` runs unbudgeted.
    pub budget: Option<FlowBudget>,
}

impl Job {
    /// An MCH ASIC mapping job. Passing `library.clone()` is cheap: the
    /// clone shares the library's matching index instead of copying it.
    pub fn asic(
        name: impl Into<String>,
        network: Network,
        library: Library,
        config: MchConfig,
    ) -> Job {
        Job {
            name: name.into(),
            network,
            kind: JobKind::AsicMch(library),
            config,
            budget: None,
        }
    }

    /// An MCH K-LUT mapping job.
    pub fn lut(
        name: impl Into<String>,
        network: Network,
        lut: LutLibrary,
        config: MchConfig,
    ) -> Job {
        Job {
            name: name.into(),
            network,
            kind: JobKind::LutMch(lut),
            config,
            budget: None,
        }
    }

    /// A fused MCH K-LUT mapping job: `library` drives the ASIC guide cover
    /// (see [`JobKind::LutFusedMch`]); `config.fusion` selects the fusion
    /// mode. Passing `library.clone()` is cheap: the clone shares the
    /// library's matching index, so building a job per variant copies none.
    pub fn lut_fused(
        name: impl Into<String>,
        network: Network,
        lut: LutLibrary,
        library: Library,
        config: MchConfig,
    ) -> Job {
        Job {
            name: name.into(),
            network,
            kind: JobKind::LutFusedMch(lut, library),
            config,
            budget: None,
        }
    }

    /// A parameter-sweep job: runs `kind` once per config in `variants`
    /// (in order) over one circuit, reusing the params-independent half of
    /// the flow across variants via the service's warm-start cache. The
    /// job-level `config` field is set to the first variant but is **not**
    /// consulted — the variant list is authoritative. An attached
    /// [`FlowBudget`] applies to every variant independently.
    pub fn sweep(
        name: impl Into<String>,
        network: Network,
        kind: JobKind,
        variants: Vec<MchConfig>,
    ) -> Job {
        let config = variants
            .first()
            .cloned()
            .unwrap_or_else(MchConfig::balanced);
        Job {
            name: name.into(),
            network,
            kind: JobKind::Sweep(Box::new(kind), variants),
            config,
            budget: None,
        }
    }

    /// Returns the same job under a [`FlowBudget`]; on breach the job
    /// degrades through the deterministic ladder instead of failing.
    pub fn with_budget(mut self, budget: FlowBudget) -> Job {
        self.budget = Some(budget);
        self
    }
}

/// A completed job's output: the ordinary flow result of the requested kind.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// Result of an [`JobKind::AsicMch`] job.
    Asic(AsicFlowResult),
    /// Result of a [`JobKind::LutMch`] job.
    Lut(LutFlowResult),
    /// Result of a [`JobKind::Sweep`] job: one [`JobReport`] per variant, in
    /// variant order, named `<job>#<index>`. Each variant's outcome is
    /// independent — a variant failure does not fail its siblings or the
    /// sweep job itself.
    Sweep(Vec<JobReport>),
}

/// The degradation report of a sweep job as a whole: per-variant degradation
/// lives on the variant results.
static EMPTY_DEGRADATION: DegradationReport = DegradationReport {
    steps: Vec::new(),
    deadline_breached: false,
};

impl JobOutput {
    /// Whether the mapped netlist was verified equivalent to the input; for
    /// a sweep, whether **every** variant succeeded and verified.
    pub fn verified(&self) -> bool {
        match self {
            JobOutput::Asic(r) => r.verified,
            JobOutput::Lut(r) => r.verified,
            JobOutput::Sweep(reports) => reports
                .iter()
                .all(|r| r.outcome.as_ref().is_ok_and(|out| out.verified())),
        }
    }

    /// What the budget supervisor shed to keep the job inside its budget.
    /// A sweep job reports no degradation of its own — inspect the variant
    /// reports in [`JobOutput::as_sweep`] instead.
    pub fn degradation(&self) -> &crate::DegradationReport {
        match self {
            JobOutput::Asic(r) => &r.degradation,
            JobOutput::Lut(r) => &r.degradation,
            JobOutput::Sweep(_) => &EMPTY_DEGRADATION,
        }
    }

    /// The ASIC result, if this was an ASIC job.
    pub fn as_asic(&self) -> Option<&AsicFlowResult> {
        match self {
            JobOutput::Asic(r) => Some(r),
            _ => None,
        }
    }

    /// The LUT result, if this was a LUT job.
    pub fn as_lut(&self) -> Option<&LutFlowResult> {
        match self {
            JobOutput::Lut(r) => Some(r),
            _ => None,
        }
    }

    /// The per-variant reports, if this was a sweep job.
    pub fn as_sweep(&self) -> Option<&[JobReport]> {
        match self {
            JobOutput::Sweep(reports) => Some(reports),
            _ => None,
        }
    }
}

/// The per-job report returned by [`MappingService::run_batch`], in
/// submission order: the job's structured outcome plus its wall time.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job's name, echoed from the [`Job`].
    pub name: String,
    /// The flow result, or this job's own structured error — a failure here
    /// says nothing about sibling jobs.
    pub outcome: Result<JobOutput, FlowError>,
    /// Wall-clock seconds from claim to report (measurement; not
    /// deterministic).
    pub seconds: f64,
}

/// Cumulative service telemetry (see [`MappingService::stats`]).
///
/// The job counters are exact; the shared-NPN numbers are cross-job cache
/// telemetry and depend on interleaving — per-job determinism is carried by
/// the per-job flow results instead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs that returned `Ok` since the service was created.
    pub jobs_succeeded: usize,
    /// Jobs that returned `Err` since the service was created.
    pub jobs_failed: usize,
    /// Distinct NPN classes in the shared store.
    pub shared_npn_classes: usize,
    /// Class syntheses served from the shared store.
    pub shared_npn_hits: usize,
    /// Class syntheses performed (once per class per process).
    pub shared_npn_misses: usize,
    /// Prepared flows currently held by the warm-start cache.
    pub prepared_entries: usize,
    /// Estimated bytes currently held by the warm-start cache.
    pub prepared_bytes: usize,
    /// Flow preparations served from the warm-start cache.
    pub prepared_hits: usize,
    /// Flow preparations that found no cached artifact.
    pub prepared_misses: usize,
    /// Prepared flows evicted by the warm-start cache's byte bound.
    pub prepared_evictions: usize,
}

/// One slot per submitted job: the input is taken exactly once (guarded by
/// the claim cursor) and the report is published back into the same slot, so
/// reports come out in submission order whatever order jobs finish in.
struct JobSlot {
    job: Option<Job>,
    report: Option<JobReport>,
}

/// A long-lived, batched mapping front end with a bounded number of jobs in
/// flight (see the module docs).
///
/// Create one service per process (or per tenant) and feed it batches; the
/// shared NPN store warms monotonically across batches, so repeated traffic
/// gets faster without ever changing a single output byte.
#[derive(Debug)]
pub struct MappingService {
    npn: Arc<SharedNpnCache>,
    prepared: PreparedFlowCache,
    max_in_flight: usize,
    jobs_succeeded: AtomicUsize,
    jobs_failed: AtomicUsize,
}

impl Default for MappingService {
    fn default() -> Self {
        MappingService::new()
    }
}

impl MappingService {
    /// Creates a service with an empty shared NPN store and at most
    /// [`WorkerPool::global`]`().workers()` jobs in flight — the same budget
    /// every fan-out of a flow is sized by.
    pub fn new() -> Self {
        MappingService {
            npn: Arc::new(SharedNpnCache::new()),
            prepared: PreparedFlowCache::new(PreparedFlowCache::DEFAULT_CAPACITY_BYTES),
            max_in_flight: WorkerPool::global().workers(),
            jobs_succeeded: AtomicUsize::new(0),
            jobs_failed: AtomicUsize::new(0),
        }
    }

    /// Returns the same service with at most `cap` jobs in flight at once
    /// (floored at 1). `1` serialises job execution in submission order —
    /// outputs are identical at every cap; only scheduling changes.
    pub fn with_max_in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = cap.max(1);
        self
    }

    /// Returns the same service with a warm-start cache of `bytes` capacity
    /// (estimated artifact bytes; the default is
    /// [`PreparedFlowCache::DEFAULT_CAPACITY_BYTES`]). `0` disables warm
    /// starts entirely — every job prepares cold. Outputs are identical at
    /// every capacity; only throughput changes.
    pub fn with_prepared_capacity(mut self, bytes: usize) -> Self {
        self.prepared = PreparedFlowCache::new(bytes);
        self
    }

    /// Cumulative service telemetry.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            jobs_succeeded: self.jobs_succeeded.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            shared_npn_classes: self.npn.classes(),
            shared_npn_hits: self.npn.hits(),
            shared_npn_misses: self.npn.misses(),
            prepared_entries: self.prepared.entries(),
            prepared_bytes: self.prepared.bytes(),
            prepared_hits: self.prepared.hits(),
            prepared_misses: self.prepared.misses(),
            prepared_evictions: self.prepared.evictions(),
        }
    }

    /// Runs one job to completion on the calling thread (its internal phases
    /// still fan out per `config.threads`). Equivalent to a one-job batch.
    pub fn run(&self, job: Job) -> JobReport {
        self.run_job(job)
    }

    /// Runs a batch of jobs and returns one [`JobReport`] per job, in
    /// submission order.
    ///
    /// At most the in-flight cap of coordinator threads (the calling thread
    /// is one) claim jobs largest first, by input gate count with ties in
    /// submission order, and drive their flows' phases.
    /// Each job's outcome is independent: a panic or budget breach in one job
    /// is contained to that job's report.
    ///
    /// Called from inside a fan-out job (nested submission), the batch runs
    /// serially inline via the [`WorkerPool::is_worker`] recursion guard,
    /// with identical results.
    pub fn run_batch(&self, jobs: Vec<Job>) -> Vec<JobReport> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let in_flight = self.max_in_flight.min(n);
        if in_flight <= 1 || WorkerPool::is_worker() {
            // Serial fallback: submission order, same thread — used for the
            // one-job / capped-to-one cases and for nested submission from a
            // fan-out job (see the module docs).
            return jobs.into_iter().map(|job| self.run_job(job)).collect();
        }

        // Coordinators claim the largest unclaimed job first (by input gate
        // count, ties in submission order), so that the batch does not end
        // on a big job running alone.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_cached_key(|&i| std::cmp::Reverse(jobs[i].network.gate_count()));
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<JobSlot>> = jobs
            .into_iter()
            .map(|job| {
                Mutex::new(JobSlot {
                    job: Some(job),
                    report: None,
                })
            })
            .collect();
        std::thread::scope(|scope| {
            // The calling thread is one coordinator; spawn the rest. Each
            // coordinator claims jobs in `order` off the shared cursor until
            // the batch is drained, so small jobs backfill finished
            // coordinators.
            for _ in 1..in_flight {
                scope.spawn(|| self.drain(&cursor, &order, &slots));
            }
            self.drain(&cursor, &order, &slots);
        });
        slots
            .into_iter()
            .map(|slot| {
                let JobSlot { job, report } = slot
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner);
                // Every claimed slot gets a report (run_job contains all job
                // panics); this fallback only guards slot-level poisoning.
                report.unwrap_or_else(|| JobReport {
                    name: job.map(|j| j.name).unwrap_or_default(),
                    outcome: Err(FlowError::WorkerPanic {
                        message: "job coordinator died before publishing a report".to_string(),
                    }),
                    seconds: 0.0,
                })
            })
            .collect()
    }

    /// Coordinator loop: claim the next unclaimed job in `order`, run it,
    /// publish its report into its submission slot.
    fn drain(&self, cursor: &AtomicUsize, order: &[usize], slots: &[Mutex<JobSlot>]) {
        loop {
            let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                return;
            };
            let slot = &slots[i];
            let job = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .job
                .take();
            let Some(job) = job else { continue };
            let report = self.run_job(job);
            slot.lock().unwrap_or_else(PoisonError::into_inner).report = Some(report);
        }
    }

    /// Runs one job with full containment: every panic — from the job's own
    /// phases, its fan-out jobs, or the service failpoints — becomes this
    /// job's [`FlowError::WorkerPanic`].
    fn run_job(&self, job: Job) -> JobReport {
        let start = Instant::now();
        let Job {
            name,
            network,
            kind,
            config,
            budget,
        } = job;
        let budget = budget.unwrap_or_else(FlowBudget::unlimited);
        let outcome = contain(|| mch_logic::failpoint!("service::submit"))
            .and_then(|()| self.run_flow(&name, &network, &kind, &config, &budget))
            .and_then(|out| {
                contain(|| mch_logic::failpoint!("service::job_boundary")).map(|()| out)
            });
        let counter = if outcome.is_ok() {
            &self.jobs_succeeded
        } else {
            &self.jobs_failed
        };
        counter.fetch_add(1, Ordering::Relaxed);
        JobReport {
            name,
            outcome,
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Dispatches one flow (or a sweep of flows) over the service-owned
    /// shared state. For a sweep the variants run serially on this job's
    /// coordinator, in variant order — the warm-start cache turns the
    /// variants after the first into re-solves of the prepared artifact; each
    /// variant's outcome (including containment of its own panics) is
    /// recorded in its own [`JobReport`].
    fn run_flow(
        &self,
        name: &str,
        network: &Network,
        kind: &JobKind,
        config: &MchConfig,
        budget: &FlowBudget,
    ) -> Result<JobOutput, FlowError> {
        let shared = FlowShared {
            npn: Some(&self.npn),
            prepared: self.prepared.is_enabled().then_some(&self.prepared),
        };
        match kind {
            JobKind::AsicMch(library) => {
                asic_flow_mch_shared(network, library, config, budget, shared).map(JobOutput::Asic)
            }
            JobKind::LutMch(lut) => {
                lut_flow_mch_shared(network, lut, None, config, budget, shared).map(JobOutput::Lut)
            }
            JobKind::LutFusedMch(lut, library) => {
                lut_flow_mch_shared(network, lut, Some(library), config, budget, shared)
                    .map(JobOutput::Lut)
            }
            JobKind::Sweep(base, variants) => {
                if matches!(**base, JobKind::Sweep(..)) {
                    return Err(FlowError::InvalidJob {
                        reason: "sweeps cannot nest".to_string(),
                    });
                }
                if variants.is_empty() {
                    return Err(FlowError::InvalidJob {
                        reason: "sweep has no variant configs".to_string(),
                    });
                }
                let mut reports = Vec::with_capacity(variants.len());
                for (i, variant) in variants.iter().enumerate() {
                    let variant_start = Instant::now();
                    let variant_name = format!("{name}#{i}");
                    let outcome = self.run_flow(&variant_name, network, base, variant, budget);
                    reports.push(JobReport {
                        name: variant_name,
                        outcome,
                        seconds: variant_start.elapsed().as_secs_f64(),
                    });
                }
                Ok(JobOutput::Sweep(reports))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_benchmarks::demo_adder_gt;
    use mch_techlib::asap7_lite;

    fn lut_job(name: &str, threads: usize) -> Job {
        Job::lut(
            name,
            demo_adder_gt(),
            LutLibrary::k6(),
            MchConfig::lut_area().with_threads(threads),
        )
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let service = MappingService::new();
        assert!(service.run_batch(Vec::new()).is_empty());
        assert_eq!(service.stats(), ServiceStats::default());
    }

    #[test]
    fn reports_come_back_in_submission_order() {
        let service = MappingService::new().with_max_in_flight(4);
        let jobs: Vec<Job> = (0..4).map(|i| lut_job(&format!("job-{i}"), 2)).collect();
        let reports = service.run_batch(jobs);
        let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["job-0", "job-1", "job-2", "job-3"]);
        for r in &reports {
            let out = r.outcome.as_ref().expect("job failed");
            assert!(out.verified());
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_succeeded, 4);
        assert_eq!(stats.jobs_failed, 0);
        assert!(stats.shared_npn_classes > 0);
    }

    #[test]
    fn asic_and_lut_jobs_mix_in_one_batch() {
        let service = MappingService::new();
        let reports = service.run_batch(vec![
            Job::asic(
                "asic",
                demo_adder_gt(),
                asap7_lite(),
                MchConfig::balanced().with_threads(2),
            ),
            lut_job("lut", 2),
        ]);
        assert!(reports[0].outcome.as_ref().expect("asic").as_asic().is_some());
        assert!(reports[1].outcome.as_ref().expect("lut").as_lut().is_some());
    }

    #[test]
    fn sweep_variants_match_cold_solo_runs_and_warm_hit() {
        let service = MappingService::new();
        let variants = vec![
            MchConfig::lut_area().with_threads(1),
            MchConfig::lut_area().with_threads(1).with_area_rounds(4),
            MchConfig::lut_area().with_threads(1).with_exact_area(true),
        ];
        let report = service.run(Job::sweep(
            "sweep",
            demo_adder_gt(),
            JobKind::LutMch(LutLibrary::k6()),
            variants.clone(),
        ));
        let out = report.outcome.expect("sweep job failed");
        let reports = out.as_sweep().expect("sweep output");
        assert_eq!(reports.len(), variants.len());
        assert!(out.verified());
        assert!(out.degradation().steps.is_empty());
        let cold = MappingService::new().with_prepared_capacity(0);
        for (i, (variant_report, cfg)) in reports.iter().zip(&variants).enumerate() {
            assert_eq!(variant_report.name, format!("sweep#{i}"));
            let warm = variant_report
                .outcome
                .as_ref()
                .expect("variant failed")
                .as_lut()
                .expect("lut result")
                .clone();
            let solo = cold
                .run(Job::lut("solo", demo_adder_gt(), LutLibrary::k6(), cfg.clone()))
                .outcome
                .expect("solo failed");
            assert_eq!(warm.netlist, solo.as_lut().expect("lut result").netlist);
        }
        let stats = service.stats();
        assert!(
            stats.prepared_hits >= variants.len() - 1,
            "later variants must warm-hit: {stats:?}"
        );
        assert_eq!(cold.stats().prepared_entries, 0);
    }

    #[test]
    fn malformed_sweeps_fail_with_invalid_job() {
        let service = MappingService::new();
        let empty = service.run(Job::sweep(
            "empty",
            demo_adder_gt(),
            JobKind::LutMch(LutLibrary::k6()),
            Vec::new(),
        ));
        assert!(matches!(empty.outcome, Err(FlowError::InvalidJob { .. })));
        let nested_kind = JobKind::Sweep(
            Box::new(JobKind::LutMch(LutLibrary::k6())),
            vec![MchConfig::lut_area()],
        );
        let nested = service.run(Job::sweep(
            "nested",
            demo_adder_gt(),
            nested_kind,
            vec![MchConfig::lut_area()],
        ));
        assert!(matches!(nested.outcome, Err(FlowError::InvalidJob { .. })));
        assert_eq!(service.stats().jobs_failed, 2);
    }

    #[test]
    fn invalid_job_fails_alone() {
        let service = MappingService::new();
        let empty = Network::new(mch_logic::NetworkKind::Aig);
        let reports = service.run_batch(vec![
            lut_job("good", 1),
            Job::lut(
                "bad",
                empty,
                LutLibrary::k6(),
                MchConfig::lut_area().with_threads(1),
            ),
        ]);
        assert!(reports[0].outcome.is_ok());
        assert!(matches!(
            reports[1].outcome,
            Err(FlowError::InvalidNetwork { .. })
        ));
        let stats = service.stats();
        assert_eq!((stats.jobs_succeeded, stats.jobs_failed), (1, 1));
    }
}
