//! Deterministic chaos suite: seeded fault injection across every failpoint.
//!
//! Compiled only with `--features fault-injection`. Run it at both thread
//! counts (the CI chaos job does):
//!
//! ```sh
//! MCH_THREADS=1 cargo test --features fault-injection --test chaos_fault_injection -- --test-threads=1
//! MCH_THREADS=4 cargo test --features fault-injection --test chaos_fault_injection -- --test-threads=1
//! ```
//!
//! Asserted properties, per the reliability contract (`docs/RELIABILITY.md`):
//! no deadlock (every flow returns), structured errors (`WorkerPanic`
//! carrying the injected payload, never a raw unwind), reusability
//! (pristine flows byte-match after any injected failure), and
//! simulation-equivalent degraded outputs under a breaching budget.
#![cfg(feature = "fault-injection")]

use mch::benchmarks::{benchmark, demo_adder_gt};
use mch::choice::{build_mch, MchParams};
use mch::core::{FlowBudget, FlowError, MchConfig};
use mch::cut::{enumerate_cuts_threaded, CutCost, CutCostModel, CutParams};
use mch::io::write_lut_blif;
use mch::logic::failpoint;
use mch::mapper::{live_nodes, prepare_cuts};
use mch::techlib::LutLibrary;
use std::sync::{Mutex, PoisonError};

/// Serializes chaos tests against each other: the failpoint registry is
/// process-global. (CI additionally runs this binary with
/// `--test-threads=1`; the gate keeps a plain `cargo test` run correct.)
static GATE: Mutex<()> = Mutex::new(());

/// Runs `body` with the registry gate held and the expected injected panics
/// silenced; always disarms afterwards, even if `body` itself panics.
fn with_chaos(body: impl FnOnce()) {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with(failpoint::PANIC_PREFIX));
        if !injected {
            eprintln!("{info}");
        }
    }));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    failpoint::disarm();
    std::panic::set_hook(prev_hook);
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}

/// The thread counts exercised: the `MCH_THREADS` environment override (the
/// CI matrix axis) plus the fixed 1-vs-4 pair.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 4];
    if let Ok(env) = std::env::var("MCH_THREADS") {
        if let Ok(t) = env.parse::<usize>() {
            if !counts.contains(&t) {
                counts.push(t);
            }
        }
    }
    counts
}

fn lut_flow_at(threads: usize) -> Result<String, FlowError> {
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let config = MchConfig::lut_area().with_threads(threads);
    mch::core::try_lut_flow_mch(&net, &lut, &config).map(|r| {
        assert!(r.verified, "a surviving flow must verify");
        write_lut_blif(&r.netlist)
    })
}

/// Every failpoint that aborts in-flow work: firing its first hit must
/// surface as `FlowError::WorkerPanic` with the injected payload — and the
/// very next pristine flow must byte-match an never-faulted baseline.
#[test]
fn aborting_failpoints_yield_structured_errors_and_leave_the_pool_reusable() {
    with_chaos(|| {
        for threads in thread_counts() {
            let baseline = lut_flow_at(threads).expect("pristine flow");
            for site in ["cut::arena_grow", "npn::commit", "engine::round"] {
                failpoint::arm_exact(site, &[0]);
                let outcome = lut_flow_at(threads);
                failpoint::disarm();
                let err = match outcome {
                    Err(err) => err,
                    Ok(_) => panic!("failpoint {site} did not fire at {threads} threads"),
                };
                match &err {
                    FlowError::WorkerPanic { message } => {
                        assert!(
                            message.starts_with(failpoint::PANIC_PREFIX)
                                && message.contains(site),
                            "wrong payload for {site}: {message}"
                        );
                    }
                    other => panic!("expected WorkerPanic for {site}, got {other}"),
                }
                assert_eq!(
                    lut_flow_at(threads).expect("must stay reusable"),
                    baseline,
                    "{site} corrupted the next pristine flow at {threads} threads"
                );
            }
        }
    });
}

/// A fan-out job that panics on dispatch fails its flow with a structured
/// error. Above one thread the job comes from the mapper's level-parallel
/// cut enumeration, the one phase of a flow that fans out: the widest level
/// of `demo_adder_gt`'s mixed choice network holds 22 gates, above the
/// 16-gate shard threshold.
#[test]
fn pool_dispatch_fault_fails_the_flow_not_the_process() {
    with_chaos(|| {
        for threads in thread_counts() {
            let baseline = lut_flow_at(threads).expect("pristine flow");
            failpoint::arm_exact("pool::dispatch", &[0]);
            let outcome = lut_flow_at(threads);
            failpoint::disarm();
            if threads == 1 {
                // The serial path never dispatches fan-out jobs: the failpoint
                // stays cold and the flow must succeed untouched.
                assert_eq!(outcome.expect("serial flow unaffected"), baseline);
            } else {
                let err = outcome.expect_err("a dispatched job panicked");
                match &err {
                    FlowError::WorkerPanic { message } => assert!(
                        message.starts_with(failpoint::PANIC_PREFIX),
                        "wrong payload: {message}"
                    ),
                    other => panic!("expected WorkerPanic, got {other}"),
                }
            }
            // Reusability: the next flow in the same process must come out
            // with identical results.
            assert_eq!(lut_flow_at(threads).expect("reusable"), baseline);
        }
    });
}

/// A seeded density sweep over every failpoint at once: whatever fires, the
/// flow must terminate (no deadlock) with Ok-and-verified or a structured
/// error, and the next pristine flow must come out byte-identical.
#[test]
fn seeded_chaos_sweep_never_deadlocks_or_corrupts() {
    with_chaos(|| {
        for threads in thread_counts() {
            let baseline = lut_flow_at(threads).expect("pristine flow");
            for seed in 0..6 {
                failpoint::arm(seed, 0.02);
                let outcome = lut_flow_at(threads);
                failpoint::disarm();
                if let Err(e) = outcome {
                    assert!(
                        matches!(e, FlowError::WorkerPanic { .. }),
                        "chaos produced a non-panic error: {e}"
                    );
                }
                assert_eq!(
                    lut_flow_at(threads).expect("must recover"),
                    baseline,
                    "seed {seed} at {threads} threads corrupted later flows"
                );
            }
        }
    });
}

/// Budget degradation inside the chaos harness: a breaching budget still
/// produces a simulation-equivalent degraded output, identical across thread
/// counts.
#[test]
fn degraded_flows_stay_equivalent_under_fault_pressure() {
    with_chaos(|| {
        let net = demo_adder_gt();
        let lut = LutLibrary::k6();
        let budget = FlowBudget::unlimited()
            .with_max_cut_arena_slots(net.len() * 2)
            .with_max_resynthesis_candidates(0);
        let mut serializations = Vec::new();
        for threads in thread_counts() {
            let config = MchConfig::lut_area().with_threads(threads);
            let result = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &config, &budget)
                .expect("a degraded flow must not fail");
            assert!(result.degradation.degraded());
            assert!(result.verified, "degraded output must stay equivalent");
            serializations.push(write_lut_blif(&result.netlist));
        }
        for s in &serializations[1..] {
            assert_eq!(s, &serializations[0], "degraded output must be identical");
        }
    });
}

/// Where a flow fans out: choice construction dispatches no pool job, even
/// when its (unread) `threads` field asks for four, and mapper preparation
/// dispatches exactly the jobs of its level-parallel cut enumeration, so the
/// choice transfer after it runs serially.
#[test]
fn only_the_mappers_cut_enumeration_fans_out() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut params = MchParams::area_oriented();
    params.threads = 4;
    let unit = CutCostModel::unit();
    let cut_params = CutParams::new(4, 8).with_cost(CutCost::Hybrid);
    for circuit in ["voter", "i2c", "cavlc", "adder"] {
        let network = benchmark(circuit).expect("suite circuit");
        failpoint::disarm();
        let choice = build_mch(&network, &params);
        assert_eq!(
            failpoint::hit_count("pool::dispatch"),
            0,
            "{circuit}: choice construction dispatched pool jobs"
        );

        failpoint::disarm();
        prepare_cuts(&choice, 4, 8, CutCost::Hybrid, &unit, 4);
        let prepared = failpoint::hit_count("pool::dispatch");

        let live = live_nodes(&choice);
        failpoint::disarm();
        enumerate_cuts_threaded(choice.network(), &cut_params, &unit, 4, Some(&live));
        let enumerated = failpoint::hit_count("pool::dispatch");
        assert!(
            enumerated > 0,
            "{circuit}: the mapper's cut enumeration did not fan out"
        );
        assert_eq!(
            prepared, enumerated,
            "{circuit}: mapper preparation dispatched more than its enumeration"
        );
    }
    failpoint::disarm();
}
