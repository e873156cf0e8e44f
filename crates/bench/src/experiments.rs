//! The experiment implementations (one function per table / figure).

use mch_benchmarks::{benchmark, demo_adder_gt, epfl_suite, Benchmark};
use mch_choice::{build_mch, build_mch_with_stats, MchParams};
use mch_core::{
    asic_flow_baseline, asic_flow_dch, asic_flow_mch, geometric_mean, improvement_percent,
    lut_flow_baseline, lut_flow_mch, prepare_input, MchConfig,
};
use mch_logic::{convert, Network, NetworkKind};
use mch_mapper::{map_asic, map_lut, AsicMapParams, LutMapParams, MappingObjective};
use mch_opt::{compress2rs_like, iterate_graph_map, iterate_graph_map_mch};
use mch_techlib::{asap7_lite, LutLibrary};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Figure 1: mapping the "Max" circuit in each representation.
// ---------------------------------------------------------------------------

/// One row of Figure 1: the mapped area/delay of one representation.
#[derive(Clone, Debug)]
pub struct Fig1Row {
    /// The logic representation.
    pub representation: NetworkKind,
    /// Gate count of the representation.
    pub nodes: usize,
    /// Logic depth of the representation.
    pub levels: u32,
    /// Area of the delay-oriented mapping (µm²).
    pub delay_oriented_area: f64,
    /// Delay of the delay-oriented mapping (ps).
    pub delay_oriented_delay: f64,
    /// Area of the area-oriented mapping (µm²).
    pub area_oriented_area: f64,
    /// Delay of the area-oriented mapping (ps).
    pub area_oriented_delay: f64,
}

/// Reproduces Figure 1: the "Max" circuit converted into AIG, XAG, MIG and
/// XMG, each mapped with the delay- and area-oriented ASIC mapper.
pub fn run_fig1() -> Vec<Fig1Row> {
    let library = asap7_lite();
    let max = benchmark("max").expect("max benchmark exists");
    NetworkKind::homogeneous()
        .into_iter()
        .map(|kind| {
            let net = convert(&max, kind);
            let delay_map = map_asic(
                &mch_choice::ChoiceNetwork::from_network(&net),
                &library,
                &AsicMapParams::new(MappingObjective::Delay),
            );
            let area_map = map_asic(
                &mch_choice::ChoiceNetwork::from_network(&net),
                &library,
                &AsicMapParams::new(MappingObjective::Area),
            );
            Fig1Row {
                representation: kind,
                nodes: net.gate_count(),
                levels: net.depth(),
                delay_oriented_area: delay_map.area(&library),
                delay_oriented_delay: delay_map.delay(&library),
                area_oriented_area: area_map.area(&library),
                area_oriented_delay: area_map.delay(&library),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 2: the (a+b) > 0 demo through the three flows.
// ---------------------------------------------------------------------------

/// One flow of the Figure 2 comparison.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Flow name.
    pub flow: String,
    /// Subject-graph nodes seen by the mapper.
    pub nodes: usize,
    /// Number of choice nodes in the subject graph.
    pub choices: usize,
    /// Subject-graph depth.
    pub levels: u32,
    /// Mapped area (µm²).
    pub area: f64,
    /// Mapped delay (ps).
    pub delay: f64,
}

/// The full Figure 2 report.
#[derive(Clone, Debug)]
pub struct Fig2Report {
    /// The original AIG statistics (nodes, levels).
    pub original_nodes: usize,
    /// Depth of the original AIG.
    pub original_levels: u32,
    /// One row per flow (traditional, DCH, MCH).
    pub rows: Vec<Fig2Row>,
}

/// Reproduces Figure 2: the `(a+b) > 0` demo mapped through the traditional
/// flow (technology-independent optimization + mapping), the DCH flow and the
/// MCH flow.
pub fn run_fig2() -> Fig2Report {
    let library = asap7_lite();
    let demo = demo_adder_gt();
    let optimized = compress2rs_like(&demo, 3);

    let mut rows = Vec::new();

    // Traditional flow: optimize, then map without choices.
    let base = asic_flow_baseline(&optimized, &library, MappingObjective::Balanced);
    rows.push(Fig2Row {
        flow: "traditional (opt + map)".into(),
        nodes: optimized.gate_count(),
        choices: 0,
        levels: optimized.depth(),
        area: base.area,
        delay: base.delay,
    });

    // DCH flow.
    let dch = asic_flow_dch(&optimized, &library, MappingObjective::Balanced);
    rows.push(Fig2Row {
        flow: "DCH for technology map".into(),
        nodes: optimized.gate_count(),
        choices: 1,
        levels: optimized.depth(),
        area: dch.area,
        delay: dch.delay,
    });

    // MCH flow (balanced), reporting the real choice count of the mixed network.
    let (mch_net, stats) = build_mch_with_stats(&optimized, &MchConfig::balanced().mch);
    let mch = asic_flow_mch(&optimized, &library, &MchConfig::balanced());
    rows.push(Fig2Row {
        flow: "MCH for technology map".into(),
        nodes: mch_net.network().gate_count(),
        choices: stats.total(),
        levels: mch_net.network().depth(),
        area: mch.area,
        delay: mch.delay,
    });

    Fig2Report {
        original_nodes: demo.gate_count(),
        original_levels: demo.depth(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table I: ASIC technology mapping across six flows.
// ---------------------------------------------------------------------------

/// One benchmark row of Table I: (area, delay, seconds) per flow, in the
/// paper's column order.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Metrics per flow, in the order returned by [`table1_flow_names`].
    pub flows: Vec<(f64, f64, f64)>,
}

/// The flow names (column headers) of Table I.
pub fn table1_flow_names() -> [&'static str; 6] {
    [
        "&nf",
        "&dch -m; &nf",
        "dch; map -a",
        "MCH balanced",
        "MCH Delay-oriented",
        "MCH Area-oriented",
    ]
}

/// Runs the Table-I experiment on the given benchmarks (pass
/// [`mch_benchmarks::epfl_suite`] for the full table).
pub fn run_table1(suite: &[Benchmark]) -> Vec<Table1Row> {
    let library = asap7_lite();
    let mut rows = Vec::new();
    for b in suite {
        let input = prepare_input(&b.network, 2);
        let mut flows = Vec::new();
        // Baseline &nf (balanced).
        let r = asic_flow_baseline(&input, &library, MappingObjective::Balanced);
        flows.push((r.area, r.delay, r.seconds));
        // DCH balanced.
        let r = asic_flow_dch(&input, &library, MappingObjective::Balanced);
        flows.push((r.area, r.delay, r.seconds));
        // DCH area-oriented.
        let r = asic_flow_dch(&input, &library, MappingObjective::Area);
        flows.push((r.area, r.delay, r.seconds));
        // MCH balanced / delay / area.
        for config in [
            MchConfig::balanced(),
            MchConfig::delay_oriented(),
            MchConfig::area_oriented(),
        ] {
            let r = asic_flow_mch(&input, &library, &config);
            flows.push((r.area, r.delay, r.seconds));
        }
        rows.push(Table1Row {
            benchmark: b.name.to_string(),
            flows,
        });
    }
    rows
}

/// Geometric means per flow for a set of Table-I rows: `(area, delay, time)`.
pub fn table1_geomeans(rows: &[Table1Row]) -> Vec<(f64, f64, f64)> {
    let flow_count = rows.first().map_or(0, |r| r.flows.len());
    (0..flow_count)
        .map(|f| {
            let areas: Vec<f64> = rows.iter().map(|r| r.flows[f].0).collect();
            let delays: Vec<f64> = rows.iter().map(|r| r.flows[f].1).collect();
            let times: Vec<f64> = rows.iter().map(|r| r.flows[f].2.max(1e-6)).collect();
            (
                geometric_mean(&areas),
                geometric_mean(&delays),
                geometric_mean(&times),
            )
        })
        .collect()
}

/// Improvements of each flow over the first (baseline) flow, in percent:
/// `(area gain, delay gain)`.
pub fn table1_improvements(geomeans: &[(f64, f64, f64)]) -> Vec<(f64, f64)> {
    let (base_area, base_delay, _) = geomeans[0];
    geomeans
        .iter()
        .map(|&(a, d, _)| {
            (
                improvement_percent(base_area, a),
                improvement_percent(base_delay, d),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table II: the EPFL best-results 6-LUT challenge.
// ---------------------------------------------------------------------------

/// One row of Table II.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Incumbent (best known single-representation) LUT count.
    pub best_luts: usize,
    /// Incumbent LUT levels.
    pub best_levels: u32,
    /// MCH-based mapping LUT count.
    pub mch_luts: usize,
    /// MCH-based mapping LUT levels.
    pub mch_levels: u32,
}

/// The benchmarks reported in Table II of the paper.
pub fn table2_benchmark_names() -> [&'static str; 5] {
    ["sin", "sqrt", "square", "hyp", "voter"]
}

/// Runs the Table-II experiment: for each circuit the incumbent is the
/// area-focused 6-LUT mapping of the optimized AIG (standing in for the
/// published best result; see the README, "Substitutions"), and the
/// challenger is the MCH-based (AIG + XMG) area-focused mapping of the very
/// same network.
pub fn run_table2(names: &[&str]) -> Vec<Table2Row> {
    let lut = LutLibrary::k6();
    names
        .iter()
        .filter_map(|name| {
            let net = benchmark(name)?;
            let optimized = compress2rs_like(&net, 2);
            let incumbent = lut_flow_baseline(&optimized, &lut, MappingObjective::Area);
            let challenger = lut_flow_mch(&optimized, &lut, &MchConfig::lut_area());
            Some(Table2Row {
                benchmark: name.to_string(),
                best_luts: incumbent.luts,
                best_levels: incumbent.levels,
                mch_luts: challenger.luts,
                mch_levels: challenger.levels,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 6: MCH-based graph-mapping optimization.
// ---------------------------------------------------------------------------

/// One point of Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// XMG node improvement of MCH graph mapping over the baseline (%).
    pub graph_node_improvement: f64,
    /// XMG level improvement of MCH graph mapping over the baseline (%).
    pub graph_level_improvement: f64,
    /// 6-LUT count improvement after mapping the optimized networks (%).
    pub lut_node_improvement: f64,
    /// 6-LUT level improvement after mapping the optimized networks (%).
    pub lut_level_improvement: f64,
    /// Runtime of the MCH-based optimization in seconds.
    pub seconds: f64,
}

/// Runs the Figure-6 experiment on the named benchmarks: the baseline iterates
/// plain XMG graph mapping to its local optimum; the MCH series iterates graph
/// mapping over MIG+XMG mixed choice networks; both results are then 6-LUT
/// mapped and compared.
pub fn run_fig6(names: &[&str]) -> Vec<Fig6Row> {
    let lut = LutLibrary::k6();
    let params = MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Xmg]);
    names
        .iter()
        .filter_map(|name| {
            let net = benchmark(name)?;
            let objective = MappingObjective::Area;
            let baseline = iterate_graph_map(&net, NetworkKind::Xmg, objective, 4);
            let start = Instant::now();
            let mch = iterate_graph_map_mch(&net, NetworkKind::Xmg, &params, objective, 4);
            let seconds = start.elapsed().as_secs_f64();

            let base_lut = map_lut(
                &mch_choice::ChoiceNetwork::from_network(&baseline.network),
                &lut,
                &LutMapParams::new(MappingObjective::Area),
            );
            let mch_lut = map_lut(
                &mch_choice::ChoiceNetwork::from_network(&mch.network),
                &lut,
                &LutMapParams::new(MappingObjective::Area),
            );
            Some(Fig6Row {
                benchmark: name.to_string(),
                graph_node_improvement: improvement_percent(
                    baseline.gate_count() as f64,
                    mch.gate_count() as f64,
                ),
                graph_level_improvement: improvement_percent(
                    baseline.depth() as f64,
                    mch.depth() as f64,
                ),
                lut_node_improvement: improvement_percent(
                    base_lut.lut_count() as f64,
                    mch_lut.lut_count() as f64,
                ),
                lut_level_improvement: improvement_percent(
                    base_lut.level_count() as f64,
                    mch_lut.level_count() as f64,
                ),
                seconds,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablations (the three listed in the README, "Substitutions").
// ---------------------------------------------------------------------------

/// Ablation: maps one benchmark with and without choice-cut sharing, returning
/// `(area with sharing, area without sharing)` for the area objective.
pub fn ablation_choice_sharing(network: &Network) -> (f64, f64) {
    let library = asap7_lite();
    let with = asic_flow_mch(network, &library, &MchConfig::area_oriented()).area;
    let without = asic_flow_baseline(network, &library, MappingObjective::Area).area;
    (with, without)
}

/// Ablation: sweeps the critical-path ratio `r` and returns `(r, delay)` pairs
/// for the balanced MCH flow.
pub fn ablation_critical_ratio(network: &Network, ratios: &[f64]) -> Vec<(f64, f64)> {
    let library = asap7_lite();
    ratios
        .iter()
        .map(|&r| {
            let mut config = MchConfig::balanced();
            config.mch.critical_ratio = r;
            let result = asic_flow_mch(network, &library, &config);
            (r, result.delay)
        })
        .collect()
}

/// Ablation: single-representation vs mixed-representation choices, returning
/// `(single area, mixed area)` for area-oriented LUT mapping.
pub fn ablation_mixed_vs_single(network: &Network) -> (usize, usize) {
    let lut = LutLibrary::k6();
    let single = {
        let params = MchParams::mixed(&[NetworkKind::Aig]);
        let choices = build_mch(network, &params);
        map_lut(&choices, &lut, &LutMapParams::new(MappingObjective::Area)).lut_count()
    };
    let mixed = {
        let params = MchParams::mixed(&[NetworkKind::Xmg]);
        let choices = build_mch(network, &params);
        map_lut(&choices, &lut, &LutMapParams::new(MappingObjective::Area)).lut_count()
    };
    (single, mixed)
}

/// Convenience: the benchmarks used for quick experiment runs (small circuits
/// only, so Criterion benches and CI tests stay fast).
pub fn quick_suite() -> Vec<Benchmark> {
    epfl_suite()
        .into_iter()
        .filter(|b| {
            matches!(
                b.name,
                "max" | "adder" | "bar" | "int2float" | "cavlc" | "ctrl" | "router" | "priority"
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shows_representation_dependence() {
        let rows = run_fig1();
        assert_eq!(rows.len(), 4);
        // Not every representation maps to the same area: structural bias exists.
        let areas: Vec<f64> = rows.iter().map(|r| r.area_oriented_area).collect();
        let min = areas.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = areas.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "representations should differ in mapped area");
        for r in &rows {
            assert!(r.delay_oriented_delay <= r.area_oriented_delay + 1e-6, "{:?}", r);
        }
    }

    #[test]
    fn fig2_mch_beats_traditional_flow_on_the_demo() {
        let report = run_fig2();
        assert_eq!(report.rows.len(), 3);
        let traditional = &report.rows[0];
        let mch = &report.rows[2];
        assert!(mch.choices > 0);
        assert!(
            mch.area <= traditional.area + 1e-9 || mch.delay <= traditional.delay + 1e-9,
            "MCH should not lose on both metrics"
        );
    }

    #[test]
    fn table1_runs_on_a_small_subset_with_sane_relations() {
        let suite: Vec<Benchmark> = epfl_suite()
            .into_iter()
            .filter(|b| matches!(b.name, "max" | "int2float" | "ctrl"))
            .collect();
        let rows = run_table1(&suite);
        assert_eq!(rows.len(), 3);
        let geo = table1_geomeans(&rows);
        assert_eq!(geo.len(), 6);
        let improvements = table1_improvements(&geo);
        // MCH area-oriented (last column) should improve area over the baseline.
        assert!(
            improvements[5].0 > -5.0,
            "area-oriented MCH should not regress area substantially: {:?}",
            improvements
        );
        // MCH delay-oriented should improve delay over the baseline.
        assert!(
            improvements[4].1 > -5.0,
            "delay-oriented MCH should not regress delay substantially: {:?}",
            improvements
        );
    }

    #[test]
    fn table2_mch_never_needs_more_luts_than_incumbent_plus_margin() {
        let rows = run_table2(&["sin", "int2float"]);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.mch_luts as f64 <= r.best_luts as f64 * 1.05 + 1.0,
                "{}: {} vs {}",
                r.benchmark,
                r.mch_luts,
                r.best_luts
            );
        }
    }

    #[test]
    fn fig6_improvements_are_bounded() {
        let rows = run_fig6(&["int2float", "ctrl"]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.graph_node_improvement > -25.0, "{:?}", r);
            assert!(r.graph_level_improvement > -25.0, "{:?}", r);
        }
    }

    #[test]
    fn ablations_run() {
        let net = benchmark("int2float").unwrap();
        let (with, without) = ablation_choice_sharing(&net);
        assert!(with > 0.0 && without > 0.0);
        let sweep = ablation_critical_ratio(&net, &[0.5, 0.9]);
        assert_eq!(sweep.len(), 2);
        let (single, mixed) = ablation_mixed_vs_single(&net);
        assert!(single > 0 && mixed > 0);
    }
}
