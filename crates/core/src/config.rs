//! Flow configurations matching the paper's experiment columns.

use mch_choice::MchParams;
use mch_cut::CutCost;
use mch_logic::NetworkKind;
use mch_mapper::{FusionMode, MappingObjective};

/// Configuration of an MCH-based mapping flow.
///
/// The three constructors correspond to the three MCH columns of Table I:
/// balanced (choices from the input AIG only), delay-oriented (AIG + XAG
/// choices, widened critical region) and area-oriented (AIG + XMG choices).
#[derive(Clone, Debug)]
pub struct MchConfig {
    /// Human-readable flow name used in reports.
    pub name: String,
    /// The mapping objective handed to the mapper.
    pub objective: MappingObjective,
    /// How enumerated cuts are ranked before the per-node cut limit truncates
    /// them: depth-first, area-first, hybrid, or the static structural order
    /// (see [`CutCost`]). The presets pick the ranking that matches their
    /// objective; override it to study the ranking in isolation.
    pub cut_ranking: CutCost,
    /// Parameters of the MCH construction (Algorithm 1).
    ///
    /// Flows ignore `mch.threads` and substitute [`threads`](MchConfig::threads)
    /// before building choices; it only matters when this field is passed to
    /// [`mch_choice::build_mch`] directly.
    pub mch: MchParams,
    /// Whether the flow additionally mixes whole graph-mapped views of the
    /// design (one per secondary representation) into the choice network, in
    /// addition to the per-node candidates of Algorithm 2.
    pub mix_optimized_snapshots: bool,
    /// Override for the mapper's area-recovery round count (`None` keeps the
    /// mapper default: 2 for ASIC, 3 for LUT). Extra rounds are cheap now
    /// that the covering engine memoises per-node selections — see
    /// `docs/PERFORMANCE.md`.
    pub area_rounds: Option<usize>,
    /// Run the covering engine's exact-area re-selection pass after the
    /// area-flow rounds. Off in every preset: it changes covers, and the
    /// preset quality numbers are pinned.
    pub exact_area: bool,
    /// Threads used throughout the flow: the cut enumeration inside choice
    /// construction (see [`MchParams::threads`]) and the mapper's
    /// level-parallel cut enumeration and choice transfer (see
    /// [`mch_cut::enumerate_cuts_threaded`]). It does not reach the snapshot
    /// views, which come from one serial cover and one serial link sweep
    /// (see [`mch_opt::graph_map_all`]). `1` runs fully serial;
    /// every value produces identical mapping results. A phase never runs on
    /// more than [`mch_cut::WorkerPool::global`]`().workers() + 1` threads,
    /// whatever this asks for. The presets default to
    /// [`mch_cut::default_threads`] (the host's core count, overridable
    /// through the `MCH_THREADS` environment variable). This field is
    /// authoritative: flows copy it over [`MchParams::threads`] before
    /// building choices, so setting it (directly or via
    /// [`with_threads`](MchConfig::with_threads), which also syncs
    /// `mch.threads` for direct `build_mch` use) controls every phase.
    pub threads: usize,
    /// Cross-mapper fusion mode for LUT flows (see [`mch_mapper::fusion`]):
    /// an ASIC guide cover's selected cones are injected into / bias the LUT
    /// cover. Off in every preset except [`lut_fusion`](MchConfig::lut_fusion)
    /// — fusion changes covers, and the preset quality numbers are pinned.
    /// Only honoured by the fused LUT flow — `try_lut_flow_mch_fused` and
    /// [`JobKind::LutFusedMch`](crate::JobKind::LutFusedMch) jobs — which
    /// carries the cell library of the ASIC guide cover; the ASIC flows and
    /// the plain LUT flows (`try_lut_flow_mch*`, `JobKind::LutMch`) ignore it.
    pub fusion: FusionMode,
}

impl MchConfig {
    /// The balanced flow of Table I ("MCH balanced").
    pub fn balanced() -> Self {
        MchConfig {
            name: "MCH balanced".into(),
            objective: MappingObjective::Balanced,
            cut_ranking: MappingObjective::Balanced.default_ranking(),
            mch: MchParams::balanced(),
            mix_optimized_snapshots: true,
            area_rounds: None,
            exact_area: false,
            threads: mch_cut::default_threads(),
            fusion: FusionMode::Off,
        }
    }

    /// The delay-oriented flow of Table I ("MCH Delay-oriented").
    pub fn delay_oriented() -> Self {
        MchConfig {
            name: "MCH Delay-oriented".into(),
            objective: MappingObjective::Delay,
            cut_ranking: MappingObjective::Delay.default_ranking(),
            mch: MchParams::delay_oriented(),
            mix_optimized_snapshots: true,
            area_rounds: None,
            exact_area: false,
            threads: mch_cut::default_threads(),
            fusion: FusionMode::Off,
        }
    }

    /// The area-oriented flow of Table I ("MCH Area-oriented").
    pub fn area_oriented() -> Self {
        MchConfig {
            name: "MCH Area-oriented".into(),
            objective: MappingObjective::Area,
            cut_ranking: MappingObjective::Area.default_ranking(),
            mch: MchParams::area_oriented(),
            mix_optimized_snapshots: true,
            area_rounds: None,
            exact_area: false,
            threads: mch_cut::default_threads(),
            fusion: FusionMode::Off,
        }
    }

    /// Returns the same configuration with an explicit worker-thread count
    /// for the cut enumeration inside choice construction and the mapper's
    /// level-parallel cut enumeration and choice transfer.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.mch.threads = self.threads;
        self
    }

    /// Returns the same configuration with an explicit area-recovery round
    /// count (extra rounds are cheap — the covering engine memoises per-node
    /// selections across rounds).
    pub fn with_area_rounds(mut self, rounds: usize) -> Self {
        self.area_rounds = Some(rounds);
        self
    }

    /// Returns the same configuration with the covering engine's exact-area
    /// final pass toggled.
    pub fn with_exact_area(mut self, exact: bool) -> Self {
        self.exact_area = exact;
        self
    }

    /// The FPGA flow of Table II: area-focused 6-LUT mapping over AIG + XMG
    /// mixed choices, with no pre- or post-mapping optimization.
    pub fn lut_area() -> Self {
        MchConfig {
            name: "MCH 6-LUT area".into(),
            objective: MappingObjective::Area,
            cut_ranking: MappingObjective::Area.default_ranking(),
            mch: MchParams::mixed(&[NetworkKind::Xmg]),
            mix_optimized_snapshots: true,
            area_rounds: None,
            exact_area: false,
            threads: mch_cut::default_threads(),
            fusion: FusionMode::Off,
        }
    }

    /// The cross-mapper fusion flow: [`lut_area`](MchConfig::lut_area) with
    /// the full ASIC-guided fusion pipeline enabled (cone injection + ranking
    /// bias — see [`mch_mapper::fusion`]). Use with the fused LUT entry
    /// points, which take the cell library driving the guide pass.
    pub fn lut_fusion() -> Self {
        MchConfig {
            name: "MCH 6-LUT fusion".into(),
            fusion: FusionMode::Full,
            ..MchConfig::lut_area()
        }
    }

    /// Returns the same configuration with an explicit cross-mapper fusion
    /// mode (see [`mch_mapper::fusion`]; only honoured by the fused LUT flow
    /// entry points).
    pub fn with_fusion(mut self, fusion: FusionMode) -> Self {
        self.fusion = fusion;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_use_expected_objectives() {
        assert_eq!(MchConfig::balanced().objective, MappingObjective::Balanced);
        assert_eq!(MchConfig::delay_oriented().objective, MappingObjective::Delay);
        assert_eq!(MchConfig::area_oriented().objective, MappingObjective::Area);
        assert_eq!(MchConfig::lut_area().objective, MappingObjective::Area);
    }

    #[test]
    fn delay_preset_mixes_xag_and_area_preset_mixes_xmg() {
        assert!(MchConfig::delay_oriented()
            .mch
            .secondary
            .contains(&NetworkKind::Xag));
        assert!(MchConfig::area_oriented()
            .mch
            .secondary
            .contains(&NetworkKind::Xmg));
        assert!(MchConfig::balanced().mch.secondary.is_empty());
    }
}
