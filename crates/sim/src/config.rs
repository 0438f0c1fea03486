//! Experiment and system configuration for the full-system simulator.

use srs_attack::AttackSpec;
use srs_core::{DefenseKind, MitigationConfig};
use srs_cpu::CoreConfig;
use srs_dram::DramConfig;
use srs_trackers::TrackerKind;

use crate::faults::FaultsConfig;
use crate::telemetry::TelemetryConfig;

/// Configuration of one simulation run.
///
/// The defaults reproduce Table III, but `scale_for_speed` provides the
/// scaled-down variant the benchmark harness uses so that a full sweep over
/// 78 workloads and several defenses finishes in minutes instead of the
/// paper's 15 CPU-hours: fewer instructions per core and a shorter refresh
/// window (so that window-boundary behaviour such as lazy place-back is
/// still exercised).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// DRAM geometry and timing.
    pub dram: DramConfig,
    /// Core model configuration (shared by all cores).
    pub core: CoreConfig,
    /// Number of cores (Table III uses 8).
    pub cores: usize,
    /// Row Hammer threshold to defend against.
    pub t_rh: u64,
    /// The defense to instantiate.
    pub defense: DefenseKind,
    /// Swap rate override; `None` uses the defense's default (6 for RRS/SRS,
    /// 3 for Scale-SRS).
    pub swap_rate: Option<u64>,
    /// The aggressor tracker to use.
    pub tracker: TrackerKind,
    /// Number of trace records generated per core.
    pub trace_records_per_core: usize,
    /// Seed for workload generation and defense randomness.
    pub seed: u64,
    /// Hard cap on simulated time, in nanoseconds.
    pub max_sim_ns: u64,
    /// Latency of an access served from the LLC (pinned rows), in ns.
    pub llc_hit_latency_ns: u64,
    /// Adversarial scenario: when set, the system adds the specified
    /// closed-loop attacker cores next to the victim trace cores and
    /// collects security metrics ([`crate::security::SecurityReport`]).
    pub attack: Option<AttackSpec>,
    /// Simulated-time telemetry configuration. Disarmed by default; arming
    /// it never changes simulation results (the report rides on
    /// [`crate::metrics::SimResult`] outside its JSON encoding — see
    /// [`crate::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Fault-injection configuration: DRAM bit flips from over-threshold
    /// disturbance, decoded under an ECC model. Disabled by default, and
    /// only active on runs that carry an attack scenario — see
    /// [`crate::faults`].
    pub faults: FaultsConfig,
}

impl SystemConfig {
    /// The paper's full-size configuration for a given defense and `TRH`.
    #[must_use]
    pub fn paper_default(defense: DefenseKind, t_rh: u64) -> Self {
        Self {
            dram: DramConfig::default(),
            core: CoreConfig::default(),
            cores: 8,
            t_rh,
            defense,
            swap_rate: None,
            tracker: TrackerKind::MisraGries,
            trace_records_per_core: 2_000_000,
            seed: 0xC0DE,
            max_sim_ns: 500_000_000,
            llc_hit_latency_ns: 20,
            attack: None,
            telemetry: TelemetryConfig::default(),
            faults: FaultsConfig::default(),
        }
    }

    /// A scaled-down configuration suitable for tests and for the default
    /// (quick) benchmark mode: 4 cores, a 2 ms refresh window and a few tens
    /// of thousands of memory operations per core.
    #[must_use]
    pub fn scaled_for_speed(defense: DefenseKind, t_rh: u64) -> Self {
        let mut config = Self::paper_default(defense, t_rh);
        config.cores = 4;
        config.core.target_instructions = 120_000;
        config.trace_records_per_core = 30_000;
        config.dram.refresh_window_ns = 2_000_000;
        config.max_sim_ns = 40_000_000;
        config
    }

    /// The effective swap rate of this configuration.
    #[must_use]
    pub fn effective_swap_rate(&self) -> u64 {
        self.swap_rate.unwrap_or_else(|| self.defense.default_swap_rate()).max(1)
    }

    /// The mitigation configuration implied by this system configuration.
    #[must_use]
    pub fn mitigation_config(&self) -> MitigationConfig {
        let mut m = MitigationConfig::for_system(&self.dram, self.t_rh, self.effective_swap_rate());
        m.rng_seed = self.seed ^ 0x517e;
        m.refresh_window_ns = self.dram.refresh_window_ns;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_iii() {
        let c = SystemConfig::paper_default(DefenseKind::ScaleSrs, 1200);
        assert_eq!(c.cores, 8);
        assert_eq!(c.dram.banks_per_rank, 16);
        assert_eq!(c.effective_swap_rate(), 3);
        assert_eq!(c.mitigation_config().swap_threshold(), 400);
    }

    #[test]
    fn swap_rate_override_wins() {
        let mut c = SystemConfig::paper_default(DefenseKind::Rrs { immediate_unswap: true }, 4800);
        assert_eq!(c.effective_swap_rate(), 6);
        c.swap_rate = Some(8);
        assert_eq!(c.effective_swap_rate(), 8);
    }

    #[test]
    fn scaled_config_is_smaller() {
        let full = SystemConfig::paper_default(DefenseKind::Srs, 2400);
        let quick = SystemConfig::scaled_for_speed(DefenseKind::Srs, 2400);
        assert!(quick.core.target_instructions < full.core.target_instructions);
        assert!(quick.dram.refresh_window_ns < full.dram.refresh_window_ns);
    }
}
