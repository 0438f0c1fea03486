//! Configuration shared by all row-swap defenses.

use srs_dram::DramConfig;

/// Configuration of a row-swap defense instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationConfig {
    /// The Row Hammer threshold `TRH` being defended against.
    pub t_rh: u64,
    /// The swap rate `TRH / TS`; a swap fires every `TS = TRH / swap_rate`
    /// activations of a row.
    pub swap_rate: u64,
    /// Number of global banks in the system.
    pub banks: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Maximum activations a bank can perform in one refresh window
    /// (`ACT_max`), which sizes the Row Indirection Table.
    pub act_max_per_window: u64,
    /// Length of a refresh window in nanoseconds (64 ms for DDR4).
    pub refresh_window_ns: u64,
    /// Latency of a swap operation, `tswap`.
    pub swap_latency_ns: u64,
    /// Latency of an unswap-swap operation, `treswap`.
    pub reswap_latency_ns: u64,
    /// Latency of one lazy place-back step.
    pub placeback_latency_ns: u64,
    /// Latency of a read-modify-write of a swap-tracking counter row.
    pub counter_access_latency_ns: u64,
    /// Deterministic seed for the random swap-partner selection.
    pub rng_seed: u64,
    /// Number of swaps of a single location within an epoch at which
    /// Scale-SRS declares an outlier and pins the row in the LLC.
    pub outlier_swap_count: u64,
}

impl MitigationConfig {
    /// Build a configuration for a given `TRH` and swap rate on top of a
    /// DRAM configuration (Table III by default).
    #[must_use]
    pub fn for_system(dram: &DramConfig, t_rh: u64, swap_rate: u64) -> Self {
        Self {
            t_rh,
            swap_rate: swap_rate.max(1),
            banks: dram.total_banks(),
            rows_per_bank: dram.rows_per_bank,
            act_max_per_window: dram.max_activations_per_window(),
            refresh_window_ns: dram.refresh_window_ns,
            swap_latency_ns: dram.swap_latency_ns(),
            reswap_latency_ns: dram.reswap_latency_ns(),
            placeback_latency_ns: dram.swap_latency_ns(),
            counter_access_latency_ns: dram.timing.t_rc + dram.timing.t_cas,
            rng_seed: 0x5c5c_5c5c,
            outlier_swap_count: 3,
        }
    }

    /// The paper's default configuration for a given `TRH` and swap rate.
    #[must_use]
    pub fn paper_default(t_rh: u64, swap_rate: u64) -> Self {
        Self::for_system(&DramConfig::default(), t_rh, swap_rate)
    }

    /// The swap threshold `TS = TRH / swap_rate`.
    #[must_use]
    pub fn swap_threshold(&self) -> u64 {
        (self.t_rh / self.swap_rate.max(1)).max(1)
    }

    /// Maximum number of swaps a single bank can trigger in one refresh
    /// window (`ACT_max / TS`), which bounds the number of live RIT entries.
    #[must_use]
    pub fn max_swaps_per_window(&self) -> u64 {
        self.act_max_per_window / self.swap_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_thresholds() {
        let c = MitigationConfig::paper_default(4800, 6);
        assert_eq!(c.swap_threshold(), 800);
        assert_eq!(c.banks, 32);
        assert_eq!(c.rows_per_bank, 128 * 1024);
        // Roughly 1700 swaps per bank per window at TS = 800.
        assert!(c.max_swaps_per_window() > 1_500 && c.max_swaps_per_window() < 1_800);
    }

    #[test]
    fn scale_srs_uses_larger_ts() {
        let rrs = MitigationConfig::paper_default(1200, 6);
        let scale = MitigationConfig::paper_default(1200, 3);
        assert_eq!(rrs.swap_threshold(), 200);
        assert_eq!(scale.swap_threshold(), 400);
        assert!(scale.max_swaps_per_window() < rrs.max_swaps_per_window());
    }

    #[test]
    fn zero_swap_rate_is_clamped() {
        let c = MitigationConfig::paper_default(4800, 0);
        assert_eq!(c.swap_rate, 1);
        assert_eq!(c.swap_threshold(), 4800);
    }
}
