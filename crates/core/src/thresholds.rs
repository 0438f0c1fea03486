//! Row Hammer thresholds across DRAM generations (Table I of the paper).

/// One row of Table I: a DRAM generation and its demonstrated Row Hammer
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdEntry {
    /// Human-readable DRAM generation label.
    pub generation: &'static str,
    /// The demonstrated Row Hammer threshold in activations.
    pub t_rh: u64,
    /// Year the measurement was reported.
    pub year: u32,
}

/// The demonstrated Row Hammer thresholds of Table I, oldest first.
pub const ROW_HAMMER_THRESHOLDS: &[ThresholdEntry] = &[
    ThresholdEntry { generation: "DDR3 (old)", t_rh: 139_000, year: 2014 },
    ThresholdEntry { generation: "DDR3 (new)", t_rh: 22_400, year: 2020 },
    ThresholdEntry { generation: "DDR4 (old)", t_rh: 17_500, year: 2020 },
    ThresholdEntry { generation: "DDR4 (new)", t_rh: 10_000, year: 2020 },
    ThresholdEntry { generation: "LPDDR4 (old)", t_rh: 16_800, year: 2020 },
    ThresholdEntry { generation: "LPDDR4 (new)", t_rh: 4_800, year: 2021 },
];

/// The lowest demonstrated threshold (the paper's default evaluation point
/// for security, 4.8K activations).
#[must_use]
pub fn lowest_demonstrated_threshold() -> u64 {
    ROW_HAMMER_THRESHOLDS.iter().map(|e| e.t_rh).min().unwrap_or(4_800)
}

/// The reduction factor of the threshold between the oldest and newest
/// generations in Table I (about 29x over 8 years).
#[must_use]
pub fn threshold_reduction_factor() -> f64 {
    let max = ROW_HAMMER_THRESHOLDS.iter().map(|e| e.t_rh).max().unwrap_or(1) as f64;
    let min = lowest_demonstrated_threshold() as f64;
    max / min
}

/// The thresholds the paper sweeps in its evaluation (Figures 14-16).
pub const EVALUATED_THRESHOLDS: &[u64] = &[512, 1_200, 2_400, 4_800];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_generations() {
        assert_eq!(ROW_HAMMER_THRESHOLDS.len(), 6);
    }

    #[test]
    fn lowest_is_4800() {
        assert_eq!(lowest_demonstrated_threshold(), 4_800);
    }

    #[test]
    fn reduction_factor_is_about_29x() {
        let f = threshold_reduction_factor();
        assert!(f > 28.0 && f < 30.0, "factor = {f}");
    }

    #[test]
    fn evaluated_thresholds_are_sorted() {
        let mut sorted = EVALUATED_THRESHOLDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted.as_slice(), EVALUATED_THRESHOLDS);
    }
}
