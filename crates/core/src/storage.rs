//! On-chip (SRAM) storage accounting, reproducing Table IV of the paper.

use crate::config::MitigationConfig;
use crate::defense::DefenseKind;
use crate::rit::RitConfig;

/// SRAM storage required by one bank's worth of defense structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageReport {
    /// Row Indirection Table bits.
    pub rit_bits: u64,
    /// Swap-buffer bits (one row's worth of staging storage).
    pub swap_buffer_bits: u64,
    /// Place-back buffer bits (SRS and Scale-SRS only).
    pub place_back_buffer_bits: u64,
    /// Epoch-register bits (SRS and Scale-SRS only).
    pub epoch_register_bits: u64,
    /// Pin-buffer bits (Scale-SRS only; shared across banks but reported
    /// per bank for comparability with Table IV).
    pub pin_buffer_bits: u64,
}

impl StorageReport {
    /// Total bits per bank.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.rit_bits
            + self.swap_buffer_bits
            + self.place_back_buffer_bits
            + self.epoch_register_bits
            + self.pin_buffer_bits
    }

    /// Total kilobytes per bank.
    #[must_use]
    pub fn total_kib(&self) -> f64 {
        self.total_bits() as f64 / 8.0 / 1024.0
    }
}

/// Reference design points copied from Table IV of the paper, in bytes per
/// bank, used to report paper-vs-model deltas in the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperStoragePoint {
    /// The Row Hammer threshold of the design point.
    pub t_rh: u64,
    /// RRS total storage per bank, in bytes.
    pub rrs_total_bytes: u64,
    /// Scale-SRS total storage per bank, in bytes.
    pub scale_srs_total_bytes: u64,
}

/// The three design points of Table IV.
pub const PAPER_STORAGE_POINTS: &[PaperStoragePoint] = &[
    PaperStoragePoint { t_rh: 4_800, rrs_total_bytes: 36 * 1024, scale_srs_total_bytes: 19_149 },
    PaperStoragePoint { t_rh: 2_400, rrs_total_bytes: 131 * 1024, scale_srs_total_bytes: 45_466 },
    PaperStoragePoint { t_rh: 1_200, rrs_total_bytes: 251 * 1024, scale_srs_total_bytes: 78_746 },
];

/// Compute the analytic per-bank storage of a defense at a design point.
///
/// The model uses first-order structure sizes: the RIT holds two epochs of
/// live mappings (sized from `ACT_max / TS`) as a CAT, the swap and
/// place-back buffers each hold one 8 KB DRAM row, the epoch register is 19
/// bits and the pin-buffer holds 66 entries of 35 bits. RRS over-provisions
/// its RIT more aggressively because the tuple-pair organisation must absorb
/// the worst-case unswap-swap churn; SRS's swap-only table tolerates a
/// higher load factor, which is where most of the paper's 3.3x storage
/// saving comes from (the rest comes from Scale-SRS's lower swap rate).
#[must_use]
pub fn storage_for(kind: DefenseKind, config: &MitigationConfig) -> StorageReport {
    let row_bytes: u64 = 8 * 1024;
    let swap_buffer_bits = row_bytes * 8 / 8; // 1 KB staging buffer, as in RRS
    match kind {
        DefenseKind::Baseline => StorageReport::default(),
        DefenseKind::Rrs { .. } => {
            let mut rit = RitConfig::for_swaps(config.max_swaps_per_window(), config.rows_per_bank);
            rit.overprovision = 3.0;
            StorageReport {
                rit_bits: rit.storage_bits_dual(),
                swap_buffer_bits,
                ..StorageReport::default()
            }
        }
        DefenseKind::Srs | DefenseKind::ScaleSrs => {
            let mut rit = RitConfig::for_swaps(config.max_swaps_per_window(), config.rows_per_bank);
            rit.overprovision = 1.5;
            let pin_buffer_bits = if kind == DefenseKind::ScaleSrs { 66 * 35 } else { 0 };
            StorageReport {
                rit_bits: rit.storage_bits_dual(),
                swap_buffer_bits,
                place_back_buffer_bits: row_bytes * 8,
                epoch_register_bits: 19,
                pin_buffer_bits,
            }
        }
    }
}

/// The storage ratio RRS / Scale-SRS at a given threshold, using each
/// defense's default swap rate (6 for RRS, 3 for Scale-SRS).
#[must_use]
pub fn rrs_to_scale_srs_ratio(t_rh: u64) -> f64 {
    let rrs_cfg = MitigationConfig::paper_default(t_rh, 6);
    let scale_cfg = MitigationConfig::paper_default(t_rh, 3);
    let rrs =
        storage_for(DefenseKind::Rrs { immediate_unswap: true }, &rrs_cfg).total_bits() as f64;
    let scale = storage_for(DefenseKind::ScaleSrs, &scale_cfg).total_bits() as f64;
    rrs / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_needs_no_storage() {
        let cfg = MitigationConfig::paper_default(4800, 6);
        assert_eq!(storage_for(DefenseKind::Baseline, &cfg).total_bits(), 0);
    }

    #[test]
    fn rrs_storage_grows_as_trh_drops() {
        let hi = storage_for(
            DefenseKind::Rrs { immediate_unswap: true },
            &MitigationConfig::paper_default(4800, 6),
        );
        let lo = storage_for(
            DefenseKind::Rrs { immediate_unswap: true },
            &MitigationConfig::paper_default(1200, 6),
        );
        assert!(lo.total_bits() > 3 * hi.total_bits());
    }

    #[test]
    fn scale_srs_uses_substantially_less_storage_than_rrs() {
        for &t_rh in &[4800u64, 2400, 1200] {
            let ratio = rrs_to_scale_srs_ratio(t_rh);
            assert!(ratio > 2.0, "ratio at TRH {t_rh} = {ratio}");
        }
        // The paper's headline number: 3.3x at TRH = 1200 (within ~40%).
        let r1200 = rrs_to_scale_srs_ratio(1200);
        assert!(r1200 > 2.3 && r1200 < 4.5, "ratio = {r1200}");
    }

    #[test]
    fn srs_has_place_back_and_epoch_register() {
        let cfg = MitigationConfig::paper_default(2400, 6);
        let s = storage_for(DefenseKind::Srs, &cfg);
        assert_eq!(s.epoch_register_bits, 19);
        assert_eq!(s.place_back_buffer_bits, 8 * 1024 * 8);
        assert_eq!(s.pin_buffer_bits, 0);
        let scale = storage_for(DefenseKind::ScaleSrs, &MitigationConfig::paper_default(2400, 3));
        assert_eq!(scale.pin_buffer_bits, 66 * 35);
    }

    /// A loose sanity bound, not a match: the model's RIT dominates and
    /// reads 2.51x the paper at TRH 4800.
    #[test]
    fn rrs_total_within_0_3x_to_3x_of_paper_points() {
        for point in PAPER_STORAGE_POINTS {
            let cfg = MitigationConfig::paper_default(point.t_rh, 6);
            let model =
                storage_for(DefenseKind::Rrs { immediate_unswap: true }, &cfg).total_bits() / 8;
            let paper = point.rrs_total_bytes;
            let ratio = model as f64 / paper as f64;
            assert!(
                ratio > 0.3 && ratio < 3.0,
                "TRH {}: model {model} vs paper {paper}",
                point.t_rh
            );
        }
    }

    /// At Scale-SRS's default swap rate (3, as `table4_storage` prints),
    /// the model reads 1.70x, 1.22x and 1.28x the paper's totals.
    #[test]
    fn scale_srs_total_within_2x_of_paper_points() {
        for point in PAPER_STORAGE_POINTS {
            let cfg = MitigationConfig::paper_default(point.t_rh, 3);
            let model = storage_for(DefenseKind::ScaleSrs, &cfg).total_bits() / 8;
            let paper = point.scale_srs_total_bytes;
            let ratio = model as f64 / paper as f64;
            assert!(
                ratio > 0.5 && ratio < 2.0,
                "TRH {}: model {model} vs paper {paper} ({ratio:.2}x)",
                point.t_rh
            );
        }
    }

    #[test]
    fn report_total_kib() {
        let r = StorageReport { rit_bits: 8 * 1024 * 8, ..StorageReport::default() };
        assert!((r.total_kib() - 8.0).abs() < 1e-9);
    }
}
