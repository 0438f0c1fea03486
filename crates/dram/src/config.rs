//! DRAM geometry and timing configuration.
//!
//! The defaults reproduce Table III of the paper: a 32 GB DDR4-3200 system
//! with 2 channels, 1 rank per channel, 16 banks per rank, 128K rows per bank
//! and 8 KB rows, with tRCD-tRP-tCAS of 14-14-14 ns, tRC of 45 ns, tRFC of
//! 350 ns and tREFI of 7.8 µs.

use crate::Nanos;

/// Row-buffer management policy of the memory controller.
///
/// The paper (and the RRS analysis it builds on) assumes a *closed-page*
/// policy; the open-page policy is used in the Discussion section to study
/// the sensitivity of the Juggernaut attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Precharge the row immediately after every column access.
    #[default]
    ClosedPage,
    /// Keep the row open until a conflicting access or refresh forces a
    /// precharge.
    OpenPage,
}

/// DDR4 timing parameters, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Row-to-column delay (ACT to READ/WRITE), `tRCD`.
    pub t_rcd: Nanos,
    /// Row precharge time, `tRP`.
    pub t_rp: Nanos,
    /// Column access (CAS) latency, `tCAS`.
    pub t_cas: Nanos,
    /// Row cycle time (minimum ACT-to-ACT delay to the same bank), `tRC`.
    pub t_rc: Nanos,
    /// Refresh cycle time (duration a rank is blocked per refresh), `tRFC`.
    pub t_rfc: Nanos,
    /// Average refresh interval between REF commands, `tREFI`.
    pub t_refi: Nanos,
    /// Data-burst occupancy of the channel bus per 64-byte transfer.
    pub t_burst: Nanos,
    /// Write recovery time before a precharge may follow a write, `tWR`.
    pub t_wr: Nanos,
}

impl Default for DramTiming {
    fn default() -> Self {
        Self {
            t_rcd: 14,
            t_rp: 14,
            t_cas: 14,
            t_rc: 45,
            t_rfc: 350,
            t_refi: 7_800,
            // 64B over a 64-bit DDR4-3200 bus: 4 beats at 0.625 ns/pair ≈ 2.5ns,
            // rounded up to whole nanoseconds.
            t_burst: 3,
            t_wr: 15,
        }
    }
}

impl DramTiming {
    /// Latency of an access that hits in an open row buffer.
    #[must_use]
    pub fn row_hit_latency(&self) -> Nanos {
        self.t_cas + self.t_burst
    }

    /// Latency of an access to a precharged (closed) bank: activate then read.
    #[must_use]
    pub fn row_closed_latency(&self) -> Nanos {
        self.t_rcd + self.t_cas + self.t_burst
    }

    /// Latency of an access that conflicts with a different open row.
    #[must_use]
    pub fn row_conflict_latency(&self) -> Nanos {
        self.t_rp + self.t_rcd + self.t_cas + self.t_burst
    }
}

/// Full configuration of the DRAM memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Row (page) size in bytes.
    pub row_size_bytes: u64,
    /// Cache-line size in bytes (granularity of demand requests).
    pub line_size_bytes: u64,
    /// Timing parameters.
    pub timing: DramTiming,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Length of the refresh window (retention time) in nanoseconds.
    ///
    /// All rows must be refreshed once per window; Row Hammer activation
    /// counts are accumulated within one window. DDR4 uses 64 ms.
    pub refresh_window_ns: Nanos,
    /// Capacity of each per-bank transaction queue.
    pub queue_capacity: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 16,
            rows_per_bank: 128 * 1024,
            row_size_bytes: 8 * 1024,
            line_size_bytes: 64,
            timing: DramTiming::default(),
            page_policy: PagePolicy::ClosedPage,
            refresh_window_ns: 64_000_000,
            queue_capacity: 64,
        }
    }
}

impl DramConfig {
    /// Total number of banks in the system.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Total capacity of the memory system in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank * self.row_size_bytes
    }

    /// Number of cache lines per row.
    #[must_use]
    pub fn lines_per_row(&self) -> u64 {
        self.row_size_bytes / self.line_size_bytes
    }

    /// Number of refresh (REF) commands issued per refresh window.
    ///
    /// DDR4 issues 8192 refresh commands per 64 ms window.
    #[must_use]
    pub fn refreshes_per_window(&self) -> u64 {
        self.refresh_window_ns / self.timing.t_refi
    }

    /// Maximum number of activations a single bank can perform within one
    /// refresh window, after discounting the time spent on refresh
    /// (`ACT_max` in the paper, roughly 1.36 million for the default
    /// configuration).
    #[must_use]
    pub fn max_activations_per_window(&self) -> u64 {
        let refresh_time = self.refreshes_per_window() * self.timing.t_rfc;
        let usable = self.refresh_window_ns.saturating_sub(refresh_time);
        usable / self.timing.t_rc
    }

    /// Duration of a single row-swap operation (exchange the contents of two
    /// rows via the memory controller's swap buffer), `tswap` in the paper
    /// (about 2.7 µs for 8 KB rows).
    #[must_use]
    pub fn swap_latency_ns(&self) -> Nanos {
        // Read both rows and write both rows, one cache line at a time, plus
        // the activations needed to open each row twice (read pass + write
        // pass). This lands within a few percent of the paper's 2.7 us.
        let lines = self.lines_per_row();
        4 * lines * self.timing.t_burst + 4 * self.timing.t_rc
    }

    /// Duration of an unswap followed by a swap (`treswap`, about 5.4 µs).
    #[must_use]
    pub fn reswap_latency_ns(&self) -> Nanos {
        2 * self.swap_latency_ns()
    }

    /// Validate the configuration, returning a human-readable description of
    /// the first inconsistency found.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DramError::InvalidConfig`] if any geometry field is
    /// zero, a bank has more than `u32::MAX` rows, or the row size is not a
    /// multiple of the line size.
    pub fn validate(&self) -> Result<(), crate::DramError> {
        if self.channels == 0 || self.ranks_per_channel == 0 || self.banks_per_rank == 0 {
            return Err(crate::DramError::InvalidConfig(
                "channels, ranks and banks must all be non-zero".to_string(),
            ));
        }
        if self.rows_per_bank == 0 || self.row_size_bytes == 0 || self.line_size_bytes == 0 {
            return Err(crate::DramError::InvalidConfig(
                "rows per bank, row size and line size must all be non-zero".to_string(),
            ));
        }
        if self.rows_per_bank > u64::from(u32::MAX) {
            // The per-row tables key rows by 32-bit address.
            return Err(crate::DramError::InvalidConfig(format!(
                "rows per bank must be at most {} so every row address fits 32 bits",
                u32::MAX
            )));
        }
        if !self.row_size_bytes.is_multiple_of(self.line_size_bytes) {
            return Err(crate::DramError::InvalidConfig(
                "row size must be a multiple of the cache-line size".to_string(),
            ));
        }
        if self.timing.t_rc == 0 || self.timing.t_refi == 0 {
            return Err(crate::DramError::InvalidConfig(
                "tRC and tREFI must be non-zero".to_string(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(crate::DramError::InvalidConfig(
                "queue capacity must be non-zero".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let c = DramConfig::default();
        assert_eq!(c.channels, 2);
        assert_eq!(c.banks_per_rank, 16);
        assert_eq!(c.rows_per_bank, 128 * 1024);
        assert_eq!(c.row_size_bytes, 8 * 1024);
        assert_eq!(c.timing.t_rc, 45);
        assert_eq!(c.timing.t_rfc, 350);
        assert_eq!(c.timing.t_refi, 7_800);
        // 32 GB total capacity.
        assert_eq!(c.capacity_bytes(), 32 * 1024 * 1024 * 1024);
    }

    #[test]
    fn act_max_close_to_paper() {
        let c = DramConfig::default();
        let act_max = c.max_activations_per_window();
        // The paper quotes roughly 1.36 million activations per 64 ms window.
        assert!(act_max > 1_300_000 && act_max < 1_400_000, "ACT_max = {act_max}");
    }

    #[test]
    fn swap_latency_close_to_paper() {
        let c = DramConfig::default();
        let swap = c.swap_latency_ns();
        let reswap = c.reswap_latency_ns();
        // Paper: tswap = 2.7 us, treswap = 5.4 us.
        assert!(swap > 1_500 && swap < 4_000, "tswap = {swap}");
        assert_eq!(reswap, 2 * swap);
    }

    #[test]
    fn refreshes_per_window_is_8192() {
        let c = DramConfig::default();
        assert_eq!(c.refreshes_per_window(), 8205);
        // With the nominal 7.8125us tREFI the count is exactly 8192; our
        // integer tREFI of 7800ns yields a value within 0.2% of that.
        let exact = 64_000_000f64 / 7_812.5;
        assert!((c.refreshes_per_window() as f64 - exact).abs() / exact < 0.005);
    }

    #[test]
    fn latency_helpers_are_ordered() {
        let t = DramTiming::default();
        assert!(t.row_hit_latency() < t.row_closed_latency());
        assert!(t.row_closed_latency() < t.row_conflict_latency());
    }

    #[test]
    fn validate_rejects_zero_banks() {
        let c = DramConfig { banks_per_rank: 0, ..DramConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_misaligned_line() {
        let c = DramConfig { line_size_bytes: 48, ..DramConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_bounds_rows_per_bank_by_32_bit_row_addresses() {
        let rows = |rows_per_bank| DramConfig { rows_per_bank, ..DramConfig::default() };
        assert!(rows(0).validate().is_err());
        assert!(rows(1 << 32).validate().is_err());
        assert!(rows(u64::from(u32::MAX)).validate().is_ok());
    }

    #[test]
    fn validate_accepts_default() {
        assert!(DramConfig::default().validate().is_ok());
    }

    #[test]
    fn page_policy_default_is_closed() {
        assert_eq!(PagePolicy::default(), PagePolicy::ClosedPage);
    }
}
