//! Per-row swap-tracking counters and the epoch register (Section IV-F).
//!
//! To future-proof SRS against unknown attack patterns, the paper reserves a
//! small region of DRAM (0.05% of capacity) for one 32-bit counter per row.
//! Each counter stores a 19-bit epoch-id and a 13-bit cumulative activation
//! count (demand activations at swap time plus any latent activations). The
//! memory controller keeps a 19-bit epoch register; when a counter's
//! epoch-id differs from the register the count is considered stale and is
//! reset. Reading and updating a counter happens on every swap and costs one
//! access to a dedicated counter row.

use fxhash::FxHashMap;

use crate::rit::row_key;

/// Width of the epoch-id field in each counter.
pub const EPOCH_ID_BITS: u32 = 19;
/// Width of the activation-count field in each counter.
pub const ACTIVATION_COUNT_BITS: u32 = 13;
/// Total width of one per-row counter.
pub const COUNTER_BITS: u32 = 32;

/// The swap-tracking counter state for one bank.
///
/// The hardware reserves one packed `(epoch_id, count)` word per row, whose
/// DRAM footprint [`SwapCounters::reserved_dram_bytes`] reports. The model
/// only materialises the words of rows that have actually swapped, in a
/// map keyed by 32-bit row address, so banks that never swap (all banks of
/// a benign or baseline run) hold no storage and a touched bank snapshots
/// in kilobytes. An absent word reads as stale.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapCounters {
    rows_per_bank: u64,
    row_size_bytes: u64,
    epoch_register: u64,
    /// `(epoch_id + 1) << 32 | count` of each row that has swapped.
    words: FxHashMap<u32, u64>,
    counter_row_accesses: u64,
}

/// Pack an `(epoch_id, count)` pair into one counter word.
#[inline]
fn pack(epoch_id: u64, count: u64) -> u64 {
    (epoch_id + 1) << 32 | count
}

impl SwapCounters {
    /// Create counters for a bank with `rows_per_bank` rows of
    /// `row_size_bytes` bytes each.
    #[must_use]
    pub fn new(rows_per_bank: u64, row_size_bytes: u64) -> Self {
        Self {
            rows_per_bank,
            row_size_bytes,
            epoch_register: 0,
            words: FxHashMap::default(),
            counter_row_accesses: 0,
        }
    }

    /// The value of the on-chip epoch register.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch_register
    }

    /// Advance to the next epoch. The hardware register is 19 bits wide;
    /// when it wraps, every counter row is scrubbed (the paper quotes a
    /// 41 µs scrub every 4.6 hours). Returns `true` when a wrap (full
    /// scrub) occurred.
    pub fn advance_epoch(&mut self) -> bool {
        self.epoch_register += 1;
        if self.epoch_register >= (1 << EPOCH_ID_BITS) {
            self.epoch_register = 0;
            // The scrub rewrites every counter row; epoch-id 0 becomes
            // current again, so stale words must not alias it.
            self.words.clear();
            true
        } else {
            false
        }
    }

    /// Record a swap of the physical chip location `row`, charging
    /// `activations` cumulative activations (the `TS` demand activations
    /// plus any latent ones). Returns the counter's new value for the
    /// current epoch.
    ///
    /// Each call models one read-modify-write of the counter row.
    pub fn record_swap(&mut self, row: u64, activations: u64) -> u64 {
        self.counter_row_accesses += 1;
        let max_count = (1u64 << ACTIVATION_COUNT_BITS) - 1;
        let word = self.words.entry(row_key(row)).or_insert(0);
        let count = if *word >> 32 == self.epoch_register + 1 { *word & 0xFFFF_FFFF } else { 0 };
        let count = (count + activations).min(max_count);
        *word = pack(self.epoch_register, count);
        count
    }

    /// The counter value of `row` in the current epoch (0 if stale or never
    /// touched).
    #[must_use]
    pub fn count(&self, row: u64) -> u64 {
        match self.words.get(&row_key(row)) {
            Some(&word) if word >> 32 == self.epoch_register + 1 => word & 0xFFFF_FFFF,
            _ => 0,
        }
    }

    /// Number of counter-row read-modify-writes performed.
    #[must_use]
    pub fn counter_row_accesses(&self) -> u64 {
        self.counter_row_accesses
    }

    /// DRAM bytes reserved for the counters of this bank (512 KB for a
    /// 128K-row bank, i.e. 0.05% of its capacity).
    #[must_use]
    pub fn reserved_dram_bytes(&self) -> u64 {
        self.rows_per_bank * u64::from(COUNTER_BITS) / 8
    }

    /// Number of dedicated 8 KB counter rows holding the reserved bytes.
    #[must_use]
    pub fn counter_rows(&self) -> u64 {
        self.reserved_dram_bytes().div_ceil(self.row_size_bytes)
    }

    /// The physical row index (beyond the normal row space) holding the
    /// counter for `row`; used so counter traffic targets dedicated rows.
    #[must_use]
    pub fn counter_row_of(&self, row: u64) -> u64 {
        let counters_per_row = self.row_size_bytes / (u64::from(COUNTER_BITS) / 8);
        self.rows_per_bank + row / counters_per_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> SwapCounters {
        SwapCounters::new(128 * 1024, 8 * 1024)
    }

    #[test]
    fn field_widths_sum_to_32() {
        assert_eq!(EPOCH_ID_BITS + ACTIVATION_COUNT_BITS, COUNTER_BITS);
    }

    #[test]
    fn reserved_space_matches_paper() {
        let c = counters();
        assert_eq!(c.reserved_dram_bytes(), 512 * 1024);
        assert_eq!(c.counter_rows(), 64);
        // 512 KB of a 1 GB bank = 0.05%.
        let bank_bytes = 128 * 1024 * 8 * 1024u64;
        let frac = c.reserved_dram_bytes() as f64 / bank_bytes as f64;
        assert!((frac - 0.000_5).abs() < 5e-5);
    }

    #[test]
    fn counts_accumulate_within_epoch() {
        let mut c = counters();
        assert_eq!(c.record_swap(7, 801), 801);
        assert_eq!(c.record_swap(7, 801), 1602);
        assert_eq!(c.count(7), 1602);
        assert_eq!(c.counter_row_accesses(), 2);
    }

    #[test]
    fn stale_epoch_resets_count() {
        let mut c = counters();
        c.record_swap(7, 800);
        c.advance_epoch();
        assert_eq!(c.count(7), 0);
        assert_eq!(c.record_swap(7, 400), 400);
    }

    #[test]
    fn count_saturates_at_13_bits() {
        let mut c = counters();
        c.record_swap(7, 8000);
        c.record_swap(7, 8000);
        assert_eq!(c.count(7), 8191);
    }

    #[test]
    fn epoch_register_wraps_and_scrubs() {
        let mut c = SwapCounters::new(1024, 8 * 1024);
        c.record_swap(3, 10);
        let mut wrapped = false;
        for _ in 0..(1 << EPOCH_ID_BITS) {
            wrapped |= c.advance_epoch();
        }
        assert!(wrapped);
        assert_eq!(c.count(3), 0);
        assert_eq!(c.epoch(), 0);
    }

    #[test]
    fn counter_rows_are_outside_normal_row_space() {
        let c = counters();
        assert!(c.counter_row_of(0) >= 128 * 1024);
        assert!(c.counter_row_of(128 * 1024 - 1) < 128 * 1024 + c.counter_rows());
    }
}
