//! The Scale-SRS pin-buffer.
//!
//! Scale-SRS pins outlier DRAM rows (rows whose swap-tracking counter shows
//! three or more swaps in an epoch) inside the LLC for the remainder of the
//! refresh interval. Because the LLC indexes by physical address, the rows
//! could conflict in a single set; the paper therefore places a small
//! *pin-buffer* in front of the LLC that records the pinned row addresses and
//! redirects them to dedicated, contiguous groups of sets (16 sets per 8 KB
//! row for a 16-way, 64 B-line LLC). All LLC look-ups flow through the
//! pin-buffer.

/// Configuration of the pin-buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinBufferConfig {
    /// Maximum number of DRAM rows that can be pinned simultaneously.
    ///
    /// The paper provisions 66 entries: up to 3 outlier rows in each of 11
    /// banks per channel, times 2 channels (Section V-C).
    pub entries: usize,
    /// DRAM row size in bytes (8 KB by default).
    pub row_size_bytes: u64,
    /// LLC line size in bytes.
    pub line_size_bytes: u64,
    /// Physical-address width in bits, used to size each entry's tag.
    pub phys_addr_bits: u32,
}

impl Default for PinBufferConfig {
    fn default() -> Self {
        Self { entries: 66, row_size_bytes: 8 * 1024, line_size_bytes: 64, phys_addr_bits: 48 }
    }
}

impl PinBufferConfig {
    /// Number of bits per pin-buffer entry: the row-aligned physical address.
    ///
    /// For a 48-bit physical address and 8 KB rows this is 35 bits, matching
    /// the paper.
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        self.phys_addr_bits - self.row_size_bytes.trailing_zeros()
    }

    /// Total pin-buffer storage in bits.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.entries as u64 * u64::from(self.entry_bits())
    }

    /// Number of cache lines per pinned row.
    #[must_use]
    pub fn lines_per_row(&self) -> u64 {
        self.row_size_bytes / self.line_size_bytes
    }
}

/// A pin-buffer tracking which DRAM rows are currently pinned in the LLC.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PinBuffer {
    config: PinBufferConfig,
    rows: Vec<u64>,
}

impl PinBuffer {
    /// Create an empty pin-buffer.
    #[must_use]
    pub fn new(config: PinBufferConfig) -> Self {
        Self { config, rows: Vec::new() }
    }

    /// The pin-buffer configuration.
    #[must_use]
    pub fn config(&self) -> &PinBufferConfig {
        &self.config
    }

    /// Row-align a physical address.
    #[must_use]
    pub fn row_base(&self, addr: u64) -> u64 {
        addr / self.config.row_size_bytes * self.config.row_size_bytes
    }

    /// Whether the row containing `addr` is currently pinned.
    #[must_use]
    pub fn is_pinned(&self, addr: u64) -> bool {
        let base = self.row_base(addr);
        self.rows.contains(&base)
    }

    /// Number of rows currently pinned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are pinned (the common case: most refresh intervals
    /// never see an outlier).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Pin the row containing `addr`. Returns an iterator over the
    /// line-aligned addresses of the row so the caller can install them in
    /// the LLC, or `None` if the buffer is full or the row is already pinned.
    pub fn pin(&mut self, addr: u64) -> Option<Vec<u64>> {
        let base = self.row_base(addr);
        if self.rows.contains(&base) || self.rows.len() >= self.config.entries {
            return None;
        }
        self.rows.push(base);
        let lines = self.config.lines_per_row();
        Some((0..lines).map(|i| base + i * self.config.line_size_bytes).collect())
    }

    /// Clear all pins (called at the end of each refresh interval).
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// The currently pinned row base addresses.
    #[must_use]
    pub fn pinned_rows(&self) -> &[u64] {
        &self.rows
    }

    /// Fraction of an LLC of `llc_bytes` capacity consumed by the current
    /// pins.
    #[must_use]
    pub fn capacity_fraction(&self, llc_bytes: u64) -> f64 {
        if llc_bytes == 0 {
            return 0.0;
        }
        (self.rows.len() as u64 * self.config.row_size_bytes) as f64 / llc_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_35_bits_for_default_config() {
        let c = PinBufferConfig::default();
        assert_eq!(c.entry_bits(), 35);
        assert_eq!(c.lines_per_row(), 128);
        // 66 entries * 35 bits ≈ 289 bytes, the Table IV pin-buffer size.
        assert_eq!(c.storage_bits().div_ceil(8), 289);
    }

    #[test]
    fn pin_and_query() {
        let mut pb = PinBuffer::new(PinBufferConfig::default());
        assert!(pb.is_empty());
        let lines = pb.pin(0x12345).expect("first pin succeeds");
        assert_eq!(lines.len(), 128);
        assert!(pb.is_pinned(0x12345));
        assert!(pb.is_pinned(0x12000)); // same 8KB row
        assert!(!pb.is_pinned(0x20000));
        assert_eq!(pb.len(), 1);
    }

    #[test]
    fn double_pin_is_rejected() {
        let mut pb = PinBuffer::new(PinBufferConfig::default());
        assert!(pb.pin(0x4000).is_some());
        assert!(pb.pin(0x4100).is_none()); // same row
    }

    #[test]
    fn capacity_limit_is_enforced() {
        let mut pb = PinBuffer::new(PinBufferConfig { entries: 2, ..PinBufferConfig::default() });
        assert!(pb.pin(0x0000).is_some());
        assert!(pb.pin(0x2000).is_some());
        assert!(pb.pin(0x4000).is_none());
        pb.clear();
        assert!(pb.pin(0x4000).is_some());
    }

    #[test]
    fn three_rows_use_small_fraction_of_llc() {
        let mut pb = PinBuffer::new(PinBufferConfig::default());
        for i in 0..3 {
            pb.pin(i * 0x2000).unwrap();
        }
        let frac = pb.capacity_fraction(8 * 1024 * 1024);
        // 3 * 8KB of an 8MB LLC ≈ 0.3%; the paper quotes 48KB ≈ 0.57% for
        // 6 rows across 2 channels — same order of magnitude.
        assert!(frac < 0.01, "fraction = {frac}");
    }

    #[test]
    fn sixty_six_rows_is_about_six_percent_of_llc() {
        let mut pb = PinBuffer::new(PinBufferConfig::default());
        for i in 0..66 {
            assert!(pb.pin(i * 0x2000).is_some());
        }
        let frac = pb.capacity_fraction(8 * 1024 * 1024);
        assert!(frac > 0.05 && frac < 0.07, "fraction = {frac}");
    }
}
