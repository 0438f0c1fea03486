//! Core-model configuration (the processor half of Table III).

/// Configuration of one trace-driven core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Core clock frequency in GHz (3.2 GHz in Table III).
    pub clock_ghz: f64,
    /// Reorder-buffer size in instructions (192 in Table III).
    pub rob_size: u32,
    /// Fetch width in instructions per cycle (4 in Table III).
    pub fetch_width: u32,
    /// Retire width in instructions per cycle (4 in Table III).
    pub retire_width: u32,
    /// Maximum reads outstanding to the memory system at once.
    pub max_outstanding_misses: usize,
    /// Instructions to retire before the core reports finished.
    pub target_instructions: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            clock_ghz: 3.2,
            rob_size: 192,
            fetch_width: 4,
            retire_width: 4,
            max_outstanding_misses: 16,
            target_instructions: 1_000_000,
        }
    }
}

impl CoreConfig {
    /// Convert a cycle count to nanoseconds at this core's clock.
    #[must_use]
    pub fn cycles_to_ns(&self, cycles: f64) -> u64 {
        (cycles / self.clock_ghz).ceil() as u64
    }

    /// Convert nanoseconds to cycles at this core's clock.
    #[must_use]
    pub fn ns_to_cycles(&self, ns: u64) -> f64 {
        ns as f64 * self.clock_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let c = CoreConfig::default();
        assert_eq!(c.rob_size, 192);
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.retire_width, 4);
        assert!((c.clock_ghz - 3.2).abs() < 1e-12);
    }

    #[test]
    fn cycle_conversions_round_trip_approximately() {
        let c = CoreConfig::default();
        let ns = c.cycles_to_ns(320.0);
        assert_eq!(ns, 100);
        assert!((c.ns_to_cycles(100) - 320.0).abs() < 1e-9);
    }
}
