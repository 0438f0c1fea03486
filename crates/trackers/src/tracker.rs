//! The tracker abstraction shared by all aggressor-row trackers.

/// What a tracker decided after observing one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackerDecision {
    /// The observed row crossed the swap threshold and the mitigation should
    /// act on it now. The tracker has already reset its own count for the
    /// row so that the next trigger requires another `TS` activations.
    pub mitigate: bool,
    /// Number of additional DRAM accesses the tracker itself generated while
    /// processing this activation (Hydra's memory-resident row count table).
    pub extra_memory_accesses: u64,
}

impl TrackerDecision {
    /// A decision that neither mitigates nor generates traffic.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A decision that triggers mitigation.
    #[must_use]
    pub fn mitigate_now() -> Self {
        Self { mitigate: true, extra_memory_accesses: 0 }
    }
}

/// Which tracker implementation to instantiate (used by experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrackerKind {
    /// The Misra-Gries tracker used by Graphene and RRS.
    #[default]
    MisraGries,
    /// The Hydra hybrid SRAM/DRAM tracker.
    Hydra,
}

impl std::fmt::Display for TrackerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackerKind::MisraGries => f.write_str("misra-gries"),
            TrackerKind::Hydra => f.write_str("hydra"),
        }
    }
}

/// An aggressor-row tracker.
///
/// Implementations observe every row activation in every bank and decide
/// when a row has crossed the swap threshold `TS`, at which point the
/// row-swap mitigation performs a swap. Trackers are reset at the start of
/// every tracking epoch (half a refresh window, following Graphene/Hydra).
pub trait AggressorTracker {
    /// Observe one activation of `row` in global bank `bank`.
    fn record_activation(&mut self, bank: usize, row: u64) -> TrackerDecision;

    /// The tracker's current activation estimate for a row.
    fn estimated_count(&self, bank: usize, row: u64) -> u64;

    /// Clear per-epoch state (start of a new tracking epoch).
    fn reset_epoch(&mut self);

    /// Swap threshold `TS` this tracker was configured with.
    fn swap_threshold(&self) -> u64;

    /// Total SRAM storage the tracker requires, in bits.
    fn storage_bits(&self) -> u64;

    /// Deep-copy this tracker behind a fresh box — the snapshot primitive
    /// the sharing-aware grid executor uses to fork a simulation.
    fn clone_box(&self) -> Box<dyn AggressorTracker + Send>;

    /// Whether [`AggressorTracker::record_activation`] can ever report
    /// `extra_memory_accesses > 0`. Purely-SRAM trackers (Misra-Gries)
    /// return `false`, which lets a prefix-sharing planner prove that a
    /// baseline cell with such a tracker never feeds anything back into the
    /// simulation.
    fn may_emit_memory_traffic(&self) -> bool {
        true
    }

    /// Number of rows the tracker currently holds state for, summed over
    /// all banks — a telemetry gauge (table pressure over time), not part
    /// of any mitigation decision. Trackers without a meaningful notion of
    /// occupancy report zero.
    fn occupancy(&self) -> u64 {
        0
    }

    /// Number of times the tracker hit a capacity limit and fell back to
    /// its degraded path (Misra-Gries spillover decrements, table
    /// evictions) — the tracker half of the saturation contract: capacity
    /// pressure is counted and surfaced, never a panic or a silent
    /// wraparound. Trackers without capacity limits report zero.
    fn saturation_events(&self) -> u64 {
        0
    }
}

impl Clone for Box<dyn AggressorTracker + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_constructors() {
        assert!(!TrackerDecision::none().mitigate);
        assert!(TrackerDecision::mitigate_now().mitigate);
        assert_eq!(TrackerDecision::none().extra_memory_accesses, 0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(TrackerKind::MisraGries.to_string(), "misra-gries");
        assert_eq!(TrackerKind::Hydra.to_string(), "hydra");
        assert_eq!(TrackerKind::default(), TrackerKind::MisraGries);
    }
}
