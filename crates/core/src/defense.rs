//! The defense abstraction: what a row-swap Row Hammer mitigation looks like
//! to the memory system.

use crate::actions::MitigationAction;
use crate::storage::StorageReport;

/// Which defense to instantiate (used by experiment configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// No Row Hammer mitigation at all (the paper's not-secure baseline).
    Baseline,
    /// Randomized Row-Swap (RRS), the prior state of the art.
    Rrs {
        /// Whether swapped pairs are unswapped immediately before a re-swap
        /// (the design point RRS ships with; turning it off reproduces the
        /// "No Unswap" curves of Figure 4).
        immediate_unswap: bool,
    },
    /// Secure Row-Swap: swap-only indirection, no unswap-swap latent
    /// activations, lazy place-back, swap-count attack detection.
    Srs,
    /// Scalable and Secure Row-Swap: SRS plus outlier detection and LLC
    /// pinning, enabling a swap rate of 3.
    ScaleSrs,
}

impl std::fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DefenseKind::Baseline => f.write_str("baseline"),
            DefenseKind::Rrs { immediate_unswap: true } => f.write_str("rrs"),
            DefenseKind::Rrs { immediate_unswap: false } => f.write_str("rrs-no-unswap"),
            DefenseKind::Srs => f.write_str("srs"),
            DefenseKind::ScaleSrs => f.write_str("scale-srs"),
        }
    }
}

impl DefenseKind {
    /// The swap rate (`TRH / TS`) the paper uses for this defense.
    ///
    /// RRS and SRS use a swap rate of 6; Scale-SRS can securely use 3; the
    /// baseline never swaps.
    #[must_use]
    pub fn default_swap_rate(&self) -> u64 {
        match self {
            DefenseKind::Baseline => 0,
            DefenseKind::Rrs { .. } | DefenseKind::Srs => 6,
            DefenseKind::ScaleSrs => 3,
        }
    }
}

/// A row-swap defense as seen by the memory controller and the simulator.
///
/// All row indices are *row addresses as issued by the system* ("logical"
/// rows); the defense owns the indirection that decides which DRAM chip
/// location ("physical" row) currently stores each logical row.
pub trait RowSwapDefense {
    /// A short, stable name for reports.
    fn name(&self) -> &'static str;

    /// The kind of this defense.
    fn kind(&self) -> DefenseKind;

    /// Where the data of logical `row` currently lives in bank `bank`.
    fn translate(&self, bank: usize, row: u64) -> u64;

    /// The inverse of [`RowSwapDefense::translate`]: which logical row's
    /// data currently lives at physical `location` in `bank`. For defenses
    /// without an indirection table the mapping is the identity.
    ///
    /// The fault-injection layer uses this at flip time: a disturbance
    /// damages a physical location, but the damage belongs to (and travels
    /// with) the logical row stored there.
    fn occupant(&self, _bank: usize, location: u64) -> u64 {
        location
    }

    /// Called when the aggressor tracker reports that logical `row` in
    /// `bank` crossed the swap threshold. Returns the mitigation actions
    /// (row movements, counter accesses, pin requests) the memory system
    /// must perform.
    fn on_mitigation_trigger(
        &mut self,
        bank: usize,
        row: u64,
        now_ns: u64,
    ) -> Vec<MitigationAction>;

    /// Called periodically (at least once per ~100 µs of simulated time) so
    /// the defense can schedule lazy work such as SRS place-back operations.
    fn on_tick(&mut self, now_ns: u64) -> Vec<MitigationAction>;

    /// The next time at which [`RowSwapDefense::on_tick`] has scheduled
    /// work to emit, or `None` if the defense is idle until the next
    /// mitigation trigger or window boundary.
    ///
    /// Event-driven simulators use this to skip straight to the defense's
    /// next deadline instead of polling `on_tick` every few nanoseconds; a
    /// defense with timed lazy work (SRS place-back) must report it here or
    /// a time-skipping caller may run the work late.
    fn next_action_ns(&self) -> Option<u64> {
        None
    }

    /// Called at every refresh-window (64 ms) boundary.
    fn on_new_window(&mut self, now_ns: u64) -> Vec<MitigationAction>;

    /// The swap threshold `TS` in activations, or `None` for the baseline.
    fn swap_threshold(&self) -> Option<u64>;

    /// Per-bank SRAM storage required by the defense's structures.
    fn storage_report(&self) -> StorageReport;

    /// Total number of swap operations performed so far (all banks).
    fn swaps_performed(&self) -> u64;

    /// Number of unswap-swap operations performed so far (all banks).
    ///
    /// Only RRS with immediate unswaps performs them; they are the source
    /// of the latent activations the Juggernaut attack harvests, so the
    /// security-metrics layer reports them per run. Defenses without
    /// unswap-swaps (the default) report zero.
    fn unswap_swaps_performed(&self) -> u64 {
        0
    }

    /// Number of logical rows currently living somewhere other than their
    /// home physical row, summed over all banks — a telemetry gauge (RIT
    /// pressure over time), not part of any mitigation decision. Defenses
    /// without an indirection table report zero.
    fn live_swapped_rows(&self) -> u64 {
        0
    }

    /// Number of mitigation requests this defense has had to decline
    /// because a capacity limit was reached (RIT live-list full, swap-pool
    /// exhausted) — the defense's *saturation contract*: at capacity it
    /// degrades to skipping the swap, counts the event here, and the run
    /// continues. Saturation is surfaced through telemetry and the
    /// `SecurityReport` so adversarial resource exhaustion is observable,
    /// never a panic or silent wraparound. Defenses without capacity
    /// limits report zero.
    fn saturation_events(&self) -> u64 {
        0
    }

    /// Deep-copy this defense behind a fresh box — the snapshot primitive
    /// the sharing-aware grid executor uses to fork a simulation (RIT
    /// contents, swap counters, place-back queues, RNG state and all).
    fn clone_box(&self) -> Box<dyn RowSwapDefense + Send>;
}

impl Clone for Box<dyn RowSwapDefense + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display_and_swap_rates() {
        assert_eq!(DefenseKind::Baseline.to_string(), "baseline");
        assert_eq!(DefenseKind::Rrs { immediate_unswap: true }.to_string(), "rrs");
        assert_eq!(DefenseKind::Rrs { immediate_unswap: false }.to_string(), "rrs-no-unswap");
        assert_eq!(DefenseKind::ScaleSrs.to_string(), "scale-srs");
        assert_eq!(DefenseKind::Baseline.default_swap_rate(), 0);
        assert_eq!(DefenseKind::Srs.default_swap_rate(), 6);
        assert_eq!(DefenseKind::ScaleSrs.default_swap_rate(), 3);
    }
}
