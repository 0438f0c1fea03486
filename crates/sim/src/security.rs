//! The security-metrics layer: Row Hammer pressure observed in-simulator.
//!
//! When a run carries an [`srs_attack::AttackSpec`], the simulator feeds
//! every row activation (demand *and* maintenance) into a
//! [`SecurityTracker`], which maintains per-physical-row *disturbance
//! pressure*: each `ACT` on a row disturbs its two physical neighbors, so a
//! row's pressure within one refresh window is the number of activations
//! its neighbors received — the quantity the Row Hammer threshold `TRH` is
//! defined over. This is the simulated counterpart of the analytical
//! models in `srs_attack`: maintenance activations at a swapped row's home
//! location show up here as *latent* pressure, exactly the harvest the
//! Juggernaut attack lives on.
//!
//! The tracker reports a [`SecurityReport`] on the run's
//! [`crate::metrics::SimResult`]: maximum per-victim-row pressure in any
//! window, the time of the first TRH crossing, how much of the pressure
//! was latent (mitigation-issued), and the defense's swap rate under
//! attack.

use fxhash::FxHashMap;
use srs_dram::ActivationEvent;

use crate::faults::FaultInjector;
use crate::json::{obj, Json, ToJson};

/// Disturbance accumulated by one physical row inside the current refresh
/// window.
#[derive(Debug, Clone, Copy, Default)]
struct RowPressure {
    total: u64,
    latent: u64,
}

/// Streaming accumulator of Row Hammer disturbance pressure.
#[derive(Debug, Clone)]
pub struct SecurityTracker {
    t_rh: u64,
    rows_per_bank: u64,
    /// Per-bank map from physical row to its pressure this window.
    pressure: Vec<FxHashMap<u64, RowPressure>>,
    max_pressure: u64,
    /// Simulated time the all-time pressure maximum was (first) reached:
    /// the closest approach to the threshold for never-crossing runs.
    max_pressure_at_ns: Option<u64>,
    latent_on_hottest: u64,
    latent_total: u64,
    first_crossing_ns: Option<u64>,
    first_crossing_row: Option<(usize, u64)>,
}

impl SecurityTracker {
    /// A tracker for a geometry of `banks` banks of `rows_per_bank` rows
    /// defended to threshold `t_rh`.
    #[must_use]
    pub fn new(t_rh: u64, rows_per_bank: u64, banks: usize) -> Self {
        Self {
            t_rh: t_rh.max(1),
            rows_per_bank,
            pressure: vec![FxHashMap::default(); banks],
            max_pressure: 0,
            max_pressure_at_ns: None,
            latent_on_hottest: 0,
            latent_total: 0,
            first_crossing_ns: None,
            first_crossing_row: None,
        }
    }

    /// Feed one activation: the activated physical row disturbs its two
    /// physical neighbors.
    ///
    /// Counter-table accesses are excluded: the per-row swap-tracking and
    /// Hydra counter rows live in a reserved region whose neighbors hold no
    /// data (the paper's analyses likewise never charge counter traffic as
    /// Row Hammer disturbance). Every row-*movement* activation — the
    /// latent-activation channel Juggernaut harvests — is charged.
    ///
    /// When a [`FaultInjector`] rides along, each neighbor's updated
    /// pressure is fed to it so over-threshold disturbance turns into
    /// concrete bit flips (pending until the end of the tick, where the
    /// defense's row mapping attributes them to logical rows).
    pub fn on_activation(
        &mut self,
        event: &ActivationEvent,
        mut faults: Option<&mut FaultInjector>,
    ) {
        if event.maintenance_kind == Some(srs_dram::MaintenanceKind::CounterAccess) {
            return;
        }
        let bank = event.bank.index();
        // Decoded rows are already in range; only a foreign row pays the
        // division.
        let row = if event.row < self.rows_per_bank {
            event.row
        } else {
            event.row % self.rows_per_bank.max(1)
        };
        let lo = row.checked_sub(1);
        let hi = (row + 1 < self.rows_per_bank).then_some(row + 1);
        for neighbor in lo.into_iter().chain(hi) {
            let p = self.pressure[bank].entry(neighbor).or_default();
            p.total += 1;
            if event.maintenance {
                p.latent += 1;
                self.latent_total += 1;
            }
            if let Some(f) = faults.as_deref_mut() {
                f.on_disturb(bank, neighbor, p.total, event.at_ns);
            }
            if p.total > self.max_pressure {
                self.max_pressure = p.total;
                self.max_pressure_at_ns = Some(event.at_ns);
                self.latent_on_hottest = p.latent;
            }
            if p.total >= self.t_rh && self.first_crossing_ns.is_none() {
                self.first_crossing_ns = Some(event.at_ns);
                self.first_crossing_row = Some((bank, neighbor));
            }
        }
    }

    /// A refresh-window boundary passed: every row is refreshed, so window
    /// pressure resets (the all-time maxima and the crossing latch remain).
    pub fn on_window_rollover(&mut self) {
        for shard in &mut self.pressure {
            shard.clear();
        }
    }

    /// Whether any row's window pressure has reached `TRH`.
    #[must_use]
    pub fn crossed(&self) -> bool {
        self.first_crossing_ns.is_some()
    }

    /// Largest per-row pressure seen in any window so far.
    #[must_use]
    pub fn max_pressure(&self) -> u64 {
        self.max_pressure
    }

    /// Fold the tracker into a report.
    #[must_use]
    pub fn into_report(self, context: ReportContext) -> SecurityReport {
        let windows =
            (context.elapsed_ns as f64 / context.refresh_window_ns.max(1) as f64).max(1.0);
        SecurityReport {
            attack: context.attack,
            attacker_cores: context.attacker_cores,
            t_rh: self.t_rh,
            max_victim_pressure: self.max_pressure,
            latent_on_hottest_row: self.latent_on_hottest,
            latent_activations: self.latent_total,
            trh_crossed: self.first_crossing_ns.is_some(),
            first_crossing_ns: self.first_crossing_ns,
            first_crossing_row: self.first_crossing_row,
            unswap_swaps: context.unswap_swaps,
            swaps_per_window: context.swaps as f64 / windows,
            attacker_reads: context.attacker_reads,
            mitigations_observed: context.mitigations_observed,
            latency_spikes: context.latency_spikes,
            guesses_made: context.guesses_made,
            saturation_events: context.saturation_events,
            closest_approach_ratio: self.max_pressure as f64 / self.t_rh as f64,
            closest_approach_ns: self.max_pressure_at_ns,
        }
    }
}

/// Run-level context folded into a [`SecurityReport`] alongside the
/// tracker's own counters.
#[derive(Debug, Clone)]
pub struct ReportContext {
    /// Attack name (the grid axis label).
    pub attack: String,
    /// Number of attacker cores in the run.
    pub attacker_cores: usize,
    /// Simulated time of the run.
    pub elapsed_ns: u64,
    /// Refresh-window length of the run.
    pub refresh_window_ns: u64,
    /// Swaps the defense performed.
    pub swaps: u64,
    /// Unswap-swap operations the defense performed (RRS only).
    pub unswap_swaps: u64,
    /// Reads issued by attacker cores.
    pub attacker_reads: u64,
    /// Mitigation operations the attackers observed.
    pub mitigations_observed: u64,
    /// Swap-latency spikes the attackers detected on their own reads.
    pub latency_spikes: u64,
    /// Random-guess rows hammered by the attackers.
    pub guesses_made: u64,
    /// Capacity-limit events in the defense and tracker (RIT-full swap
    /// skips, tracker table spillover).
    pub saturation_events: u64,
}

/// Security metrics of one attacked simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityReport {
    /// Attack name.
    pub attack: String,
    /// Number of attacker cores.
    pub attacker_cores: usize,
    /// Row Hammer threshold the run was evaluated against.
    pub t_rh: u64,
    /// Largest per-victim-row disturbance pressure in any refresh window.
    pub max_victim_pressure: u64,
    /// How much of the hottest row's pressure was mitigation-issued (the
    /// latent activations harvested from unswap-swap pairs).
    pub latent_on_hottest_row: u64,
    /// Total mitigation-issued disturbance across all rows.
    pub latent_activations: u64,
    /// Whether any row's window pressure reached `TRH`.
    pub trh_crossed: bool,
    /// Simulated time of the first TRH crossing, if any.
    pub first_crossing_ns: Option<u64>,
    /// The (bank, physical row) that first crossed, if any.
    pub first_crossing_row: Option<(usize, u64)>,
    /// Unswap-swap operations the defense performed (RRS only).
    pub unswap_swaps: u64,
    /// Defense swaps per refresh window of simulated time.
    pub swaps_per_window: f64,
    /// Reads issued by the attacker cores.
    pub attacker_reads: u64,
    /// Mitigation operations observed by the attackers (their feedback
    /// channel).
    pub mitigations_observed: u64,
    /// Swap-latency spikes the attackers detected.
    pub latency_spikes: u64,
    /// Random-guess rows hammered in Juggernaut's phase 2.
    pub guesses_made: u64,
    /// Times the defense or tracker hit a capacity limit and took its
    /// documented degraded path (RIT-full swap skip, Misra-Gries
    /// spillover, Hydra row-count-cache eviction) instead of panicking or
    /// silently wrapping. A nonzero value means the security verdict was
    /// reached under capacity pressure — the saturation contract makes
    /// that visible rather than weakening the verdict silently.
    pub saturation_events: u64,
    /// Closest approach to the threshold: `max_victim_pressure / t_rh`
    /// (`>= 1.0` iff the run crossed). This is the search subsystem's
    /// fitness tiebreak for candidates that never cross.
    pub closest_approach_ratio: f64,
    /// Simulated time the pressure maximum was first reached, if any
    /// activation was observed.
    pub closest_approach_ns: Option<u64>,
}

impl ToJson for SecurityReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("attack", Json::from(self.attack.as_str())),
            ("attacker_cores", self.attacker_cores.into()),
            ("t_rh", self.t_rh.into()),
            ("max_victim_pressure", self.max_victim_pressure.into()),
            ("latent_on_hottest_row", self.latent_on_hottest_row.into()),
            ("latent_activations", self.latent_activations.into()),
            ("trh_crossed", self.trh_crossed.into()),
            ("first_crossing_ns", self.first_crossing_ns.into()),
            (
                "first_crossing_row",
                self.first_crossing_row
                    .map_or(Json::Null, |(bank, row)| Json::Array(vec![bank.into(), row.into()])),
            ),
            ("unswap_swaps", self.unswap_swaps.into()),
            ("swaps_per_window", self.swaps_per_window.into()),
            ("attacker_reads", self.attacker_reads.into()),
            ("mitigations_observed", self.mitigations_observed.into()),
            ("latency_spikes", self.latency_spikes.into()),
            ("guesses_made", self.guesses_made.into()),
            ("saturation_events", self.saturation_events.into()),
            ("closest_approach_ratio", self.closest_approach_ratio.into()),
            ("closest_approach_ns", self.closest_approach_ns.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_dram::BankId;

    fn act(bank: usize, row: u64, maintenance: bool, at_ns: u64) -> ActivationEvent {
        ActivationEvent {
            bank: BankId::new(bank),
            row,
            logical_row: row,
            at_ns,
            maintenance,
            maintenance_kind: maintenance.then_some(srs_dram::MaintenanceKind::Swap),
        }
    }

    fn context() -> ReportContext {
        ReportContext {
            attack: "test".to_string(),
            attacker_cores: 1,
            elapsed_ns: 1_000_000,
            refresh_window_ns: 500_000,
            swaps: 6,
            unswap_swaps: 2,
            attacker_reads: 100,
            mitigations_observed: 6,
            latency_spikes: 3,
            guesses_made: 0,
            saturation_events: 0,
        }
    }

    #[test]
    fn activations_pressure_both_neighbors() {
        let mut t = SecurityTracker::new(10, 1 << 10, 2);
        t.on_activation(&act(0, 5, false, 100), None);
        t.on_activation(&act(0, 5, false, 200), None);
        assert_eq!(t.max_pressure(), 2, "rows 4 and 6 each carry two disturbances");
        assert!(!t.crossed());
    }

    #[test]
    fn edge_rows_have_one_neighbor() {
        let mut t = SecurityTracker::new(10, 4, 1);
        t.on_activation(&act(0, 0, false, 1), None); // only row 1 disturbed
        t.on_activation(&act(0, 3, false, 2), None); // only row 2 disturbed
        assert_eq!(t.max_pressure(), 1);
    }

    #[test]
    fn crossing_latches_time_and_row() {
        let mut t = SecurityTracker::new(3, 1 << 10, 1);
        for i in 0..3 {
            t.on_activation(&act(0, 8, false, 100 * (i + 1)), None);
        }
        assert!(t.crossed());
        let report = t.into_report(context());
        assert_eq!(report.first_crossing_ns, Some(300));
        assert_eq!(report.first_crossing_row, Some((0, 7)));
        assert!(report.trh_crossed);
        assert!((report.swaps_per_window - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_rollover_resets_pressure_but_keeps_maxima() {
        let mut t = SecurityTracker::new(100, 1 << 10, 1);
        for i in 0..5 {
            t.on_activation(&act(0, 8, false, i), None);
        }
        assert_eq!(t.max_pressure(), 5);
        t.on_window_rollover();
        t.on_activation(&act(0, 8, false, 1_000), None);
        assert_eq!(t.max_pressure(), 5, "all-time maximum survives the rollover");
        assert!(!t.crossed());
    }

    #[test]
    fn counter_accesses_carry_no_disturbance() {
        let mut t = SecurityTracker::new(3, 1 << 10, 1);
        for i in 0..10 {
            t.on_activation(
                &ActivationEvent {
                    bank: BankId::new(0),
                    row: 8,
                    logical_row: 8,
                    at_ns: i,
                    maintenance: true,
                    maintenance_kind: Some(srs_dram::MaintenanceKind::CounterAccess),
                },
                None,
            );
        }
        assert_eq!(t.max_pressure(), 0, "counter rows live in a reserved region");
        assert!(!t.crossed());
    }

    #[test]
    fn closest_approach_tracks_the_pressure_maximum() {
        let mut t = SecurityTracker::new(100, 1 << 10, 1);
        for i in 0..5 {
            t.on_activation(&act(0, 8, false, 10 * (i + 1)), None);
        }
        t.on_window_rollover();
        // A weaker second window must not move the recorded approach.
        t.on_activation(&act(0, 8, false, 900), None);
        let report = t.into_report(context());
        assert_eq!(report.closest_approach_ns, Some(50), "time the all-time max was reached");
        assert!((report.closest_approach_ratio - 0.05).abs() < 1e-12, "5 of TRH 100");
        assert!(!report.trh_crossed);
    }

    #[test]
    fn latent_pressure_is_separated() {
        let mut t = SecurityTracker::new(100, 1 << 10, 1);
        t.on_activation(&act(0, 8, false, 1), None);
        t.on_activation(&act(0, 8, true, 2), None);
        t.on_activation(&act(0, 8, true, 3), None);
        let report = t.into_report(context());
        assert_eq!(report.max_victim_pressure, 3);
        assert_eq!(report.latent_on_hottest_row, 2);
        assert_eq!(report.latent_activations, 4, "two latent acts disturb two neighbors each");
    }
}
