//! Aggregate statistics collected by the memory controller.

use std::collections::HashMap;

use crate::command::MaintenanceKind;
use crate::Nanos;

/// Statistics accumulated by a [`crate::MemoryController`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerStats {
    /// Number of demand reads serviced.
    pub reads: u64,
    /// Number of demand writes serviced.
    pub writes: u64,
    /// Demand accesses that hit in an open row buffer.
    pub row_hits: u64,
    /// Demand accesses that required activating a row (closed or conflict).
    pub row_misses: u64,
    /// Total row activations, demand plus maintenance.
    pub activations: u64,
    /// Row activations issued by maintenance (mitigation) operations only.
    pub maintenance_activations: u64,
    /// Number of maintenance operations executed, by kind.
    pub maintenance_ops: HashMap<MaintenanceKind, u64>,
    /// Total bank-occupancy time consumed by maintenance operations.
    pub maintenance_busy_ns: Nanos,
    /// Number of refresh (REF) commands issued.
    pub refreshes: u64,
    /// Sum of demand-access latencies, for computing the average.
    pub total_demand_latency_ns: Nanos,
    /// Number of refresh windows (64 ms epochs) that have elapsed.
    pub windows_elapsed: u64,
}

impl ControllerStats {
    /// Total demand accesses serviced.
    #[must_use]
    pub fn demand_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Average demand-access latency in nanoseconds, or 0 if no accesses.
    #[must_use]
    pub fn average_latency_ns(&self) -> f64 {
        if self.demand_accesses() == 0 {
            0.0
        } else {
            self.total_demand_latency_ns as f64 / self.demand_accesses() as f64
        }
    }

    /// Row-buffer hit rate over demand accesses, in [0, 1].
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Total maintenance operations of a given kind.
    #[must_use]
    pub fn maintenance_count(&self, kind: MaintenanceKind) -> u64 {
        self.maintenance_ops.get(&kind).copied().unwrap_or(0)
    }

    /// Record one maintenance operation of the given kind.
    pub(crate) fn record_maintenance(&mut self, kind: MaintenanceKind, busy_ns: Nanos, acts: u64) {
        *self.maintenance_ops.entry(kind).or_insert(0) += 1;
        self.maintenance_busy_ns += busy_ns;
        self.maintenance_activations += acts;
        self.activations += acts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_empty_stats() {
        let s = ControllerStats::default();
        assert_eq!(s.average_latency_ns(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.demand_accesses(), 0);
    }

    #[test]
    fn maintenance_recording_accumulates() {
        let mut s = ControllerStats::default();
        s.record_maintenance(MaintenanceKind::Swap, 2700, 2);
        s.record_maintenance(MaintenanceKind::Swap, 2700, 2);
        s.record_maintenance(MaintenanceKind::PlaceBack, 1350, 1);
        assert_eq!(s.maintenance_count(MaintenanceKind::Swap), 2);
        assert_eq!(s.maintenance_count(MaintenanceKind::PlaceBack), 1);
        assert_eq!(s.maintenance_count(MaintenanceKind::UnswapSwap), 0);
        assert_eq!(s.maintenance_busy_ns, 6750);
        assert_eq!(s.maintenance_activations, 5);
        assert_eq!(s.activations, 5);
    }

    #[test]
    fn hit_rate_and_latency_math() {
        let s = ControllerStats {
            reads: 3,
            writes: 1,
            row_hits: 1,
            row_misses: 3,
            total_demand_latency_ns: 400,
            ..ControllerStats::default()
        };
        assert_eq!(s.demand_accesses(), 4);
        assert!((s.average_latency_ns() - 100.0).abs() < f64::EPSILON);
        assert!((s.row_hit_rate() - 0.25).abs() < f64::EPSILON);
    }
}
