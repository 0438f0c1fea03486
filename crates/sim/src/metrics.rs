//! Results produced by simulation runs.

use srs_dram::ControllerStats;

use crate::faults::IntegrityReport;
use crate::json::{obj, Json, ToJson};
use crate::security::SecurityReport;
use crate::telemetry::TelemetryReport;

/// The result of simulating one workload on one system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Defense name (`"baseline"`, `"rrs"`, `"srs"`, `"scale-srs"`, ...).
    pub defense: String,
    /// Row Hammer threshold of the run.
    pub t_rh: u64,
    /// Simulated time at which the run ended, in nanoseconds.
    pub elapsed_ns: u64,
    /// Per-core instructions-per-cycle values.
    pub per_core_ipc: Vec<f64>,
    /// Total instructions retired by all cores.
    pub instructions: u64,
    /// Memory-controller statistics.
    pub controller: ControllerStats,
    /// Total swaps performed by the defense.
    pub swaps: u64,
    /// Rows pinned in the LLC by Scale-SRS during the run.
    pub rows_pinned: u64,
    /// Demand accesses served from pinned LLC rows instead of DRAM.
    pub pinned_hits: u64,
    /// Largest per-row activation count observed in any refresh window.
    pub max_row_activations_in_window: u64,
    /// Security metrics of the run, present when it carried an attack
    /// scenario ([`crate::config::SystemConfig::attack`]).
    pub security: Option<SecurityReport>,
    /// Data-integrity metrics of the run, present when it carried an
    /// attack scenario with fault injection enabled
    /// ([`crate::config::SystemConfig::faults`]): actual bit flips and
    /// corrupted reads, as opposed to the TRH-crossing proxy in
    /// [`SimResult::security`].
    pub integrity: Option<IntegrityReport>,
    /// Telemetry of the run, present when the configuration armed the
    /// recorder ([`crate::config::SystemConfig::telemetry`]).
    ///
    /// Deliberately **excluded** from [`ToJson`]: the results JSONL stream
    /// is byte-identical whether telemetry was armed or not (CI-enforced),
    /// so arming it can never perturb a published result. Telemetry flows
    /// out through [`crate::telemetry::TelemetrySidecarSink`] and the
    /// `srs-cli trace` exporters instead.
    pub telemetry: Option<TelemetryReport>,
}

impl SimResult {
    /// Sum of per-core IPCs (the throughput metric USIMM reports).
    #[must_use]
    pub fn total_ipc(&self) -> f64 {
        self.per_core_ipc.iter().sum()
    }

    /// Fraction of DRAM activity spent on mitigation (swap) operations.
    #[must_use]
    pub fn swap_traffic_fraction(&self) -> f64 {
        let total = self.controller.activations.max(1) as f64;
        self.controller.maintenance_activations as f64 / total
    }
}

impl ToJson for SimResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("workload", Json::from(self.workload.as_str())),
            ("defense", Json::from(self.defense.as_str())),
            ("t_rh", self.t_rh.into()),
            ("elapsed_ns", self.elapsed_ns.into()),
            ("per_core_ipc", Json::Array(self.per_core_ipc.iter().map(|&v| v.into()).collect())),
            ("total_ipc", self.total_ipc().into()),
            ("instructions", self.instructions.into()),
            ("controller", self.controller.to_json()),
            ("swaps", self.swaps.into()),
            ("rows_pinned", self.rows_pinned.into()),
            ("pinned_hits", self.pinned_hits.into()),
            ("max_row_activations_in_window", self.max_row_activations_in_window.into()),
            ("security", self.security.as_ref().map_or(Json::Null, ToJson::to_json)),
            ("integrity", self.integrity.as_ref().map_or(Json::Null, ToJson::to_json)),
        ])
    }
}

impl ToJson for ControllerStats {
    fn to_json(&self) -> Json {
        // Per-kind maintenance counts come out of a hash map; sort by the
        // kind's display label so the encoding is deterministic.
        let mut ops: Vec<(String, u64)> =
            self.maintenance_ops.iter().map(|(kind, &count)| (kind.to_string(), count)).collect();
        ops.sort_unstable();
        obj(vec![
            ("reads", self.reads.into()),
            ("writes", self.writes.into()),
            ("row_hits", self.row_hits.into()),
            ("row_misses", self.row_misses.into()),
            ("activations", self.activations.into()),
            ("maintenance_activations", self.maintenance_activations.into()),
            (
                "maintenance_ops",
                Json::Object(ops.into_iter().map(|(k, v)| (k, v.into())).collect()),
            ),
            ("maintenance_busy_ns", self.maintenance_busy_ns.into()),
            ("refreshes", self.refreshes.into()),
            ("total_demand_latency_ns", self.total_demand_latency_ns.into()),
            ("windows_elapsed", self.windows_elapsed.into()),
        ])
    }
}

/// A defense result normalized against its baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedResult {
    /// Workload name.
    pub workload: String,
    /// Defense name.
    pub defense: String,
    /// Row Hammer threshold.
    pub t_rh: u64,
    /// Defense IPC divided by baseline IPC (1.0 means no slowdown).
    pub normalized_performance: f64,
    /// The defense run's raw result.
    pub detail: SimResult,
}

impl NormalizedResult {
    /// Slowdown as a positive fraction (0.04 means 4% slower than baseline).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        1.0 - self.normalized_performance
    }
}

impl ToJson for NormalizedResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("workload", Json::from(self.workload.as_str())),
            ("defense", Json::from(self.defense.as_str())),
            ("t_rh", self.t_rh.into()),
            ("normalized_performance", self.normalized_performance.into()),
            ("detail", self.detail.to_json()),
        ])
    }
}

/// Arithmetic mean of the normalized performance of a set of results (how
/// the paper aggregates each suite and the ALL-78 bar).
///
/// Accepts anything yielding result references — a `&Vec<NormalizedResult>`
/// or the borrowed groups [`crate::scenario::results_for`] and
/// [`crate::scenario::results_where`] return — so aggregation never forces
/// a clone of the (large) result records.
pub fn mean_normalized<'a, I>(results: I) -> f64
where
    I: IntoIterator<Item = &'a NormalizedResult>,
{
    let (mut sum, mut count) = (0.0f64, 0usize);
    for r in results {
        sum += r.normalized_performance;
        count += 1;
    }
    if count == 0 {
        return 1.0;
    }
    sum / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(norm: f64) -> NormalizedResult {
        NormalizedResult {
            workload: "w".to_string(),
            defense: "d".to_string(),
            t_rh: 1200,
            normalized_performance: norm,
            detail: SimResult {
                workload: "w".to_string(),
                defense: "d".to_string(),
                t_rh: 1200,
                elapsed_ns: 1000,
                per_core_ipc: vec![1.0, 2.0],
                instructions: 100,
                controller: ControllerStats::default(),
                swaps: 0,
                rows_pinned: 0,
                pinned_hits: 0,
                max_row_activations_in_window: 0,
                security: None,
                integrity: None,
                telemetry: None,
            },
        }
    }

    #[test]
    fn total_ipc_sums_cores() {
        assert!((result(1.0).detail.total_ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_is_one_minus_normalized() {
        assert!((result(0.96).slowdown() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn mean_handles_empty_and_nonempty() {
        assert_eq!(mean_normalized(&[] as &[NormalizedResult]), 1.0);
        let results = vec![result(0.9), result(1.0)];
        assert!((mean_normalized(&results) - 0.95).abs() < 1e-12);
        // Borrowed groups (what `results_for` returns) aggregate without
        // cloning.
        let group: Vec<&NormalizedResult> = results.iter().collect();
        assert!((mean_normalized(group) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn swap_fraction_divides_by_activations() {
        let mut r = result(1.0);
        r.detail.controller.activations = 200;
        r.detail.controller.maintenance_activations = 20;
        assert!((r.detail.swap_traffic_fraction() - 0.1).abs() < 1e-12);
    }
}
