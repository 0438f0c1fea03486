//! Per-subsystem wall-time attribution.
//!
//! Aggregate throughput numbers say a run got faster; they never say
//! *where the nanoseconds went*. This module adds a cheap timer mode to
//! [`crate::System`]: when enabled, a handful of coarse stopwatch laps
//! around the simulator's subsystem boundaries — the controller's
//! scheduling sweep, the aggressor tracker's activation accounting, the
//! defense's mitigation and lazy place-back work, the RIT address
//! translation on the issue path, and the security/attack-feedback
//! fan-out — accumulate into a [`SubsystemTimers`] ledger that folds into
//! an [`AttributionReport`]. The throughput bench records the report into
//! `BENCH_throughput.json`, so every perf PR lands against a breakdown
//! instead of a single number.
//!
//! The default path stays zero-cost: a disabled ledger never calls
//! [`Instant::now`] — each probe site is one predictable branch on the
//! `enabled` flag. The timed run is a *separate* pass from the headline
//! throughput measurement, because the laps themselves (two `Instant`
//! reads per batch per subsystem) perturb the quantity being measured.
//!
//! Buckets nest at the probe sites (the tracker loop runs inside the
//! controller tick; mitigation triggers run inside the tracker loop), so
//! the report subtracts inner laps from outer ones to make every bucket
//! *exclusive*: the buckets plus `other_ns` (issue loops, event-time
//! computation, bookkeeping) sum to the measured wall time, up to timer
//! noise.

use std::time::Instant;

use crate::json::{obj, Json, ToJson};

/// Raw stopwatch ledger, accumulated at the subsystem probe sites.
///
/// The buckets here are *inclusive* (an outer lap contains the inner laps
/// taken while it ran); `AttributionReport::from_timers` converts them
/// into exclusive buckets.
#[derive(Debug, Clone, Default)]
pub struct SubsystemTimers {
    enabled: bool,
    /// Whole controller tick (`tick_into`), including the sink work the
    /// activation/completion streams trigger.
    pub(crate) controller_raw_ns: u64,
    /// Demand-activation accounting loop: per-row window counts, probe
    /// fan-out, the tracker update, and (nested) mitigation triggers.
    pub(crate) tracker_raw_ns: u64,
    /// Attack feedback and security accounting fan-out (zero on benign
    /// runs, which skip the fan-out entirely).
    pub(crate) security_ns: u64,
    /// `on_mitigation_trigger` calls (nested inside the tracker loop).
    pub(crate) defense_trigger_ns: u64,
    /// Lazy defense work (`on_tick`: SRS place-back pacing).
    pub(crate) defense_lazy_ns: u64,
    /// RIT address translation on the issue path (`remapped_address`).
    pub(crate) rit_ns: u64,
}

impl SubsystemTimers {
    /// A ledger with the stopwatches armed.
    #[must_use]
    pub fn armed() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// Start a lap: `Some(now)` when armed, `None` (no clock read) when
    /// disabled.
    #[inline]
    pub(crate) fn stamp(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Close a lap opened by [`SubsystemTimers::stamp`] into `bucket`.
    #[inline]
    pub(crate) fn lap(stamp: Option<Instant>, bucket: &mut u64) {
        if let Some(start) = stamp {
            *bucket += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }
}

/// Exclusive per-subsystem wall-time breakdown of one simulation run.
///
/// All fields are wall nanoseconds; the six buckets sum to `wall_ns` up to
/// timer noise (`other_ns` absorbs everything outside a probe site: core
/// issue loops, next-event computation, deferred-queue bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttributionReport {
    /// Wall time of the whole run.
    pub wall_ns: u64,
    /// Controller scheduling, timing model and completion delivery,
    /// excluding the sink work it triggers.
    pub controller_schedule_ns: u64,
    /// Aggressor-tracker accounting: per-row window counts plus the
    /// tracker's own update, excluding mitigation triggers.
    pub tracker_ns: u64,
    /// Defense work: mitigation triggers plus lazy place-back.
    pub defense_ns: u64,
    /// RIT address translation on the issue path.
    pub rit_ns: u64,
    /// Security accounting and attacker feedback fan-out.
    pub security_ns: u64,
    /// Everything outside the probe sites.
    pub other_ns: u64,
}

impl AttributionReport {
    /// Fold a raw (inclusive) ledger plus the run's wall time into
    /// exclusive buckets.
    #[must_use]
    pub(crate) fn from_timers(timers: &SubsystemTimers, wall_ns: u64) -> Self {
        let tracker_ns = timers.tracker_raw_ns.saturating_sub(timers.defense_trigger_ns);
        let controller_schedule_ns = timers
            .controller_raw_ns
            .saturating_sub(timers.tracker_raw_ns)
            .saturating_sub(timers.security_ns);
        let accounted = timers.controller_raw_ns + timers.defense_lazy_ns + timers.rit_ns;
        Self {
            wall_ns,
            controller_schedule_ns,
            tracker_ns,
            defense_ns: timers.defense_trigger_ns + timers.defense_lazy_ns,
            rit_ns: timers.rit_ns,
            security_ns: timers.security_ns,
            other_ns: wall_ns.saturating_sub(accounted),
        }
    }

    /// Decode the [`ToJson`] encoding — the inverse used by `srs-cli
    /// report` to read back the `{"attribution": ...}` footer that
    /// `srs-cli run --attribution` appends to a results stream.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or non-integer field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |name: &str| -> Result<u64, String> {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("attribution.{name} must be an integer"))
        };
        Ok(Self {
            wall_ns: field("wall_ns")?,
            controller_schedule_ns: field("controller_schedule_ns")?,
            tracker_ns: field("tracker_ns")?,
            defense_ns: field("defense_ns")?,
            rit_ns: field("rit_ns")?,
            security_ns: field("security_ns")?,
            other_ns: field("other_ns")?,
        })
    }

    /// Element-wise sum, for aggregating a breakdown over several cells.
    #[must_use]
    pub fn merged(&self, other: &AttributionReport) -> AttributionReport {
        AttributionReport {
            wall_ns: self.wall_ns + other.wall_ns,
            controller_schedule_ns: self.controller_schedule_ns + other.controller_schedule_ns,
            tracker_ns: self.tracker_ns + other.tracker_ns,
            defense_ns: self.defense_ns + other.defense_ns,
            rit_ns: self.rit_ns + other.rit_ns,
            security_ns: self.security_ns + other.security_ns,
            other_ns: self.other_ns + other.other_ns,
        }
    }
}

impl ToJson for AttributionReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("wall_ns", Json::Uint(self.wall_ns)),
            ("controller_schedule_ns", Json::Uint(self.controller_schedule_ns)),
            ("tracker_ns", Json::Uint(self.tracker_ns)),
            ("defense_ns", Json::Uint(self.defense_ns)),
            ("rit_ns", Json::Uint(self.rit_ns)),
            ("security_ns", Json::Uint(self.security_ns)),
            ("other_ns", Json::Uint(self.other_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ledger_never_stamps() {
        let timers = SubsystemTimers::default();
        assert!(timers.stamp().is_none());
        let mut bucket = 0;
        SubsystemTimers::lap(None, &mut bucket);
        assert_eq!(bucket, 0);
    }

    #[test]
    fn armed_ledger_accumulates() {
        let timers = SubsystemTimers::armed();
        let stamp = timers.stamp();
        assert!(stamp.is_some());
        let mut bucket = 0;
        SubsystemTimers::lap(stamp, &mut bucket);
        // Monotone clock: a closed lap records *some* duration (may be 0 on
        // coarse clocks, so only check it does not wrap).
        assert!(bucket < u64::MAX / 2);
    }

    #[test]
    fn report_makes_buckets_exclusive_and_exhaustive() {
        let timers = SubsystemTimers {
            enabled: true,
            controller_raw_ns: 1_000,
            tracker_raw_ns: 400,
            security_ns: 100,
            defense_trigger_ns: 150,
            defense_lazy_ns: 50,
            rit_ns: 30,
        };
        let report = AttributionReport::from_timers(&timers, 2_000);
        assert_eq!(report.controller_schedule_ns, 500); // 1000 - 400 - 100
        assert_eq!(report.tracker_ns, 250); // 400 - 150
        assert_eq!(report.defense_ns, 200); // 150 + 50
        assert_eq!(report.rit_ns, 30);
        assert_eq!(report.security_ns, 100);
        assert_eq!(report.other_ns, 920); // 2000 - 1000 - 50 - 30
        let sum = report.controller_schedule_ns
            + report.tracker_ns
            + report.defense_ns
            + report.rit_ns
            + report.security_ns
            + report.other_ns;
        assert_eq!(sum, report.wall_ns);
    }

    #[test]
    fn merged_adds_element_wise() {
        let a = AttributionReport { wall_ns: 10, tracker_ns: 3, ..Default::default() };
        let b = AttributionReport { wall_ns: 5, tracker_ns: 2, other_ns: 1, ..Default::default() };
        let m = a.merged(&b);
        assert_eq!(m.wall_ns, 15);
        assert_eq!(m.tracker_ns, 5);
        assert_eq!(m.other_ns, 1);
    }

    #[test]
    fn report_round_trips_through_the_json_codec() {
        let report = AttributionReport {
            wall_ns: 123,
            controller_schedule_ns: 40,
            tracker_ns: 30,
            defense_ns: 20,
            rit_ns: 10,
            security_ns: 3,
            other_ns: 20,
        };
        let encoded = report.to_json().to_compact();
        let parsed = Json::parse(&encoded).unwrap();
        assert_eq!(parsed.get("wall_ns").and_then(Json::as_u64), Some(123));
        assert_eq!(parsed.get("tracker_ns").and_then(Json::as_u64), Some(30));
        assert_eq!(parsed.get("other_ns").and_then(Json::as_u64), Some(20));
    }
}
