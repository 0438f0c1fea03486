//! Deterministic simulated-time telemetry: event tracing, a fixed set of
//! counters, gauges and histograms, and Perfetto trace export.
//!
//! Everything in this module is keyed on **simulated nanoseconds**, never
//! the wall clock, so an armed run's telemetry is bit-deterministic: two
//! runs of one configuration produce identical traces, and the time-skip
//! engine produces the identical trace to the fixed-step oracle (armed
//! sampling deadlines join the event-time candidate set, so both engines
//! visit every sample tick; see `System::next_event_time`).
//!
//! Telemetry is also provably **non-perturbing**: the recorder only ever
//! observes — no hook mutates simulation state, and the report rides on
//! [`crate::metrics::SimResult`] *outside* its JSON encoding, so a results
//! JSONL stream is byte-identical with telemetry armed or disarmed (CI
//! enforces this on the quickstart grid). Disarmed, the recorder is one
//! null pointer and every hook returns after a single predictable branch
//! on it — the same zero-cost pattern as
//! [`crate::attribution::SubsystemTimers`], but on simulated time.
//!
//! Events and samples land in preallocated ring buffers that overwrite the
//! oldest entry once full and count what they dropped, so an armed cell has
//! a hard memory bound no matter how hot it runs. The report is write-only:
//! the sidecar and the Perfetto export are plain JSON, and nothing in the
//! workspace decodes them back.

use std::io::Write;

use crate::json::{obj, Json, ToJson};
use crate::scenario::ScenarioResult;
use crate::sink::ResultSink;

/// Configuration of the telemetry subsystem for one simulated cell
/// (the `"telemetry"` block of a spec file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether the recorder is armed. Disarmed (the default) costs one
    /// branch per hook and allocates nothing.
    pub enabled: bool,
    /// Simulated-ns cadence of the gauge sampler (queue depths, tracker and
    /// RIT occupancy). Quantized to the engines' 25 ns tick grid at use.
    pub sample_interval_ns: u64,
    /// Capacity of the event ring buffer; the oldest events are overwritten
    /// (and counted as dropped) once it fills.
    pub event_capacity: usize,
    /// Capacity of each gauge's sample ring buffer.
    pub sample_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            sample_interval_ns: 100_000,
            event_capacity: 4096,
            sample_capacity: 2048,
        }
    }
}

impl TelemetryConfig {
    /// The default configuration with the recorder armed.
    #[must_use]
    pub fn armed() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// Decode a `"telemetry"` configuration block.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field if a present field has
    /// the wrong type; absent fields keep their defaults.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let mut config = Self::default();
        let Some(fields) = json.as_object() else {
            return Err("telemetry config must be an object".to_string());
        };
        for (key, value) in fields {
            match key.as_str() {
                "enabled" => {
                    config.enabled =
                        value.as_bool().ok_or("telemetry.enabled must be a boolean")?;
                }
                "sample_interval_ns" => {
                    config.sample_interval_ns = value
                        .as_u64()
                        .filter(|&v| v > 0)
                        .ok_or("telemetry.sample_interval_ns must be a positive integer")?;
                }
                "event_capacity" => {
                    config.event_capacity = usize::try_from(
                        value.as_u64().ok_or("telemetry.event_capacity must be an integer")?,
                    )
                    .map_err(|_| "telemetry.event_capacity out of range")?;
                }
                "sample_capacity" => {
                    config.sample_capacity = usize::try_from(
                        value.as_u64().ok_or("telemetry.sample_capacity must be an integer")?,
                    )
                    .map_err(|_| "telemetry.sample_capacity out of range")?;
                }
                other => return Err(format!("unknown telemetry field '{other}'")),
            }
        }
        Ok(config)
    }
}

impl ToJson for TelemetryConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("enabled", self.enabled.into()),
            ("sample_interval_ns", self.sample_interval_ns.into()),
            ("event_capacity", self.event_capacity.into()),
            ("sample_capacity", self.sample_capacity.into()),
        ])
    }
}

/// The typed event vocabulary of the trace recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A row-swap maintenance operation was enqueued (value = duration ns).
    Swap,
    /// An unswap-swap operation was enqueued (value = duration ns).
    UnswapSwap,
    /// A place-back / bulk-unswap operation was enqueued (value = duration
    /// ns).
    PlaceBack,
    /// Tracker counter-table DRAM traffic was enqueued (value = duration
    /// ns).
    CounterAccess,
    /// Scale-SRS pinned a row into the LLC (value = logical row).
    RowPin,
    /// The aggressor tracker crossed the swap threshold and triggered the
    /// defense (value = logical row).
    MitigationTrigger,
    /// The security tracker observed the first Row Hammer threshold
    /// crossing of the run (latched once).
    TrhCrossing,
    /// An attacker core changed program phase (bank = attacker index,
    /// value = 1 entering the random-guess phase).
    AttackPhase,
    /// A demand access found its bank queue full and was deferred
    /// (value = deferred-queue depth after the push).
    QueueStall,
    /// The adaptive attack search installed a candidate attack on a fork
    /// of the warm snapshot (value = the candidate's attacker seed).
    SearchPhase,
    /// The fault model committed a bit flip to a logical row (value = the
    /// damaged logical row).
    BitFlip,
    /// A demand read served silently corrupted data past the ECC
    /// (value = the damaged logical row's bank-relative row id is not
    /// recoverable here, so value = 1).
    CorruptedRead,
    /// A defense or tracker hit a capacity limit and took its degraded
    /// path (value = number of saturation events this tick).
    Saturation,
}

impl EventKind {
    /// The stable wire label of this kind.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Swap => "swap",
            EventKind::UnswapSwap => "unswap-swap",
            EventKind::PlaceBack => "place-back",
            EventKind::CounterAccess => "counter-access",
            EventKind::RowPin => "row-pin",
            EventKind::MitigationTrigger => "mitigation-trigger",
            EventKind::TrhCrossing => "trh-crossing",
            EventKind::AttackPhase => "attack-phase",
            EventKind::QueueStall => "queue-stall",
            EventKind::SearchPhase => "search-phase",
            EventKind::BitFlip => "bit-flip",
            EventKind::CorruptedRead => "corrupted-read",
            EventKind::Saturation => "saturation",
        }
    }

    /// Whether the event's value is a duration (rendered as a Perfetto
    /// complete slice) rather than an instant payload.
    #[must_use]
    fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::Swap
                | EventKind::UnswapSwap
                | EventKind::PlaceBack
                | EventKind::CounterAccess
        )
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// The bank the event concerns (attacker index for
    /// [`EventKind::AttackPhase`], 0 where not meaningful).
    pub bank: u32,
    /// Kind-specific payload (duration, row, or depth — see each kind).
    pub value: u64,
}

/// A preallocated ring that overwrites its oldest entry once full and
/// counts every overwritten entry as dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ring<T: Copy> {
    items: Vec<T>,
    capacity: usize,
    /// Next write position once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    fn new(capacity: usize) -> Self {
        Self { items: Vec::with_capacity(capacity), capacity, head: 0, dropped: 0 }
    }

    #[inline]
    fn push(&mut self, item: T) {
        if self.capacity == 0 {
            self.dropped += 1;
        } else if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The retained entries in chronological order (oldest first).
    fn in_order(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.items.len());
        out.extend_from_slice(&self.items[self.head..]);
        out.extend_from_slice(&self.items[..self.head]);
        out
    }
}

/// A base-2 exponential histogram: bucket 0 counts zero values and bucket
/// `i >= 1` counts values in `[2^(i-1), 2^i)`, so the full `u64` range maps
/// into 65 buckets with no configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Bucket count: one zero bucket plus one per `u64` bit.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { buckets: [0; Self::BUCKETS], count: 0, sum: 0 }
    }

    /// The bucket index a value lands in.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The count in one bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= Self::BUCKETS`.
    #[must_use]
    pub fn bucket(&self, bucket: usize) -> u64 {
        self.buckets[bucket]
    }

    /// The occupied `(bucket, count)` pairs, in bucket order.
    #[must_use]
    pub fn occupied(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, &count)| (i, count))
            .collect()
    }
}

impl ToJson for Log2Histogram {
    /// Sparse encoding: only occupied buckets are written.
    fn to_json(&self) -> Json {
        let buckets = self
            .occupied()
            .into_iter()
            .map(|(i, count)| Json::Array(vec![i.into(), count.into()]))
            .collect();
        obj(vec![
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("buckets", Json::Array(buckets)),
        ])
    }
}

/// The live, in-simulation telemetry recorder.
///
/// Disarmed ([`Telemetry::disarmed`], the default for every configuration
/// with `telemetry.enabled == false`) it is one null pointer: nothing is
/// allocated, and every hook returns after one branch. Armed, it boxes one
/// `Recorder` that records typed events into a ring, keeps the fixed
/// metric set, and exposes the next sample deadline for the event engine's
/// candidate set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry(Option<Box<Recorder>>);

/// The armed state of a [`Telemetry`]: the sample cadence, the event ring,
/// the fixed metric set (7 counters, 2 histograms, 4 gauge rings) and the
/// latches that turn simulation state into transition events.
#[derive(Debug, Clone, PartialEq)]
struct Recorder {
    sample_interval_ns: u64,
    next_sample_ns: u64,
    events: Ring<TraceEvent>,
    mitigation_triggers: u64,
    maintenance_ops: u64,
    queue_stalls: u64,
    reads_completed: u64,
    bit_flips: u64,
    corrupted_reads: u64,
    saturation_events: u64,
    memory_latency_ns: Log2Histogram,
    swap_stall_ns: Log2Histogram,
    bank_queue_depth: Ring<(u64, u64)>,
    deferred_depth: Ring<(u64, u64)>,
    tracker_occupancy: Ring<(u64, u64)>,
    rit_live_rows: Ring<(u64, u64)>,
    trh_latched: bool,
    /// Per-attacker guess-phase latch for transition detection.
    attacker_in_guess: Vec<bool>,
}

impl Recorder {
    #[inline]
    fn event(&mut self, at_ns: u64, kind: EventKind, bank: u32, value: u64) {
        self.events.push(TraceEvent { at_ns, kind, bank, value });
    }
}

impl Telemetry {
    /// A disarmed recorder: nothing allocated, every hook one branch.
    #[must_use]
    pub fn disarmed() -> Self {
        Self(None)
    }

    /// Build a recorder for `config` (disarmed unless `config.enabled`).
    #[must_use]
    pub fn new(config: &TelemetryConfig) -> Self {
        if !config.enabled {
            return Self::disarmed();
        }
        let interval = config.sample_interval_ns.max(1);
        let gauge = || Ring::new(config.sample_capacity);
        Self(Some(Box::new(Recorder {
            sample_interval_ns: interval,
            next_sample_ns: interval,
            events: Ring::new(config.event_capacity),
            mitigation_triggers: 0,
            maintenance_ops: 0,
            queue_stalls: 0,
            reads_completed: 0,
            bit_flips: 0,
            corrupted_reads: 0,
            saturation_events: 0,
            memory_latency_ns: Log2Histogram::new(),
            swap_stall_ns: Log2Histogram::new(),
            bank_queue_depth: gauge(),
            deferred_depth: gauge(),
            tracker_occupancy: gauge(),
            rit_live_rows: gauge(),
            trh_latched: false,
            attacker_in_guess: Vec::new(),
        })))
    }

    /// Whether the recorder is armed.
    #[inline]
    #[must_use]
    pub fn armed(&self) -> bool {
        self.0.is_some()
    }

    /// The next simulated-ns sample deadline, for the event engine's
    /// candidate set (`None` when disarmed).
    #[inline]
    #[must_use]
    pub fn next_sample_ns(&self) -> Option<u64> {
        self.0.as_ref().map(|r| r.next_sample_ns)
    }

    /// Whether a sample is due at `now`.
    #[inline]
    #[must_use]
    pub(crate) fn sample_due(&self, now: u64) -> bool {
        self.0.as_ref().is_some_and(|r| r.next_sample_ns <= now)
    }

    /// Whether the TRH-crossing event has been recorded.
    #[inline]
    #[must_use]
    pub(crate) fn trh_latched(&self) -> bool {
        self.0.as_ref().is_some_and(|r| r.trh_latched)
    }

    /// Record a maintenance row operation (swap family or counter access).
    pub(crate) fn record_op(&mut self, at_ns: u64, kind: EventKind, bank: u32, duration_ns: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.maintenance_ops += 1;
        if matches!(kind, EventKind::Swap | EventKind::UnswapSwap) {
            r.swap_stall_ns.record(duration_ns);
        }
        r.event(at_ns, kind, bank, duration_ns);
    }

    /// Record a mitigation trigger on `bank` for `row`.
    pub(crate) fn record_mitigation(&mut self, at_ns: u64, bank: u32, row: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.mitigation_triggers += 1;
        r.event(at_ns, EventKind::MitigationTrigger, bank, row);
    }

    /// Record an adaptive-search candidate installation on a warm fork.
    pub(crate) fn record_search_fork(&mut self, at_ns: u64, candidate_seed: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.event(at_ns, EventKind::SearchPhase, 0, candidate_seed);
    }

    /// Record a Scale-SRS row pin.
    pub(crate) fn record_row_pin(&mut self, at_ns: u64, bank: u32, row: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.event(at_ns, EventKind::RowPin, bank, row);
    }

    /// Record a bank-queue stall (a deferred demand access).
    pub(crate) fn record_queue_stall(&mut self, at_ns: u64, bank: u32, depth: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.queue_stalls += 1;
        r.event(at_ns, EventKind::QueueStall, bank, depth);
    }

    /// Record one completed demand read's end-to-end latency.
    #[inline]
    pub(crate) fn record_read_latency(&mut self, latency_ns: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.reads_completed += 1;
        r.memory_latency_ns.record(latency_ns);
    }

    /// Record a committed bit flip on logical `row` of `bank`.
    pub(crate) fn record_bit_flip(&mut self, at_ns: u64, bank: u32, row: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.bit_flips += 1;
        r.event(at_ns, EventKind::BitFlip, bank, row);
    }

    /// Record a demand read that served silently corrupted data.
    pub(crate) fn record_corrupted_read(&mut self, at_ns: u64, bank: u32) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.corrupted_reads += 1;
        r.event(at_ns, EventKind::CorruptedRead, bank, 1);
    }

    /// Record `count` defense/tracker saturation events on `bank`.
    pub(crate) fn record_saturation(&mut self, at_ns: u64, bank: u32, count: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.saturation_events += count;
        r.event(at_ns, EventKind::Saturation, bank, count);
    }

    /// Latch the run's first TRH crossing (subsequent calls are no-ops).
    pub(crate) fn latch_trh_crossing(&mut self, at_ns: u64) {
        let Some(r) = self.0.as_deref_mut() else { return };
        if !r.trh_latched {
            r.trh_latched = true;
            r.event(at_ns, EventKind::TrhCrossing, 0, 1);
        }
    }

    /// Record attacker `index`'s phase, emitting an event on each change.
    pub(crate) fn latch_attack_phase(&mut self, at_ns: u64, index: usize, in_guess: bool) {
        let Some(r) = self.0.as_deref_mut() else { return };
        if r.attacker_in_guess.len() <= index {
            r.attacker_in_guess.resize(index + 1, false);
        }
        if r.attacker_in_guess[index] != in_guess {
            r.attacker_in_guess[index] = in_guess;
            let bank = u32::try_from(index).unwrap_or(u32::MAX);
            r.event(at_ns, EventKind::AttackPhase, bank, u64::from(in_guess));
        }
    }

    /// Push one sample of every gauge and advance the sample deadline.
    pub(crate) fn sample(
        &mut self,
        at_ns: u64,
        bank_queue_depth: u64,
        deferred_depth: u64,
        tracker_occupancy: u64,
        rit_live_rows: u64,
    ) {
        let Some(r) = self.0.as_deref_mut() else { return };
        r.bank_queue_depth.push((at_ns, bank_queue_depth));
        r.deferred_depth.push((at_ns, deferred_depth));
        r.tracker_occupancy.push((at_ns, tracker_occupancy));
        r.rit_live_rows.push((at_ns, rit_live_rows));
        r.next_sample_ns += r.sample_interval_ns;
    }

    /// Freeze the recorder into its report (`None` when disarmed), leaving
    /// it disarmed.
    #[must_use]
    pub(crate) fn take_report(&mut self) -> Option<TelemetryReport> {
        let r = *self.0.take()?;
        let series = |name: &str, ring: Ring<(u64, u64)>| {
            (name.to_string(), SampleSeries { samples: ring.in_order(), dropped: ring.dropped })
        };
        Some(TelemetryReport {
            sample_interval_ns: r.sample_interval_ns,
            events: r.events.in_order(),
            events_dropped: r.events.dropped,
            counters: vec![
                ("mitigation_triggers".to_string(), r.mitigation_triggers),
                ("maintenance_ops".to_string(), r.maintenance_ops),
                ("queue_stalls".to_string(), r.queue_stalls),
                ("reads_completed".to_string(), r.reads_completed),
                ("bit_flips".to_string(), r.bit_flips),
                ("corrupted_reads".to_string(), r.corrupted_reads),
                ("saturation_events".to_string(), r.saturation_events),
            ],
            histograms: vec![
                ("memory_latency_ns".to_string(), r.memory_latency_ns),
                ("swap_stall_ns".to_string(), r.swap_stall_ns),
            ],
            series: vec![
                series("bank_queue_depth", r.bank_queue_depth),
                series("deferred_depth", r.deferred_depth),
                series("tracker_occupancy", r.tracker_occupancy),
                series("rit_live_rows", r.rit_live_rows),
            ],
        })
    }
}

/// One gauge's frozen sample sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampleSeries {
    /// `(at_ns, value)` samples in chronological order.
    pub samples: Vec<(u64, u64)>,
    /// Samples overwritten because the ring was full.
    pub dropped: u64,
}

/// The frozen telemetry of one finished cell, carried on
/// [`crate::metrics::SimResult`] (and deliberately *excluded* from its JSON
/// encoding, so results streams stay byte-identical armed vs disarmed).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// The sampling cadence the run used.
    pub sample_interval_ns: u64,
    /// The retained trace events, in chronological order.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the event ring was full.
    pub events_dropped: u64,
    /// Named monotonic counters, in the recorder's fixed order.
    pub counters: Vec<(String, u64)>,
    /// Named log2-bucket histograms, in the recorder's fixed order.
    pub histograms: Vec<(String, Log2Histogram)>,
    /// Named sampled gauges, in the recorder's fixed order.
    pub series: Vec<(String, SampleSeries)>,
}

impl ToJson for TelemetryReport {
    fn to_json(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Array(vec![
                    e.at_ns.into(),
                    e.kind.label().into(),
                    u64::from(e.bank).into(),
                    e.value.into(),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| Json::Array(vec![Json::from(name.clone()), (*value).into()]))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| Json::Array(vec![Json::from(name.clone()), h.to_json()]))
            .collect();
        let series = self
            .series
            .iter()
            .map(|(name, s)| {
                let samples =
                    s.samples.iter().map(|&(t, v)| Json::Array(vec![t.into(), v.into()])).collect();
                Json::Array(vec![
                    Json::from(name.clone()),
                    obj(vec![("dropped", s.dropped.into()), ("samples", Json::Array(samples))]),
                ])
            })
            .collect();
        obj(vec![
            ("sample_interval_ns", self.sample_interval_ns.into()),
            ("events_dropped", self.events_dropped.into()),
            ("events", Json::Array(events)),
            ("counters", Json::Array(counters)),
            ("histograms", Json::Array(histograms)),
            ("series", Json::Array(series)),
        ])
    }
}

impl TelemetryReport {
    /// Render this report as a Chrome/Perfetto trace-event JSON document
    /// (`{"displayTimeUnit": "ns", "traceEvents": [...]}`): maintenance
    /// operations become complete slices (`ph: "X"`, one track per bank),
    /// point events become instants (`ph: "i"`), and every sampled gauge
    /// becomes a counter track (`ph: "C"`). Timestamps are microseconds, as
    /// the trace-event format requires; `label` names the process track.
    ///
    /// Load the result at <https://ui.perfetto.dev> or `chrome://tracing`.
    #[must_use]
    pub fn to_perfetto(&self, label: &str) -> Json {
        let us = |ns: u64| Json::Float(ns as f64 / 1_000.0);
        let mut trace_events = vec![obj(vec![
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", 0u64.into()),
            ("tid", 0u64.into()),
            ("args", obj(vec![("name", label.into())])),
        ])];
        for event in &self.events {
            let tid = u64::from(event.bank);
            if event.kind.is_span() {
                trace_events.push(obj(vec![
                    ("name", event.kind.label().into()),
                    ("cat", "maintenance".into()),
                    ("ph", "X".into()),
                    ("ts", us(event.at_ns)),
                    ("dur", us(event.value)),
                    ("pid", 0u64.into()),
                    ("tid", tid.into()),
                ]));
            } else {
                trace_events.push(obj(vec![
                    ("name", event.kind.label().into()),
                    ("cat", "event".into()),
                    ("ph", "i".into()),
                    ("s", "t".into()),
                    ("ts", us(event.at_ns)),
                    ("pid", 0u64.into()),
                    ("tid", tid.into()),
                    ("args", obj(vec![("value", event.value.into())])),
                ]));
            }
        }
        for (name, series) in &self.series {
            for &(at_ns, value) in &series.samples {
                trace_events.push(obj(vec![
                    ("name", Json::from(name.clone())),
                    ("ph", "C".into()),
                    ("ts", us(at_ns)),
                    ("pid", 0u64.into()),
                    ("args", obj(vec![("value", value.into())])),
                ]));
            }
        }
        obj(vec![("displayTimeUnit", "ns".into()), ("traceEvents", Json::Array(trace_events))])
    }

    /// The value of a named counter, if the report has one.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A named histogram, if the report has one.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// A named sample series, if the report has one.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&SampleSeries> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// A [`ResultSink`] that writes one compact telemetry JSONL line per cell
/// that carries a report — the streamable sidecar of the results stream
/// (cells without telemetry are skipped, so a disarmed grid writes
/// nothing).
#[derive(Debug)]
pub struct TelemetrySidecarSink<W: Write> {
    writer: W,
    records: usize,
    error: Option<std::io::Error>,
}

impl<W: Write> TelemetrySidecarSink<W> {
    /// Stream telemetry records into `writer`.
    #[must_use]
    pub fn new(writer: W) -> Self {
        Self { writer, records: 0, error: None }
    }

    /// Number of telemetry records written.
    #[must_use]
    pub fn records_written(&self) -> usize {
        self.records
    }

    /// Flush and return the underlying writer, or the first latched error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink latched mid-stream.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> ResultSink for TelemetrySidecarSink<W> {
    fn on_result(&mut self, result: &ScenarioResult) {
        if self.error.is_some() {
            return;
        }
        let Some(telemetry) = &result.result.detail.telemetry else { return };
        let line = obj(vec![
            ("index", result.scenario.index.into()),
            ("workload", Json::from(result.scenario.workload.name)),
            ("defense", Json::from(result.scenario.defense.to_string())),
            ("t_rh", result.scenario.t_rh.into()),
            ("telemetry", telemetry.to_json()),
        ])
        .to_compact();
        match self.writer.write_all(line.as_bytes()).and_then(|()| self.writer.write_all(b"\n")) {
            Ok(()) => self.records += 1,
            Err(error) => self.error = Some(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_recorder_records_nothing_and_reports_none() {
        let mut telemetry = Telemetry::disarmed();
        assert!(!telemetry.armed());
        assert_eq!(telemetry.next_sample_ns(), None);
        telemetry.record_mitigation(100, 0, 7);
        telemetry.record_read_latency(40);
        telemetry.sample(100, 1, 2, 3, 4);
        assert_eq!(telemetry.take_report(), None);
    }

    #[test]
    fn event_ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring::new(2);
        for at_ns in 0..5u64 {
            ring.push(TraceEvent { at_ns, kind: EventKind::Swap, bank: 0, value: 0 });
        }
        assert_eq!(ring.dropped, 3);
        let kept: Vec<u64> = ring.in_order().iter().map(|e| e.at_ns).collect();
        assert_eq!(kept, vec![3, 4], "most recent events survive");
    }

    #[test]
    fn histogram_buckets_split_at_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.occupied(), vec![(0, 1), (64, 2)]);
    }

    #[test]
    fn armed_recorder_samples_on_cadence_and_freezes_a_report() {
        let config =
            TelemetryConfig { enabled: true, sample_interval_ns: 100, ..Default::default() };
        let mut telemetry = Telemetry::new(&config);
        assert_eq!(telemetry.next_sample_ns(), Some(100));
        assert!(!telemetry.sample_due(99));
        assert!(telemetry.sample_due(100));
        telemetry.sample(100, 5, 0, 2, 1);
        assert_eq!(telemetry.next_sample_ns(), Some(200));
        telemetry.record_mitigation(150, 3, 42);
        telemetry.record_op(160, EventKind::Swap, 3, 2_000);
        telemetry.record_queue_stall(170, 1, 9);
        telemetry.record_read_latency(75);
        telemetry.latch_trh_crossing(180);
        telemetry.latch_trh_crossing(190); // latched once
        telemetry.latch_attack_phase(200, 0, false); // no transition
        telemetry.latch_attack_phase(210, 0, true); // transition
        let report = telemetry.take_report().expect("armed run yields a report");
        assert_eq!(report.sample_interval_ns, 100);
        assert_eq!(report.counter("mitigation_triggers"), Some(1));
        assert_eq!(report.counter("queue_stalls"), Some(1));
        assert_eq!(report.counter("reads_completed"), Some(1));
        assert_eq!(report.histogram("swap_stall_ns").unwrap().count(), 1);
        let kinds: Vec<EventKind> = report.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::MitigationTrigger,
                EventKind::Swap,
                EventKind::QueueStall,
                EventKind::TrhCrossing,
                EventKind::AttackPhase,
            ]
        );
        let series = &report.series.iter().find(|(n, _)| n == "bank_queue_depth").unwrap().1;
        assert_eq!(series.samples, vec![(100, 5)]);
    }

    #[test]
    fn report_round_trips_through_json() {
        let config =
            TelemetryConfig { enabled: true, sample_interval_ns: 50, ..Default::default() };
        let mut telemetry = Telemetry::new(&config);
        telemetry.sample(50, 1, 2, 3, 4);
        telemetry.record_op(60, EventKind::UnswapSwap, 2, 4_000);
        telemetry.record_read_latency(u64::MAX);
        let json = telemetry.take_report().unwrap().to_json();
        assert_eq!(Json::parse(&json.to_compact()).unwrap(), json);
        assert_eq!(Json::parse(&json.to_pretty()).unwrap(), json);
    }

    #[test]
    fn perfetto_export_has_the_trace_event_shape() {
        let config = TelemetryConfig::armed();
        let mut telemetry = Telemetry::new(&config);
        telemetry.record_op(1_000, EventKind::Swap, 4, 2_500);
        telemetry.record_mitigation(900, 4, 17);
        telemetry.sample(100_000, 8, 0, 3, 1);
        let report = telemetry.take_report().unwrap();
        let trace = report.to_perfetto("gups/scale-srs");
        assert_eq!(trace.get("displayTimeUnit").and_then(Json::as_str), Some("ns"));
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        // Metadata + 2 events + 4 gauge samples (one per registered series
        // with a sample... only series with samples emit counters).
        assert!(events.len() >= 3);
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("swap renders as a complete slice");
        assert_eq!(slice.get("name").and_then(Json::as_str), Some("swap"));
        assert_eq!(slice.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(slice.get("dur").and_then(Json::as_f64), Some(2.5));
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .expect("gauge samples render as counter events");
        assert!(counter.get("args").and_then(|a| a.get("value")).is_some());
        // The whole document survives the codec (what `check-json` does).
        let text = trace.to_pretty();
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn config_decodes_tolerantly_and_rejects_unknown_fields() {
        let json = Json::parse(r#"{"enabled": true, "sample_interval_ns": 5000}"#).unwrap();
        let config = TelemetryConfig::from_json(&json).unwrap();
        assert!(config.enabled);
        assert_eq!(config.sample_interval_ns, 5_000);
        assert_eq!(config.event_capacity, TelemetryConfig::default().event_capacity);
        let bad = Json::parse(r#"{"cadence": 5}"#).unwrap();
        assert!(TelemetryConfig::from_json(&bad).is_err());
        let zero = Json::parse(r#"{"sample_interval_ns": 0}"#).unwrap();
        assert!(TelemetryConfig::from_json(&zero).is_err());
        let config = TelemetryConfig::armed();
        let back = TelemetryConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);
    }
}
