//! A trace-driven out-of-order core model in the style of USIMM.
//!
//! The model does not simulate individual instructions; it charges each
//! trace record's non-memory instructions at the retire width and models the
//! reorder buffer as a *run-ahead window*: after issuing a long-latency read
//! the core may continue executing for as long as the ROB can hold younger
//! instructions, after which it stalls until the read returns. Writes retire
//! through a write buffer and never stall the core.

use std::sync::Arc;

use crate::config::CoreConfig;
use srs_workloads::{MemOp, Trace, TraceRecord};

/// A unique identifier for an in-flight memory access issued by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessToken(pub u64);

/// What a core wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// The core has retired its target instruction count.
    Finished,
    /// The core can issue its next memory operation at the given time.
    ReadyAt(u64),
    /// The core is stalled waiting for one of its outstanding reads.
    Blocked,
}

/// A memory operation issued by a core, to be routed to the memory
/// controller by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryIssue {
    /// Token to pass back to [`TraceCore::complete_read`].
    pub token: AccessToken,
    /// Physical byte address.
    pub addr: u64,
    /// Whether the operation is a write.
    pub is_write: bool,
}

#[derive(Debug, Clone, Copy)]
struct OutstandingRead {
    token: AccessToken,
    blocks_at_ns: u64,
}

/// Per-core statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired_instructions: u64,
    /// Memory reads issued.
    pub reads: u64,
    /// Memory writes issued.
    pub writes: u64,
    /// Nanoseconds spent stalled on memory.
    pub stall_ns: u64,
}

/// A single trace-driven core.
///
/// The trace records are held behind an `Arc` so that rate-mode simulations
/// (the same workload on every core) share one immutable copy instead of
/// cloning the record vector per core; the per-core address-space offset is
/// applied at issue time.
#[derive(Debug, Clone)]
pub struct TraceCore {
    config: CoreConfig,
    /// Cached [`TraceCore::runahead_ns`] (constant per configuration; it is
    /// added to every issued read's block point).
    runahead_ns: u64,
    /// Cached `retire_width * clock_ghz` — the per-issue charge is a single
    /// f64 division by this product instead of two chained divisions.
    retire_per_ns: f64,
    /// Memo of the last (instruction count, charge) pair: trace records
    /// repeat a handful of small instruction counts, so the division (and
    /// `ceil` libcall) is skipped on nearly every issue.
    last_charge: (u64, u64),
    records: Arc<[TraceRecord]>,
    /// Added (wrapping) to every record address at issue time, giving each
    /// core a private copy of the workload's address space in rate mode.
    addr_offset: u64,
    position: usize,
    laps: u64,
    ready_at_ns: u64,
    outstanding: Vec<OutstandingRead>,
    next_token: u64,
    stats: CoreStats,
    /// Earliest time the next [`TraceCore::try_issue`] could succeed, as of
    /// the last failed issue attempt: `u64::MAX` when only a read
    /// completion (or retirement bookkeeping) can ready the core again, `0`
    /// when unknown. Lets a caller's per-tick issue loop skip the whole
    /// status walk for blocked cores with one comparison; failing issues
    /// refresh it and [`TraceCore::complete_read`] invalidates it.
    wake_hint_ns: u64,
}

impl TraceCore {
    /// Create a core that will execute `trace`, looping over it (rate mode)
    /// until [`CoreConfig::target_instructions`] have retired.
    #[must_use]
    pub fn new(config: CoreConfig, trace: Trace) -> Self {
        Self::shared(config, trace.records.into(), 0)
    }

    /// Create a core that executes a shared, immutable record slice, offset
    /// into its own address-space copy. `TraceCore::shared(c, records, 0)`
    /// behaves exactly like [`TraceCore::new`] on the originating trace.
    #[must_use]
    pub fn shared(config: CoreConfig, records: Arc<[TraceRecord]>, addr_offset: u64) -> Self {
        let cycles = f64::from(config.rob_size) / f64::from(config.retire_width.max(1));
        let runahead_ns = config.cycles_to_ns(cycles);
        let retire_per_ns = f64::from(config.retire_width.max(1)) * config.clock_ghz;
        Self {
            config,
            runahead_ns,
            retire_per_ns,
            last_charge: (0, 1),
            records,
            addr_offset,
            position: 0,
            laps: 0,
            ready_at_ns: 0,
            outstanding: Vec::new(),
            next_token: 0,
            stats: CoreStats::default(),
            wake_hint_ns: 0,
        }
    }

    /// The core configuration.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Per-core statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the core has reached its instruction target.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.stats.retired_instructions >= self.config.target_instructions
            || self.records.is_empty()
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired_instructions(&self) -> u64 {
        self.stats.retired_instructions
    }

    /// Number of reads currently outstanding.
    #[must_use]
    pub fn outstanding_reads(&self) -> usize {
        self.outstanding.len()
    }

    /// The time window a read can be overlapped with younger work before the
    /// ROB fills and the core must stall, in nanoseconds.
    #[must_use]
    pub fn runahead_ns(&self) -> u64 {
        self.runahead_ns
    }

    /// Earliest time a [`TraceCore::try_issue`] call could possibly succeed
    /// — a cached hint, not a promise of success. A caller polling many
    /// cores per tick may skip any core whose hint lies in the future;
    /// calling `try_issue` anyway is always correct, just slower. The hint
    /// is conservative: issue attempts and completions keep it at or below
    /// the true readiness time, and it never masks a state change (a core's
    /// readiness only changes through `try_issue` and `complete_read`
    /// themselves).
    #[must_use]
    pub fn wake_hint_ns(&self) -> u64 {
        self.wake_hint_ns
    }

    /// What the core wants to do at time `now`.
    #[must_use]
    pub fn status(&self, now: u64) -> CoreStatus {
        if self.is_finished() {
            return CoreStatus::Finished;
        }
        if self.outstanding.len() >= self.config.max_outstanding_misses {
            return CoreStatus::Blocked;
        }
        if let Some(oldest) = self.outstanding.first() {
            if oldest.blocks_at_ns <= now.max(self.ready_at_ns) {
                return CoreStatus::Blocked;
            }
        }
        CoreStatus::ReadyAt(self.ready_at_ns.max(now))
    }

    /// Issue the next memory operation if the core is ready at `now`.
    ///
    /// Returns `None` if the core is finished, blocked, or not yet ready.
    pub fn try_issue(&mut self, now: u64) -> Option<MemoryIssue> {
        match self.status(now) {
            CoreStatus::ReadyAt(t) if t <= now => {}
            CoreStatus::ReadyAt(t) => {
                // Not ready before `t`, and nothing but this core's own
                // clock gets it there sooner.
                self.wake_hint_ns = t;
                return None;
            }
            _ => {
                // Blocked or finished: inert until a completion arrives
                // (which clears the hint) or forever.
                self.wake_hint_ns = u64::MAX;
                return None;
            }
        }
        self.wake_hint_ns = 0;
        let record = self.records[self.position];
        self.position += 1;
        if self.position >= self.records.len() {
            self.position = 0;
            self.laps += 1;
        }
        let insts = record.instructions();
        self.stats.retired_instructions += insts;
        let charge_ns = if self.last_charge.0 == insts {
            self.last_charge.1
        } else {
            let charge = ((insts as f64 / self.retire_per_ns).ceil() as u64).max(1);
            self.last_charge = (insts, charge);
            charge
        };
        self.ready_at_ns = self.ready_at_ns.max(now) + charge_ns;

        let token = AccessToken(self.next_token);
        self.next_token += 1;
        let is_write = record.op == MemOp::Write;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
            self.outstanding.push(OutstandingRead { token, blocks_at_ns: now + self.runahead_ns });
        }
        Some(MemoryIssue { token, addr: record.addr.wrapping_add(self.addr_offset), is_write })
    }

    /// The earliest time at which this core could issue its next memory
    /// operation *without any external event*, or `None` if only a read
    /// completion can unblock it (or it is finished).
    ///
    /// This is the core's half of the event-driven time-skip engine's
    /// contract: `Some(t)` (which may be `<= now`, meaning "as soon as the
    /// caller next looks") only if nothing about the core changes before
    /// `t` without an external event, and `None` only if the core is inert
    /// until [`TraceCore::complete_read`] is called from a memory-completion
    /// event (or for good, once finished). Breaking it lets the engine run
    /// the core late and diverge from the fixed-step reference.
    #[must_use]
    pub fn next_ready_ns(&self, now: u64) -> Option<u64> {
        if self.is_finished() || self.outstanding.len() >= self.config.max_outstanding_misses {
            return None;
        }
        if let Some(oldest) = self.outstanding.first() {
            // Blocking is monotone in time (`status` compares the oldest
            // read's block point against max(now, ready_at)): if the core
            // is blocked at the earliest instant it could otherwise issue,
            // it stays blocked until the read completes.
            if oldest.blocks_at_ns <= self.ready_at_ns.max(now) {
                return None;
            }
        }
        Some(self.ready_at_ns)
    }

    /// Report that the read identified by `token` completed at `now`.
    ///
    /// Unknown tokens are ignored (writes and cache hits may be completed
    /// eagerly by the simulator without bookkeeping here).
    pub fn complete_read(&mut self, token: AccessToken, now: u64) {
        if let Some(idx) = self.outstanding.iter().position(|o| o.token == token) {
            self.wake_hint_ns = 0;
            let read = self.outstanding.remove(idx);
            if now > read.blocks_at_ns {
                self.stats.stall_ns += now - read.blocks_at_ns;
                // The core could not make progress past the blocked point.
                self.ready_at_ns = self.ready_at_ns.max(now);
            }
        }
    }

    /// Instructions per cycle achieved over `elapsed_ns` of simulated time.
    #[must_use]
    pub fn ipc(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            return 0.0;
        }
        let cycles = elapsed_ns as f64 * self.config.clock_ghz;
        self.stats.retired_instructions as f64 / cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_workloads::{TraceRecord, WorkloadSpec};

    fn core(target: u64) -> TraceCore {
        let trace = WorkloadSpec::gups(1 << 20).generate(1_000, 3);
        let config = CoreConfig { target_instructions: target, ..CoreConfig::default() };
        TraceCore::new(config, trace)
    }

    #[test]
    fn issues_memory_operations_when_ready() {
        let mut c = core(1_000_000);
        let issue = c.try_issue(0).expect("ready at time 0");
        assert!(c.retired_instructions() > 0);
        assert_eq!(issue.token, AccessToken(0));
    }

    #[test]
    fn reads_become_outstanding_and_writes_do_not() {
        let trace = Trace::new(
            "t",
            vec![
                TraceRecord { nonmem_insts: 0, op: MemOp::Read, addr: 0 },
                TraceRecord { nonmem_insts: 0, op: MemOp::Write, addr: 64 },
            ],
        );
        let mut c = TraceCore::new(CoreConfig::default(), trace);
        let a = c.try_issue(0).unwrap();
        assert!(!a.is_write);
        assert_eq!(c.outstanding_reads(), 1);
        let now = 10;
        let b = c.try_issue(now).unwrap();
        assert!(b.is_write);
        assert_eq!(c.outstanding_reads(), 1);
    }

    #[test]
    fn core_blocks_once_runahead_is_exhausted() {
        // An explicit single-read trace keeps the test independent of the
        // synthetic generator's read/write ordering.
        let trace =
            Trace::new("read", vec![TraceRecord { nonmem_insts: 0, op: MemOp::Read, addr: 0 }]);
        let config = CoreConfig { target_instructions: 1_000_000, ..CoreConfig::default() };
        let mut c = TraceCore::new(config, trace);
        let issue = c.try_issue(0).unwrap();
        let runahead = c.runahead_ns();
        // Shortly after issuing, the core is still ready...
        assert!(matches!(c.status(1), CoreStatus::ReadyAt(_)));
        // ...but far past the run-ahead window it is blocked on the read.
        assert_eq!(c.status(runahead + 1_000), CoreStatus::Blocked);
        c.complete_read(issue.token, runahead + 2_000);
        assert!(matches!(c.status(runahead + 2_000), CoreStatus::ReadyAt(_)));
        assert!(c.stats().stall_ns > 0);
    }

    #[test]
    fn finishes_at_instruction_target() {
        let mut c = core(500);
        let mut now = 0;
        let mut guard = 0;
        while !c.is_finished() {
            if let Some(issue) = c.try_issue(now) {
                c.complete_read(issue.token, now + 50);
            }
            now += 10;
            guard += 1;
            assert!(guard < 100_000, "core failed to finish");
        }
        assert!(c.retired_instructions() >= 500);
        assert_eq!(c.status(now), CoreStatus::Finished);
    }

    #[test]
    fn trace_core_speaks_the_source_protocol() {
        let trace = WorkloadSpec::gups(1 << 20).generate(100, 3);
        let config = CoreConfig { target_instructions: 1_000, ..CoreConfig::default() };
        let mut source = TraceCore::new(config, trace);
        assert!(!source.is_finished());
        let issue = source.try_issue(0).expect("ready at time zero");
        source.complete_read(issue.token, 60);
        assert!(source.retired_instructions() > 0);
        // Drive the source to completion through its own methods alone.
        let mut now = 100;
        while !source.is_finished() {
            if let Some(issue) = source.try_issue(now) {
                source.complete_read(issue.token, now + 50);
            }
            now += 10;
            assert!(now < 1_000_000, "source failed to finish");
        }
        assert_eq!(source.status(now), CoreStatus::Finished);
    }

    #[test]
    fn next_ready_tracks_issue_and_blocking() {
        let trace = Trace::new(
            "t",
            vec![
                TraceRecord { nonmem_insts: 0, op: MemOp::Read, addr: 0 },
                TraceRecord { nonmem_insts: 0, op: MemOp::Read, addr: 1 << 20 },
            ],
        );
        let config = CoreConfig { target_instructions: 1_000_000, ..CoreConfig::default() };
        let mut c = TraceCore::new(config, trace);
        assert_eq!(c.next_ready_ns(0), Some(0), "fresh core is ready immediately");
        let issue = c.try_issue(0).unwrap();
        let ready = c.next_ready_ns(0).expect("still within the run-ahead window");
        assert!(ready >= 1);
        // Far past the run-ahead window the oldest read blocks the core: no
        // self-generated event remains.
        assert_eq!(c.next_ready_ns(c.runahead_ns() + 1_000), None);
        c.complete_read(issue.token, c.runahead_ns() + 2_000);
        assert!(c.next_ready_ns(c.runahead_ns() + 2_000).is_some());
    }

    #[test]
    fn shared_records_with_offset_match_a_rewritten_trace() {
        let base = WorkloadSpec::gups(1 << 20).generate(200, 7);
        let offset = 1u64 << 33;
        let mut rewritten = base.clone();
        for r in &mut rewritten.records {
            r.addr = r.addr.wrapping_add(offset);
        }
        let config = CoreConfig { target_instructions: 400, ..CoreConfig::default() };
        let records: std::sync::Arc<[TraceRecord]> = base.records.into();
        let mut shared = TraceCore::shared(config, records, offset);
        let mut cloned = TraceCore::new(config, rewritten);
        let mut now = 0;
        while !(shared.is_finished() && cloned.is_finished()) {
            let a = shared.try_issue(now);
            let b = cloned.try_issue(now);
            assert_eq!(a, b, "offset-at-issue must equal a pre-rewritten trace");
            if let Some(issue) = a {
                shared.complete_read(issue.token, now + 40);
                cloned.complete_read(issue.token, now + 40);
            }
            now += 10;
        }
    }

    #[test]
    fn mlp_is_bounded_by_max_outstanding() {
        let cfg = CoreConfig { max_outstanding_misses: 2, ..CoreConfig::default() };
        let trace = WorkloadSpec::gups(1 << 20).generate(100, 9);
        let mut c = TraceCore::new(cfg, trace);
        let mut now = 0;
        let mut issued = 0;
        for _ in 0..100 {
            if c.try_issue(now).is_some() {
                issued += 1;
            }
            now += 5;
        }
        assert!(c.outstanding_reads() <= 2);
        assert!(issued >= 2);
        assert_eq!(c.status(now), CoreStatus::Blocked);
    }

    #[test]
    fn ipc_reflects_retired_work() {
        let mut c = core(10_000);
        let mut now = 0;
        while !c.is_finished() {
            if let Some(issue) = c.try_issue(now) {
                c.complete_read(issue.token, now + 30);
            } else {
                // Complete anything outstanding so progress continues.
                now += 30;
            }
            now += 2;
        }
        let ipc = c.ipc(now);
        assert!(ipc > 0.0 && ipc <= f64::from(c.config().retire_width), "ipc = {ipc}");
    }
}
