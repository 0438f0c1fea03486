//! The memory controller: per-bank transaction queues, FR-FCFS scheduling,
//! refresh, maintenance (mitigation) operations and activation accounting.

use std::collections::VecDeque;

use crate::address::{AddressMapper, BankId, RowId};
use crate::bank::Bank;
use crate::command::{
    AccessKind, ActivationEvent, CompletedAccess, MaintenanceOp, MemRequest, RequestId,
};
use crate::config::{DramConfig, PagePolicy};
use crate::error::DramError;
use crate::sink::{AccessSink, ActivationSink};
use crate::stats::ControllerStats;
use crate::Nanos;

/// A demand request waiting in a bank queue.
#[derive(Debug, Clone, Copy)]
struct PendingRequest {
    id: RequestId,
    request: MemRequest,
    row: RowId,
}

/// A dense bit set over bank indices, used to track which banks currently
/// have demand or maintenance work queued, or completions undelivered.
#[derive(Debug, Clone, Default)]
struct BankSet {
    words: Vec<u64>,
}

impl BankSet {
    fn new(banks: usize) -> Self {
        Self { words: vec![0; banks.div_ceil(64)] }
    }

    #[inline]
    fn insert(&mut self, bank: usize) {
        self.words[bank / 64] |= 1 << (bank % 64);
    }

    #[inline]
    fn remove(&mut self, bank: usize) {
        self.words[bank / 64] &= !(1 << (bank % 64));
    }

    #[inline]
    fn contains(&self, bank: usize) -> bool {
        self.words[bank / 64] & (1 << (bank % 64)) != 0
    }
}

/// The banks whose bits are set in `bits`, the `word`-th word of a
/// [`BankSet`], in ascending order. The word is a copy, so the caller may
/// change the set while it walks.
fn banks_in(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bank = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            bank
        })
    })
}

/// A transaction-level DDR4 memory controller.
///
/// The controller owns one [`Bank`] model per global bank, a per-channel
/// data bus, and a per-rank refresh schedule. Demand requests are scheduled
/// FR-FCFS (row hits first under the open-page policy, otherwise
/// first-come-first-served) and maintenance operations take priority over
/// demand requests of the same bank.
///
/// Each bank has three `VecDeque`s: demand transactions, maintenance
/// operations, and undelivered completions. Two bank bitmasks name the
/// banks holding work and the banks holding completions, so a tick walks
/// only those banks, in ascending bank order, and folds the next-event
/// hint as it goes.
///
/// Events stream out rather than buffering up: activations issued during a
/// bank's scheduling visit are delivered to the caller's [`ActivationSink`]
/// as one per-bank batch (see [`ActivationSink::on_activation_batch`];
/// [`MemoryController::set_batched_drain`] switches back to per-event
/// delivery), and demand completions wait in a small per-bank queue (finish
/// times are monotone within a bank) until simulated time passes them, at
/// which point [`MemoryController::tick_into`] pushes them into the
/// caller's [`AccessSink`]. Nothing is drained or re-scanned per epoch.
///
/// The controller is `Clone`: a clone is an independent snapshot of the
/// whole memory system (bank states, queues, undelivered completions,
/// statistics), which the sharing-aware grid executor uses to fork
/// simulations at a divergence point.
#[derive(Debug, Clone)]
pub struct MemoryController {
    config: DramConfig,
    mapper: AddressMapper,
    banks: Vec<Bank>,
    /// Each bank's demand transaction queue, oldest first.
    queues: Vec<VecDeque<PendingRequest>>,
    /// Each bank's maintenance queue, oldest first.
    maintenance: Vec<VecDeque<MaintenanceOp>>,
    bus_free_ns: Vec<Nanos>,
    next_refresh_ns: Vec<Nanos>,
    next_window_ns: Nanos,
    /// Each bank's undelivered completions, sorted by finish time.
    completions: Vec<VecDeque<CompletedAccess>>,
    /// Exact count of undelivered completions across all banks, maintained
    /// incrementally so [`MemoryController::pending_completions`] — queried
    /// every drain step — never walks the queues.
    pending_completion_count: usize,
    /// Banks with queued demand or maintenance work: set on enqueue,
    /// cleared by the scheduling visit that drains the bank, so ticks can
    /// skip every unset bank.
    work_banks: BankSet,
    /// Banks with undelivered completions: set when a demand access is
    /// scheduled, cleared when the bank's last completion is delivered.
    done_banks: BankSet,
    /// Exact count of queued demand requests plus maintenance operations
    /// (the original `is_idle` definition, kept O(1)).
    outstanding_work: usize,
    /// Dense mirror of each bank's busy-until time, updated alongside every
    /// occupancy change. The scheduling walk reads this contiguous array
    /// instead of striding through the banks.
    busy_mirror: Vec<Nanos>,
    /// Running minimum of the controller's next event time, recomputed from
    /// scratch on every [`MemoryController::tick_into`] and lowered by
    /// enqueues in between; see [`MemoryController::next_event_ns`].
    next_event_hint: Nanos,
    /// Scratch batch of activations issued by the bank currently being
    /// scheduled; flushed to the sink at the end of each bank visit. Always
    /// empty between ticks.
    act_batch: Vec<ActivationEvent>,
    /// Whether activations flush through `on_activation_batch` (default) or
    /// one `on_activation` call per event.
    batched_drain: bool,
    stats: ControllerStats,
    next_request_id: u64,
}

impl MemoryController {
    /// Create a controller for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`]; use
    /// [`MemoryController::try_new`] to handle invalid configurations
    /// gracefully.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        // The panic is part of this constructor's documented contract;
        // fallible callers use `try_new` instead.
        #[allow(clippy::expect_used)]
        Self::try_new(config).expect("valid DRAM configuration")
    }

    /// Create a controller, returning an error for invalid configurations.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn try_new(config: DramConfig) -> Result<Self, DramError> {
        config.validate()?;
        let total_banks = config.total_banks();
        let total_ranks = config.channels * config.ranks_per_channel;
        let mapper = AddressMapper::new(config.clone());
        Ok(Self {
            banks: vec![Bank::new(); total_banks],
            queues: vec![VecDeque::new(); total_banks],
            maintenance: vec![VecDeque::new(); total_banks],
            bus_free_ns: vec![0; config.channels],
            next_refresh_ns: vec![config.timing.t_refi; total_ranks],
            next_window_ns: config.refresh_window_ns,
            completions: vec![VecDeque::new(); total_banks],
            pending_completion_count: 0,
            work_banks: BankSet::new(total_banks),
            done_banks: BankSet::new(total_banks),
            outstanding_work: 0,
            busy_mirror: vec![0; total_banks],
            next_event_hint: config.timing.t_refi.min(config.refresh_window_ns),
            act_batch: Vec::with_capacity(16),
            batched_drain: true,
            stats: ControllerStats::default(),
            next_request_id: 0,
            mapper,
            config,
        })
    }

    /// The configuration of this controller.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The address mapper used by this controller.
    #[must_use]
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Toggle batched activation delivery (on by default).
    ///
    /// Per-event mode routes every activation through
    /// [`ActivationSink::on_activation`] individually, exactly as earlier
    /// revisions did. The equivalence suites and the throughput bench use
    /// it to pin the batched path bit-identical to per-event delivery.
    pub fn set_batched_drain(&mut self, batched: bool) {
        self.batched_drain = batched;
    }

    /// Total requests queued across all banks.
    #[must_use]
    pub fn total_queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether the controller has any outstanding demand or maintenance work.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.outstanding_work == 0
    }

    /// Demand accesses that have been scheduled but whose finish time has
    /// not been reached by any `tick_into` call yet. O(1): the count is
    /// maintained incrementally instead of walking every bank's queue.
    #[must_use]
    pub fn pending_completions(&self) -> usize {
        self.pending_completion_count
    }

    /// Enqueue a demand request.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::QueueFull`] if the destination bank's queue has
    /// reached [`DramConfig::queue_capacity`].
    pub fn enqueue(&mut self, request: MemRequest) -> Result<RequestId, DramError> {
        let (bank, row) = self.mapper.bank_and_row(request.addr);
        self.enqueue_at(bank, row, request)
    }

    /// Enqueue a demand request whose destination the caller has already
    /// decoded — issuers that decode the address anyway (for row-swap
    /// translation) use this to avoid a second decode. `bank` and `row`
    /// must match what [`AddressMapper::bank_and_row`] would return for
    /// `request.addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::QueueFull`] if the destination bank's queue has
    /// reached [`DramConfig::queue_capacity`], or
    /// [`DramError::BankOutOfRange`] for an invalid bank.
    pub fn enqueue_at(
        &mut self,
        bank: BankId,
        row: RowId,
        request: MemRequest,
    ) -> Result<RequestId, DramError> {
        let idx = bank.index();
        if idx >= self.queues.len() {
            return Err(DramError::BankOutOfRange { bank: idx, total_banks: self.queues.len() });
        }
        if self.queues[idx].len() >= self.config.queue_capacity {
            return Err(DramError::QueueFull { bank: idx });
        }
        let id = RequestId(self.next_request_id);
        self.next_request_id += 1;
        self.queues[idx].push_back(PendingRequest { id, request, row });
        self.work_banks.insert(idx);
        self.outstanding_work += 1;
        // The bank becomes schedulable once free (possibly immediately; the
        // clamp in `next_event_ns` turns a past time into "next tick").
        self.next_event_hint = self.next_event_hint.min(self.busy_mirror[idx]);
        Ok(id)
    }

    /// Whether the given bank can accept another request.
    #[must_use]
    pub fn can_accept_bank(&self, bank: BankId) -> bool {
        self.queues[bank.index()].len() < self.config.queue_capacity
    }

    /// Enqueue a maintenance operation (executed with priority over demand
    /// requests of the same bank).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankOutOfRange`] if the bank index is invalid.
    pub fn enqueue_maintenance(&mut self, op: MaintenanceOp) -> Result<(), DramError> {
        let idx = op.bank.index();
        if idx >= self.banks.len() {
            return Err(DramError::BankOutOfRange { bank: idx, total_banks: self.banks.len() });
        }
        self.maintenance[idx].push_back(op);
        self.work_banks.insert(idx);
        self.outstanding_work += 1;
        self.next_event_hint = self.next_event_hint.min(self.busy_mirror[idx]);
        Ok(())
    }

    /// Time until which a bank is busy — useful for backpressure decisions.
    #[must_use]
    pub fn bank_busy_until(&self, bank: BankId) -> Nanos {
        self.banks[bank.index()].busy_until()
    }

    /// The earliest time strictly after `now` at which this controller has
    /// something to do.
    ///
    /// This is the controller's half of the event-driven time-skip engine:
    /// after a [`MemoryController::tick_into`] at `now`, *nothing* in the
    /// controller changes state at any time before the returned instant, so
    /// a caller may jump its clock straight there. The minimum is taken
    /// over:
    ///
    /// * per-bank busy-until times of banks with queued demand or
    ///   maintenance work (the moment the bank can schedule again);
    /// * the finish time at the front of each per-bank completion queue
    ///   (the moment a completion becomes deliverable);
    /// * the next per-rank refresh deadline;
    /// * the next refresh-window rollover.
    ///
    /// A fully drained controller still reports the next refresh/rollover
    /// deadline (those recur forever), so the result is always defined.
    ///
    /// O(1): [`MemoryController::tick_into`] recomputes the underlying hint
    /// during its two bank walks (the busy and finish times are already in
    /// hand there), and the enqueue paths lower it in between; this method
    /// only clamps the hint into the future. The hint never runs late (a
    /// missed event would change simulation results); at worst an enqueue
    /// to an already-free bank reports "next tick" once.
    #[must_use]
    pub fn next_event_ns(&self, now: Nanos) -> Nanos {
        self.next_event_hint.max(now + 1)
    }

    /// Advance the controller to time `now`, scheduling any work that can
    /// start at or before `now`. Activations issued while scheduling are
    /// delivered into `sink` as one batch per bank visit (or one call per
    /// event after [`MemoryController::set_batched_drain`]`(false)`), and
    /// every demand access whose finish time has been reached is delivered
    /// through `sink`.
    pub fn tick_into(&mut self, now: Nanos, sink: &mut (impl ActivationSink + AccessSink)) {
        self.handle_window_rollover(now);
        self.handle_refresh(now);
        let mut hint = self.next_window_ns;
        for &refresh in &self.next_refresh_ns {
            hint = hint.min(refresh);
        }
        // Scheduling: every bank with work that is free at `now`, in
        // ascending bank order (bank order is observable through the shared
        // channel bus). Nothing enqueues during a drain — mitigation
        // feedback waits for the caller — and a visit changes no other
        // bank's busy time, so the set of banks to visit is fixed before
        // the walk starts. A bank left holding work is busy past `now`, and
        // its busy time is when it can schedule next.
        for word in 0..self.work_banks.words.len() {
            for bank in banks_in(word, self.work_banks.words[word]) {
                if self.busy_mirror[bank] <= now {
                    self.schedule_bank(bank, now, sink);
                }
                if self.work_banks.contains(bank) {
                    hint = hint.min(self.busy_mirror[bank]);
                }
            }
        }
        // Completion delivery, in ascending bank order: each bank's
        // completions up to `now` (finish times are kept sorted per bank),
        // after which its front finish time is when it delivers next.
        // Accesses scheduled above finish after `now`.
        for word in 0..self.done_banks.words.len() {
            for bank in banks_in(word, self.done_banks.words[word]) {
                let queue = &mut self.completions[bank];
                while let Some(done) = queue.pop_front_if(|c| c.finish_ns <= now) {
                    self.pending_completion_count -= 1;
                    sink.on_access(&done);
                }
                match queue.front() {
                    Some(pending) => hint = hint.min(pending.finish_ns),
                    None => self.done_banks.remove(bank),
                }
            }
        }
        self.next_event_hint = hint;
    }

    /// Advance until all queued demand and maintenance work has completed
    /// and every completion has been delivered through `sink`, returning the
    /// final time. Useful in tests and for draining attack traces that are
    /// not paced by a CPU model.
    pub fn drain_into(
        &mut self,
        mut now: Nanos,
        step_ns: Nanos,
        sink: &mut (impl ActivationSink + AccessSink),
    ) -> Nanos {
        let step = step_ns.max(1);
        loop {
            self.tick_into(now, sink);
            if self.is_idle() && self.pending_completions() == 0 {
                break;
            }
            now += step;
        }
        now
    }

    fn handle_window_rollover(&mut self, now: Nanos) {
        while now >= self.next_window_ns {
            for bank in &mut self.banks {
                bank.start_new_window();
            }
            self.stats.windows_elapsed += 1;
            self.next_window_ns += self.config.refresh_window_ns;
        }
    }

    fn handle_refresh(&mut self, now: Nanos) {
        let t_rfc = self.config.timing.t_rfc;
        let t_refi = self.config.timing.t_refi;
        let banks_per_rank = self.config.banks_per_rank;
        for (rank_idx, next) in self.next_refresh_ns.iter_mut().enumerate() {
            while *next <= now {
                let start_bank = rank_idx * banks_per_rank;
                for b in start_bank..start_bank + banks_per_rank {
                    let until = self.banks[b].busy_until().max(*next) + t_rfc;
                    self.banks[b].occupy_until(until);
                    self.busy_mirror[b] = self.banks[b].busy_until();
                    self.banks[b].precharge();
                }
                self.stats.refreshes += 1;
                *next += t_refi;
            }
        }
    }

    fn schedule_bank(&mut self, bank_idx: usize, now: Nanos, sink: &mut impl ActivationSink) {
        loop {
            if !self.banks[bank_idx].is_free_at(now) {
                break;
            }
            // Maintenance has priority.
            if let Some(op) = self.maintenance[bank_idx].pop_front() {
                self.outstanding_work -= 1;
                self.execute_maintenance(bank_idx, &op, now);
                continue;
            }
            let Some(pending) = self.take_request(bank_idx) else { break };
            self.outstanding_work -= 1;
            self.execute_demand(bank_idx, pending, now);
        }
        if self.queues[bank_idx].is_empty() && self.maintenance[bank_idx].is_empty() {
            // Drained on every path (including "became busy mid-loop"), so
            // the work bits stay exact and drained-but-busy banks do not
            // keep waking the event engine at their busy-until times.
            self.work_banks.remove(bank_idx);
        }
        self.flush_activations(sink);
    }

    /// Deliver the activations accumulated during one bank's scheduling
    /// visit. Within a visit only this bank's events accumulate and they
    /// flush before the sweep moves to the next bank, so the global event
    /// order is identical to per-event streaming.
    fn flush_activations(&mut self, sink: &mut impl ActivationSink) {
        if self.act_batch.is_empty() {
            return;
        }
        if self.batched_drain {
            sink.on_activation_batch(&self.act_batch);
        } else {
            for event in &self.act_batch {
                sink.on_activation(event);
            }
        }
        self.act_batch.clear();
    }

    /// FR-FCFS: remove and return the oldest request that hits the open
    /// row, falling back to the oldest request overall. The remaining
    /// requests keep their relative order (the FCFS tiebreak).
    fn take_request(&mut self, bank_idx: usize) -> Option<PendingRequest> {
        let queue = &mut self.queues[bank_idx];
        if self.config.page_policy == PagePolicy::OpenPage {
            if let Some(open) = self.banks[bank_idx].open_row() {
                if let Some(hit) = queue.iter().position(|pending| pending.row == open) {
                    return queue.remove(hit);
                }
            }
        }
        queue.pop_front()
    }

    fn execute_maintenance(&mut self, bank_idx: usize, op: &MaintenanceOp, now: Nanos) {
        let start = self.banks[bank_idx].busy_until().max(now);
        let finish = start + op.duration_ns;
        self.banks[bank_idx].occupy_until(finish);
        self.busy_mirror[bank_idx] = self.banks[bank_idx].busy_until();
        // Maintenance leaves the bank precharged (row movements end with a
        // precharge of the last written row).
        self.banks[bank_idx].precharge();
        for &row in &op.activations {
            self.banks[bank_idx].activate(row);
            self.banks[bank_idx].precharge();
            self.act_batch.push(ActivationEvent {
                bank: BankId::new(bank_idx),
                row,
                logical_row: row,
                at_ns: start,
                maintenance: true,
                maintenance_kind: Some(op.label),
            });
        }
        self.stats.record_maintenance(op.label, op.duration_ns, op.activations.len() as u64);
    }

    fn execute_demand(&mut self, bank_idx: usize, pending: PendingRequest, now: Nanos) {
        let timing = self.config.timing;
        let channel = self.mapper.channel_of(BankId::new(bank_idx));
        let bank_ready = self.banks[bank_idx].busy_until().max(now).max(pending.request.arrival_ns);

        let (row_hit, service_latency) =
            match (self.config.page_policy, self.banks[bank_idx].open_row()) {
                (PagePolicy::OpenPage, Some(open)) if open == pending.row => {
                    (true, timing.row_hit_latency())
                }
                (PagePolicy::OpenPage, Some(_)) => (false, timing.row_conflict_latency()),
                (PagePolicy::OpenPage, None) | (PagePolicy::ClosedPage, _) => {
                    (false, timing.row_closed_latency())
                }
            };

        // The data burst must also win the channel bus.
        let bus_ready = self.bus_free_ns[channel];
        let start = bank_ready.max(bus_ready.saturating_sub(service_latency - timing.t_burst));
        let finish = start + service_latency;
        self.bus_free_ns[channel] = finish;

        // Row-cycle time lower-bounds back-to-back activations in a bank.
        let occupy_until = if row_hit { finish } else { finish.max(start + timing.t_rc) };
        self.banks[bank_idx].occupy_until(occupy_until);
        self.busy_mirror[bank_idx] = self.banks[bank_idx].busy_until();

        if !row_hit {
            self.banks[bank_idx].activate(pending.row);
            self.act_batch.push(ActivationEvent {
                bank: BankId::new(bank_idx),
                row: pending.row,
                logical_row: pending.request.logical_row.unwrap_or(pending.row),
                at_ns: start,
                maintenance: false,
                maintenance_kind: None,
            });
            self.stats.activations += 1;
            self.stats.row_misses += 1;
        } else {
            self.stats.row_hits += 1;
        }
        if self.config.page_policy == PagePolicy::ClosedPage {
            self.banks[bank_idx].precharge();
        }
        match pending.request.kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        let done = CompletedAccess {
            request_id: pending.id,
            request: pending.request,
            finish_ns: finish,
            row_hit,
        };
        self.stats.total_demand_latency_ns += done.latency_ns();
        // Within a bank, finish times are monotone (the next access starts
        // at or after the previous occupy time), so push_back keeps the
        // queue sorted; the ordered insert below is a safety net should a
        // future scheduling change break that property.
        let queue = &mut self.completions[bank_idx];
        if queue.back().is_some_and(|last| last.finish_ns > done.finish_ns) {
            let at = queue.partition_point(|queued| queued.finish_ns <= done.finish_ns);
            queue.insert(at, done);
        } else {
            queue.push_back(done);
        }
        self.done_banks.insert(bank_idx);
        self.pending_completion_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::PhysAddr;
    use crate::command::MaintenanceKind;
    use crate::sink::EventCollector;

    fn small_config() -> DramConfig {
        DramConfig {
            channels: 1,
            banks_per_rank: 2,
            rows_per_bank: 1024,
            queue_capacity: 8,
            ..DramConfig::default()
        }
    }

    fn addr_for(mc: &MemoryController, bank: usize, row: u64) -> PhysAddr {
        mc.mapper().address_of(BankId::new(bank), row).unwrap()
    }

    /// Drain into a fresh collector and return the completions.
    fn drain_completions(mc: &mut MemoryController, step: Nanos) -> Vec<CompletedAccess> {
        let mut events = EventCollector::new();
        mc.drain_into(0, step, &mut events);
        events.completions
    }

    #[test]
    fn single_read_completes_with_closed_page_latency() {
        let mut mc = MemoryController::new(small_config());
        let addr = addr_for(&mc, 0, 5);
        let id = mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        let done = drain_completions(&mut mc, 5);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request_id, id);
        assert!(!done[0].row_hit);
        let expected = DramTimingHelper::closed_latency();
        assert_eq!(done[0].latency_ns(), expected);
        assert_eq!(mc.stats().reads, 1);
        assert_eq!(mc.stats().activations, 1);
    }

    struct DramTimingHelper;
    impl DramTimingHelper {
        fn closed_latency() -> Nanos {
            crate::config::DramTiming::default().row_closed_latency()
        }
    }

    #[test]
    fn closed_page_policy_never_reports_row_hits() {
        let mut mc = MemoryController::new(small_config());
        let addr = addr_for(&mc, 0, 5);
        for _ in 0..4 {
            mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        }
        let done = drain_completions(&mut mc, 5);
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|d| !d.row_hit));
        assert_eq!(mc.stats().activations, 4);
    }

    #[test]
    fn open_page_policy_hits_on_same_row() {
        let mut cfg = small_config();
        cfg.page_policy = PagePolicy::OpenPage;
        let mut mc = MemoryController::new(cfg);
        let addr = addr_for(&mc, 0, 5);
        for _ in 0..4 {
            mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        }
        let done = drain_completions(&mut mc, 5);
        assert_eq!(done.len(), 4);
        assert_eq!(done.iter().filter(|d| d.row_hit).count(), 3);
        assert_eq!(mc.stats().activations, 1);
    }

    #[test]
    fn queue_overflow_is_reported() {
        let mut mc = MemoryController::new(small_config());
        let addr = addr_for(&mc, 0, 1);
        for _ in 0..8 {
            mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        }
        assert!(!mc.can_accept_bank(BankId::new(0)));
        assert!(matches!(
            mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)),
            Err(DramError::QueueFull { .. })
        ));
    }

    #[test]
    fn maintenance_blocks_bank_and_streams_latent_activations() {
        let mut mc = MemoryController::new(small_config());
        let swap_ns = mc.config().swap_latency_ns();
        mc.enqueue_maintenance(MaintenanceOp::new(
            BankId::new(0),
            swap_ns,
            vec![10, 20],
            MaintenanceKind::Swap,
        ))
        .unwrap();
        let addr = addr_for(&mc, 0, 10);
        mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        let mut events = EventCollector::new();
        mc.drain_into(0, 50, &mut events);
        // The demand access waits for the swap to finish.
        assert!(events.completions[0].latency_ns() >= swap_ns);
        let maint: Vec<_> = events.activations.iter().filter(|a| a.maintenance).collect();
        assert_eq!(maint.len(), 2);
        assert_eq!(maint[0].row, 10);
        assert_eq!(maint[1].row, 20);
        assert_eq!(mc.stats().maintenance_count(MaintenanceKind::Swap), 1);
        assert_eq!(mc.stats().maintenance_activations, 2);
    }

    #[test]
    fn activation_stream_reports_logical_rows() {
        let mut mc = MemoryController::new(small_config());
        let addr = addr_for(&mc, 0, 17);
        // The issuer remapped logical row 3 to physical row 17.
        mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0).with_logical_row(3)).unwrap();
        let mut events = EventCollector::new();
        mc.drain_into(0, 5, &mut events);
        assert_eq!(events.activations.len(), 1);
        assert_eq!(events.activations[0].row, 17);
        assert_eq!(events.activations[0].logical_row, 3);
        assert!(!events.activations[0].maintenance);
    }

    #[test]
    fn batched_and_per_event_drain_produce_the_same_stream() {
        // Same request sequence twice, once per delivery mode: the collected
        // event streams (activations and completions, in order) must match.
        let run = |batched: bool| {
            let mut cfg = small_config();
            cfg.page_policy = PagePolicy::OpenPage;
            let mut mc = MemoryController::new(cfg);
            mc.set_batched_drain(batched);
            let swap_ns = mc.config().swap_latency_ns();
            mc.enqueue_maintenance(MaintenanceOp::new(
                BankId::new(1),
                swap_ns,
                vec![40, 41],
                MaintenanceKind::Swap,
            ))
            .unwrap();
            for (bank, row) in [(0, 7), (0, 1), (1, 3), (0, 7), (1, 3)] {
                let addr = addr_for(&mc, bank, row);
                mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
            }
            let mut events = EventCollector::new();
            mc.drain_into(0, 5, &mut events);
            events
        };
        let batched = run(true);
        let per_event = run(false);
        assert_eq!(batched.activations, per_event.activations);
        assert_eq!(batched.completions.len(), per_event.completions.len());
        for (b, p) in batched.completions.iter().zip(&per_event.completions) {
            assert_eq!(
                (b.request_id, b.finish_ns, b.row_hit),
                (p.request_id, p.finish_ns, p.row_hit)
            );
        }
    }

    #[test]
    fn completions_stream_once_and_in_finish_order() {
        let mut mc = MemoryController::new(small_config());
        for row in 0..4 {
            let addr = addr_for(&mc, 0, row);
            mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        }
        let mut events = EventCollector::new();
        let end = mc.drain_into(0, 5, &mut events);
        assert_eq!(events.completions.len(), 4);
        assert!(events.completions.windows(2).all(|w| w[0].finish_ns <= w[1].finish_ns));
        assert_eq!(mc.pending_completions(), 0);
        // Ticking past the end produces nothing further.
        let mut more = EventCollector::new();
        mc.tick_into(end + 1_000, &mut more);
        assert!(more.completions.is_empty());
    }

    #[test]
    fn pending_completion_count_tracks_scheduled_but_undelivered_work() {
        let mut mc = MemoryController::new(small_config());
        for bank in 0..2 {
            let addr = addr_for(&mc, bank, 5);
            mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        }
        assert_eq!(mc.pending_completions(), 0);
        let mut events = EventCollector::new();
        mc.tick_into(0, &mut events);
        // Both accesses scheduled, neither finish time reached yet.
        assert_eq!(mc.pending_completions(), 2);
        mc.drain_into(0, 5, &mut events);
        assert_eq!(mc.pending_completions(), 0);
        assert_eq!(events.completions.len(), 2);
    }

    #[test]
    fn refresh_blocks_all_banks_in_rank() {
        let mut mc = MemoryController::new(small_config());
        let t_refi = mc.config().timing.t_refi;
        // Advance past one refresh interval with no work queued.
        mc.tick_into(t_refi + 1, &mut EventCollector::new());
        assert_eq!(mc.stats().refreshes, 1);
        // Banks are now busy until roughly t_refi + t_rfc.
        assert!(mc.bank_busy_until(BankId::new(0)) >= t_refi);
        assert!(mc.bank_busy_until(BankId::new(1)) >= t_refi);
    }

    #[test]
    fn window_rollover_resets_per_window_counts() {
        let mut mc = MemoryController::new(small_config());
        let addr = addr_for(&mc, 0, 3);
        mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        let mut events = EventCollector::new();
        let t = mc.drain_into(0, 5, &mut events);
        assert!(t < mc.config().refresh_window_ns);
        mc.tick_into(mc.config().refresh_window_ns + 1, &mut events);
        assert_eq!(mc.stats().windows_elapsed, 1);
    }

    #[test]
    fn requests_to_different_banks_proceed_in_parallel() {
        let mut mc = MemoryController::new(small_config());
        let a0 = addr_for(&mc, 0, 1);
        let a1 = addr_for(&mc, 1, 1);
        mc.enqueue(MemRequest::new(a0, AccessKind::Read, 0, 0)).unwrap();
        mc.enqueue(MemRequest::new(a1, AccessKind::Read, 0, 0)).unwrap();
        let done = drain_completions(&mut mc, 1);
        assert_eq!(done.len(), 2);
        // Bank-parallel accesses should not serialize on tRC; only the burst
        // serializes on the shared channel bus.
        let t = mc.config().timing;
        let max_finish = done.iter().map(|d| d.finish_ns).max().unwrap();
        assert!(max_finish <= t.row_closed_latency() + t.t_burst);
    }

    #[test]
    fn next_event_when_idle_is_the_refresh_deadline() {
        let mc = MemoryController::new(small_config());
        // Nothing queued: the only upcoming events are periodic maintenance,
        // and the per-rank refresh (tREFI) comes long before the 64 ms
        // window rollover.
        assert_eq!(mc.next_event_ns(0), mc.config().timing.t_refi);
        // The result is strictly in the future even when asked from a time
        // at or past the deadline.
        let refi = mc.config().timing.t_refi;
        assert_eq!(mc.next_event_ns(refi), refi + 1);
    }

    #[test]
    fn next_event_with_queued_demand_is_the_completion_time() {
        let mut mc = MemoryController::new(small_config());
        let addr = addr_for(&mc, 0, 5);
        mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        // Before any tick the bank is free with work queued: schedulable now.
        assert_eq!(mc.next_event_ns(0), 1);
        let mut events = EventCollector::new();
        mc.tick_into(0, &mut events);
        // The access is in flight; the next thing to happen is its
        // completion becoming deliverable.
        let expected = DramTimingHelper::closed_latency();
        assert_eq!(mc.next_event_ns(0), expected);
        // Deliver it; afterwards only refresh remains.
        mc.tick_into(expected, &mut events);
        assert_eq!(events.completions.len(), 1);
        assert_eq!(mc.next_event_ns(expected), mc.config().timing.t_refi);
    }

    #[test]
    fn next_event_with_maintenance_blocking_demand_is_the_bank_free_time() {
        let mut mc = MemoryController::new(small_config());
        let swap_ns = mc.config().swap_latency_ns();
        mc.enqueue_maintenance(MaintenanceOp::new(
            BankId::new(0),
            swap_ns,
            vec![],
            MaintenanceKind::Swap,
        ))
        .unwrap();
        let addr = addr_for(&mc, 0, 3);
        mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        let mut events = EventCollector::new();
        mc.tick_into(0, &mut events);
        // The swap occupies the bank; the queued demand request can only be
        // scheduled once the bank frees at the swap's finish time.
        assert_eq!(mc.next_event_ns(0), swap_ns);
        assert_eq!(mc.bank_busy_until(BankId::new(0)), swap_ns);
    }

    #[test]
    fn next_event_in_a_drained_system_is_refresh_dominated() {
        let mut mc = MemoryController::new(small_config());
        let t_refi = mc.config().timing.t_refi;
        let addr = addr_for(&mc, 0, 5);
        mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap();
        let mut events = EventCollector::new();
        let end = mc.drain_into(0, 5, &mut events);
        // Fully drained: every reported event from here on is a refresh
        // deadline, until the window rollover overtakes them.
        let mut now = end;
        for _ in 0..4 {
            let next = mc.next_event_ns(now);
            assert_eq!(next % t_refi, 0, "expected a tREFI multiple, got {next}");
            mc.tick_into(next, &mut events);
            now = next;
        }
        assert!(mc.stats().refreshes >= 4);
    }

    #[test]
    fn frfcfs_row_hits_keep_fcfs_order_for_the_rest() {
        // Open-page: rows 7,1,7,2,7 queued on one bank. The open-row hits
        // (the 7s) are picked out of the middle; the remaining requests must
        // still complete in 1-before-2 order.
        let mut cfg = small_config();
        cfg.page_policy = PagePolicy::OpenPage;
        let mut mc = MemoryController::new(cfg);
        // Open row 7 first.
        mc.enqueue(MemRequest::new(addr_for(&mc, 0, 7), AccessKind::Read, 0, 0)).unwrap();
        let mut events = EventCollector::new();
        mc.tick_into(0, &mut events);
        for row in [1, 7, 2, 7] {
            mc.enqueue(MemRequest::new(addr_for(&mc, 0, row), AccessKind::Read, 0, 0)).unwrap();
        }
        mc.drain_into(0, 5, &mut events);
        let rows: Vec<RowId> =
            events.completions.iter().map(|c| mc.mapper().bank_and_row(c.request.addr).1).collect();
        assert_eq!(rows[0], 7, "first access opens the row");
        // Both hits on row 7 are served before the conflicting rows, and the
        // conflicting rows keep their FCFS order.
        assert_eq!(&rows[1..], &[7, 7, 1, 2]);
        assert_eq!(mc.stats().row_hits, 2);
    }

    #[test]
    fn ticks_visit_banks_in_ascending_order_across_bitmask_words() {
        // 2 channels × 64 banks: 128 banks, two words per bank bitmask.
        let config = DramConfig { banks_per_rank: 64, ..DramConfig::default() };
        let mut mc = MemoryController::new(config);
        let banks: Vec<usize> = (0..128).rev().step_by(5).collect();
        let mut ids: Vec<RequestId> = banks
            .iter()
            .map(|&bank| {
                let addr = addr_for(&mc, bank, 3);
                mc.enqueue(MemRequest::new(addr, AccessKind::Read, 0, 0)).unwrap()
            })
            .collect();
        let mut events = EventCollector::new();
        mc.tick_into(0, &mut events);
        let activated: Vec<usize> = events.activations.iter().map(|a| a.bank.index()).collect();
        let mut ascending = banks.clone();
        ascending.sort_unstable();
        assert_eq!(activated, ascending, "one tick schedules every bank, lowest first");
        assert!(events.completions.is_empty());
        let next = mc.next_event_ns(0);
        mc.drain_into(0, 5, &mut events);
        let earliest = events.completions.iter().map(|c| c.finish_ns).min().unwrap();
        assert_eq!(next, earliest, "the next event is the earliest completion");
        let mut completed: Vec<RequestId> =
            events.completions.iter().map(|c| c.request_id).collect();
        completed.sort_unstable();
        ids.sort_unstable();
        assert_eq!(completed, ids, "every request completes exactly once");
    }

    #[test]
    fn bad_maintenance_bank_is_rejected() {
        let mut mc = MemoryController::new(small_config());
        let op = MaintenanceOp::new(BankId::new(999), 100, vec![], MaintenanceKind::Other);
        assert!(mc.enqueue_maintenance(op).is_err());
    }
}
