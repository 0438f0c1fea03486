//! The closed-loop adversarial request source.
//!
//! An [`AttackerCore`] speaks the same issue protocol as
//! [`srs_cpu::TraceCore`] (`try_issue`, `complete_read`, `next_ready_ns`)
//! but generates its accesses *reactively*: it interprets a compiled
//! [`PatternProgram`], observes the controller's activation stream — in
//! particular the maintenance activations a row-swap defense performs —
//! and adapts. A Juggernaut program counts observed mitigations to pace
//! its biasing rounds and switches to the random-guess phase once enough
//! latent activations have been harvested; every attacker also watches its
//! own read completions for the latency spikes a multi-microsecond swap
//! operation imprints on queued demand traffic.
//!
//! All adaptive choices are drawn from a seeded RNG, so a run is fully
//! deterministic under (`pattern`, `seed`, geometry).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srs_cpu::{AccessToken, MemoryIssue};
use srs_dram::{AddressMapper, BankId, DramConfig};

use crate::engine::pattern::{AttackSpec, PatternProgram};

/// Counters exposed by an attacker core for the security-metrics layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackerStats {
    /// Reads issued by this attacker.
    pub issued_reads: u64,
    /// Demand activations observed on the monitored banks (the attacker's
    /// own hammering as confirmed by the controller).
    pub observed_demand_acts: u64,
    /// Maintenance activations observed on the monitored banks — the
    /// latent-activation feedback channel.
    pub observed_maintenance_acts: u64,
    /// Distinct mitigation operations inferred from the maintenance
    /// stream (consecutive maintenance activations sharing a timestamp on
    /// one bank are one operation).
    pub mitigations_observed: u64,
    /// Read completions whose latency exceeded the spike threshold — the
    /// side channel that betrays an in-flight swap even when the
    /// maintenance stream is not directly visible.
    pub latency_spikes: u64,
    /// Random-guess rows hammered in the Juggernaut guess phase.
    pub guesses_made: u64,
}

/// Which part of its program the attacker is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Replaying the compiled cyclic schedule (all static patterns, and the
    /// Juggernaut biasing phase).
    Schedule,
    /// Juggernaut phase 2: hammering randomly guessed rows `TS` times each.
    Guess {
        /// The currently guessed row.
        row: u64,
        /// Issues spent on the current guess so far.
        issued: u64,
    },
}

/// A closed-loop attacker core driving one compiled pattern.
///
/// `Clone` snapshots the attacker mid-run — program counter, RNG state,
/// outstanding reads and observation history — so a forked simulation
/// resumes the closed loop bit-exactly.
#[derive(Debug, Clone)]
pub struct AttackerCore {
    mapper: AddressMapper,
    program: PatternProgram,
    rng: StdRng,
    rows_per_bank: u64,
    /// The defense's swap threshold `TS` as known to the attacker (the
    /// standard Kerckhoffs assumption of the paper's analysis): the guess
    /// phase hammers each guessed row `TS` times.
    t_s: u64,
    /// Pacing between issued reads; defaults to `tRC` (the fastest an
    /// attacker can force activations in one bank).
    issue_gap_ns: u64,
    /// Completion latency above which a read counts as a swap-induced
    /// latency spike.
    spike_threshold_ns: u64,
    max_outstanding: usize,
    ready_at_ns: u64,
    slot: usize,
    phase: Phase,
    outstanding: Vec<(AccessToken, u64)>,
    next_token: u64,
    /// Per-monitored-bank timestamp of the last maintenance activation, for
    /// grouping one operation's activations into one observed mitigation.
    last_maintenance_ns: Vec<(usize, u64)>,
    stats: AttackerStats,
}

impl AttackerCore {
    /// Build an attacker for `spec` against a concrete DRAM geometry.
    ///
    /// `t_s` is the defense's swap threshold (use the Row Hammer threshold
    /// itself when attacking an undefended baseline) and `stream` picks the
    /// attacker's RNG stream so several cores sharing one spec diverge.
    #[must_use]
    pub fn new(spec: &AttackSpec, dram: &DramConfig, t_s: u64, stream: u64) -> Self {
        let seed = spec.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let program =
            PatternProgram::compile(&spec.pattern, dram.total_banks(), dram.rows_per_bank, seed);
        let last_maintenance_ns = program.banks.iter().map(|&b| (b, u64::MAX)).collect();
        Self {
            mapper: AddressMapper::new(dram.clone()),
            rng: StdRng::seed_from_u64(seed ^ 0xFEED_FACE),
            rows_per_bank: dram.rows_per_bank,
            t_s: t_s.max(1),
            issue_gap_ns: dram.timing.t_rc.max(1),
            // A swap blocks its bank for microseconds; demand reads queued
            // behind it complete far later than any benign conflict chain.
            spike_threshold_ns: dram.swap_latency_ns() / 2,
            max_outstanding: 4,
            ready_at_ns: 0,
            slot: 0,
            phase: Phase::Schedule,
            outstanding: Vec::with_capacity(4),
            next_token: 0,
            last_maintenance_ns,
            program,
            stats: AttackerStats::default(),
        }
    }

    /// The compiled program this attacker interprets.
    #[must_use]
    pub fn program(&self) -> &PatternProgram {
        &self.program
    }

    /// Attacker-side counters.
    #[must_use]
    pub fn stats(&self) -> &AttackerStats {
        &self.stats
    }

    /// Whether the attacker has switched to the random-guess phase.
    #[must_use]
    pub fn in_guess_phase(&self) -> bool {
        matches!(self.phase, Phase::Guess { .. })
    }

    fn monitored(&self, bank: usize) -> bool {
        self.program.banks.contains(&bank)
    }

    /// A fresh random guess row in the primary attacked bank, avoiding the
    /// schedule's own aggressors.
    fn pick_guess(&mut self) -> u64 {
        loop {
            let row = self.rng.random_range(0..self.rows_per_bank);
            let bank = self.program.banks[0];
            if !self.program.aggressors.contains(&(bank, row)) {
                self.stats.guesses_made += 1;
                return row;
            }
        }
    }

    /// The (bank, row) the attacker hammers next, advancing its state.
    fn next_target(&mut self) -> (usize, u64) {
        match self.phase {
            Phase::Schedule => {
                let target = self.program.slots[self.slot];
                self.slot = (self.slot + 1) % self.program.slots.len();
                target
            }
            Phase::Guess { row, issued } => {
                let bank = self.program.banks[0];
                // Alternate the guess with a far dummy so every visit
                // activates; `2 * TS` issues put `TS` activations on the
                // guess, after which the defense has either swapped it
                // (observed via the maintenance stream) or the guess was
                // wrong either way — move on.
                let target = if issued % 2 == 0 {
                    row
                } else {
                    (row + self.rows_per_bank / 2) % self.rows_per_bank
                };
                if issued + 1 >= 2 * self.t_s {
                    let fresh = self.pick_guess();
                    self.phase = Phase::Guess { row: fresh, issued: 0 };
                } else {
                    self.phase = Phase::Guess { row, issued: issued + 1 };
                }
                (bank, target)
            }
        }
    }

    /// Issue the next read of the program if the attacker is ready at
    /// `now`: paced by the issue gap and bounded by its outstanding reads.
    pub fn try_issue(&mut self, now: u64) -> Option<MemoryIssue> {
        if now < self.ready_at_ns || self.outstanding.len() >= self.max_outstanding {
            return None;
        }
        let (bank, row) = self.next_target();
        let addr = self
            .mapper
            .address_of(BankId::new(bank), row % self.rows_per_bank)
            .unwrap_or_else(|_| srs_dram::PhysAddr::new(0));
        self.ready_at_ns = self.ready_at_ns.max(now) + self.issue_gap_ns;
        let token = AccessToken(self.next_token);
        self.next_token += 1;
        self.outstanding.push((token, now));
        self.stats.issued_reads += 1;
        Some(MemoryIssue { token, addr: addr.value(), is_write: false })
    }

    /// Report that the read identified by `token` completed at `now`,
    /// counting it as a latency spike past the threshold.
    pub fn complete_read(&mut self, token: AccessToken, now: u64) {
        if let Some(idx) = self.outstanding.iter().position(|&(t, _)| t == token) {
            let (_, issued_ns) = self.outstanding.swap_remove(idx);
            if now.saturating_sub(issued_ns) > self.spike_threshold_ns {
                self.stats.latency_spikes += 1;
            }
        }
    }

    /// The earliest time the attacker could issue again without any
    /// external event, or `None` if only a read completion can unblock it.
    ///
    /// The event-driven engine's contract: `Some(t)` only if nothing about
    /// the attacker changes before `t` without an external event, and
    /// `None` only if it is inert until a read completion. An attacker
    /// never finishes; it hammers until the simulation ends.
    #[must_use]
    pub fn next_ready_ns(&self, _now: u64) -> Option<u64> {
        if self.outstanding.len() >= self.max_outstanding {
            // Only a completion event can unblock the attacker; the
            // simulator visits completions anyway.
            None
        } else {
            Some(self.ready_at_ns)
        }
    }

    /// Observe one row activation issued by the memory controller.
    ///
    /// `physical_row` is the chip location that was activated and
    /// `logical_row` the row address as issued by the system;
    /// `maintenance` marks activations performed by a mitigation operation
    /// (swap, unswap-swap, place-back) rather than a demand access.
    pub fn observe_activation(
        &mut self,
        bank: usize,
        _physical_row: u64,
        _logical_row: u64,
        maintenance: bool,
        now: u64,
    ) {
        if !self.monitored(bank) {
            return;
        }
        if !maintenance {
            self.stats.observed_demand_acts += 1;
            return;
        }
        self.stats.observed_maintenance_acts += 1;
        let slot = self
            .last_maintenance_ns
            .iter_mut()
            .find(|(b, _)| *b == bank)
            .expect("monitored bank has a slot");
        if slot.1 != now {
            slot.1 = now;
            self.stats.mitigations_observed += 1;
            match self.phase {
                Phase::Schedule => {
                    // Juggernaut: enough biasing rounds harvested — switch
                    // to random guessing.
                    if self
                        .program
                        .bias_rounds
                        .is_some_and(|rounds| self.stats.mitigations_observed >= rounds)
                    {
                        let fresh = self.pick_guess();
                        self.phase = Phase::Guess { row: fresh, issued: 0 };
                    }
                }
                Phase::Guess { .. } => {
                    // The defense just mitigated on our bank: the current
                    // guess has been swapped away (or the trigger was
                    // another row — either way its count is spent), so
                    // start a fresh guess immediately.
                    let fresh = self.pick_guess();
                    self.phase = Phase::Guess { row: fresh, issued: 0 };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pattern::AttackPattern;

    fn spec(pattern: AttackPattern) -> AttackSpec {
        AttackSpec::new("test", pattern)
    }

    fn attacker(pattern: AttackPattern) -> AttackerCore {
        AttackerCore::new(&spec(pattern), &DramConfig::default(), 200, 0)
    }

    #[test]
    fn issues_the_compiled_schedule_at_trc_pace() {
        let mut a = attacker(AttackPattern::SingleSided { bank: 0, row: 64 });
        let first = a.try_issue(0).expect("ready at time zero");
        assert!(!first.is_write);
        assert!(a.try_issue(1).is_none(), "paced by the issue gap");
        let gap = a.issue_gap_ns;
        assert!(a.try_issue(gap).is_some());
        assert_eq!(a.stats().issued_reads, 2);
    }

    #[test]
    fn outstanding_reads_are_bounded_and_completions_unblock() {
        let mut a = attacker(AttackPattern::DoubleSided { bank: 0, victim: 128 });
        let mut tokens = Vec::new();
        let mut now = 0;
        while let Some(issue) = a.try_issue(now) {
            tokens.push(issue.token);
            now += a.issue_gap_ns;
        }
        assert_eq!(tokens.len(), a.max_outstanding);
        assert_eq!(a.next_ready_ns(now), None);
        a.complete_read(tokens[0], now + 10);
        assert!(a.next_ready_ns(now + 10).is_some());
        assert!(a.try_issue(now + 10).is_some());
    }

    #[test]
    fn latency_spikes_are_detected() {
        let mut a = attacker(AttackPattern::SingleSided { bank: 0, row: 64 });
        let fast = a.try_issue(0).unwrap();
        a.complete_read(fast.token, 100);
        assert_eq!(a.stats().latency_spikes, 0);
        let slow = a.try_issue(a.issue_gap_ns).unwrap();
        a.complete_read(slow.token, a.issue_gap_ns + a.spike_threshold_ns + 1);
        assert_eq!(a.stats().latency_spikes, 1);
    }

    #[test]
    fn juggernaut_switches_to_guessing_after_bias_rounds() {
        let mut a = AttackerCore::new(
            &spec(AttackPattern::Juggernaut { banks: 1, aggressor: 96, bias_rounds: 3 }),
            &DramConfig::default(),
            200,
            0,
        );
        assert!(!a.in_guess_phase());
        // Three distinct-timestamp maintenance operations on the bank.
        for t in [1_000, 2_000, 3_000] {
            a.observe_activation(0, 96, 96, true, t);
            a.observe_activation(0, 7, 7, true, t); // same op, same timestamp
        }
        assert_eq!(a.stats().mitigations_observed, 3);
        assert!(a.in_guess_phase());
        // A mitigation observed mid-guess re-rolls the guess row.
        let before = a.stats().guesses_made;
        a.observe_activation(0, 96, 96, true, 4_000);
        assert_eq!(a.stats().guesses_made, before + 1);
    }

    #[test]
    fn feedback_outside_monitored_banks_is_ignored() {
        let mut a = attacker(AttackPattern::SingleSided { bank: 0, row: 64 });
        a.observe_activation(5, 96, 96, true, 1_000);
        assert_eq!(a.stats().observed_maintenance_acts, 0);
        assert_eq!(a.stats().mitigations_observed, 0);
    }

    #[test]
    fn two_streams_of_one_spec_diverge_deterministically() {
        let pattern = AttackPattern::Blacksmith {
            bank: 0,
            region_base: 512,
            region_rows: 64,
            aggressors: 6,
            max_intensity: 8,
        };
        let a = AttackerCore::new(&spec(pattern.clone()), &DramConfig::default(), 200, 0);
        let b = AttackerCore::new(&spec(pattern.clone()), &DramConfig::default(), 200, 1);
        let a2 = AttackerCore::new(&spec(pattern), &DramConfig::default(), 200, 0);
        assert_ne!(a.program().slots, b.program().slots, "streams fuzz distinct schedules");
        assert_eq!(a.program().slots, a2.program().slots, "same stream is reproducible");
    }
}
