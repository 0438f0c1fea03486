//! The attack-pattern intermediate representation and the shipped pattern
//! library.
//!
//! A pattern describes *what* an adversary hammers; [`PatternProgram`]
//! compiles it against a concrete DRAM geometry into the cyclic aggressor
//! schedule an [`crate::engine::AttackerCore`] interprets, together with the
//! aggressor and victim (blast-radius) row sets the security-metrics layer
//! watches. All compilation is deterministic under a `u64` seed, so an
//! attack × defense grid is reproducible run to run.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The spatial/temporal shape of an adversarial access schedule.
///
/// Rows are logical row addresses within one bank; banks are global bank
/// indices. Both are reduced into the target geometry's range at compile
/// time, so a pattern written for a large device still runs on a scaled
/// test configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackPattern {
    /// Classic single-sided hammering of one aggressor row (a far dummy row
    /// in the same bank is alternated in to defeat an open-page policy).
    SingleSided {
        /// Global bank index to attack.
        bank: usize,
        /// The aggressor row.
        row: u64,
    },
    /// Double-sided hammering of the two rows sandwiching a victim.
    DoubleSided {
        /// Global bank index to attack.
        bank: usize,
        /// The victim row; `victim - 1` and `victim + 1` are hammered.
        victim: u64,
    },
    /// Generalized n-sided hammering: `aggressors` rows starting at `first`
    /// spaced `pitch` rows apart (pitch 2 leaves a victim between every
    /// aggressor pair).
    NSided {
        /// Global bank index to attack.
        bank: usize,
        /// First aggressor row.
        first: u64,
        /// Number of aggressor rows.
        aggressors: u64,
        /// Spacing between aggressor rows.
        pitch: u64,
    },
    /// The Juggernaut schedule of Section III: bias one aggressor per bank
    /// by forcing the defense to keep unswap-swapping it (harvesting latent
    /// activations at its home location), then fall back to random-guess
    /// hammering once `bias_rounds` mitigations have been observed. With
    /// `banks > 1` this is the multiple-bank variant of Section III-C.
    Juggernaut {
        /// Number of banks attacked in parallel (starting at bank 0).
        banks: usize,
        /// The aggressor row hammered in every attacked bank.
        aggressor: u64,
        /// Observed mitigations per bank before switching to the
        /// random-guess phase (`u64::MAX` never switches: pure biasing).
        bias_rounds: u64,
    },
    /// A Blacksmith-style non-uniform fuzzed pattern: `aggressors` distinct
    /// rows inside a region, each with a fuzzed intensity (relative
    /// hammer frequency) and phase, scheduled non-uniformly. The shape is
    /// drawn deterministically from the attacker seed.
    Blacksmith {
        /// Global bank index to attack.
        bank: usize,
        /// First row of the fuzzed region.
        region_base: u64,
        /// Number of rows in the fuzzed region.
        region_rows: u64,
        /// Number of aggressor rows to pick inside the region.
        aggressors: u64,
        /// Maximum per-aggressor intensity (schedule-slot multiplicity).
        max_intensity: u64,
    },
}

impl AttackPattern {
    /// A short stable label for reports and grid axes.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AttackPattern::SingleSided { .. } => "single-sided",
            AttackPattern::DoubleSided { .. } => "double-sided",
            AttackPattern::NSided { .. } => "n-sided",
            AttackPattern::Juggernaut { banks: 1, .. } => "juggernaut",
            AttackPattern::Juggernaut { .. } => "juggernaut-multibank",
            AttackPattern::Blacksmith { .. } => "blacksmith",
        }
    }
}

/// One run of an attack: the pattern plus the knobs the simulator needs to
/// instantiate attacker cores for it.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSpec {
    /// Name used on the experiment grid's attack axis and in reports.
    pub name: String,
    /// The pattern to run.
    pub pattern: AttackPattern,
    /// Number of attacker cores to add to the system (each gets a
    /// seed-derived RNG stream; they share the pattern).
    pub attacker_cores: usize,
    /// Seed for pattern compilation and the attacker's random choices.
    pub seed: u64,
    /// Stop the simulation at the first TRH crossing (time-to-break runs)
    /// instead of simulating through to the time cap.
    pub stop_at_first_crossing: bool,
}

impl AttackSpec {
    /// An attack with one attacker core, a fixed default seed, and
    /// stop-at-first-crossing semantics.
    #[must_use]
    pub fn new(name: impl Into<String>, pattern: AttackPattern) -> Self {
        Self {
            name: name.into(),
            pattern,
            attacker_cores: 1,
            seed: 0xA77AC4,
            stop_at_first_crossing: true,
        }
    }

    /// Override the attacker seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run through to the simulated-time cap even after a TRH crossing.
    #[must_use]
    pub fn run_to_cap(mut self) -> Self {
        self.stop_at_first_crossing = false;
        self
    }
}

/// The shipped pattern library: one [`AttackSpec`] per pattern family,
/// positioned in low rows of bank 0 (and banks 0..4 for the multi-bank
/// Juggernaut) so they stay in range on scaled test geometries.
#[must_use]
pub fn shipped_patterns() -> Vec<AttackSpec> {
    vec![
        AttackSpec::new("single-sided", AttackPattern::SingleSided { bank: 0, row: 64 }),
        AttackSpec::new("double-sided", AttackPattern::DoubleSided { bank: 0, victim: 128 }),
        AttackSpec::new(
            "4-sided",
            AttackPattern::NSided { bank: 0, first: 200, aggressors: 4, pitch: 2 },
        ),
        AttackSpec::new(
            "juggernaut",
            AttackPattern::Juggernaut { banks: 1, aggressor: 96, bias_rounds: u64::MAX },
        ),
        AttackSpec::new(
            "juggernaut-multibank",
            AttackPattern::Juggernaut { banks: 4, aggressor: 96, bias_rounds: u64::MAX },
        ),
        AttackSpec::new(
            "blacksmith",
            AttackPattern::Blacksmith {
                bank: 0,
                region_base: 512,
                region_rows: 64,
                aggressors: 6,
                max_intensity: 8,
            },
        ),
    ]
}

/// A compiled pattern: the cyclic aggressor schedule plus the row sets the
/// metrics layer needs, specialized to one DRAM geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternProgram {
    /// Stable label of the source pattern.
    pub label: &'static str,
    /// The cyclic base schedule the attacker replays: (bank, row) pairs.
    /// Aggressors alternate with same-bank dummy rows where needed so every
    /// access forces a fresh activation even under an open-page policy.
    pub slots: Vec<(usize, u64)>,
    /// The aggressor rows of the pattern.
    pub aggressors: Vec<(usize, u64)>,
    /// The blast radius: rows physically adjacent to an aggressor.
    pub victims: Vec<(usize, u64)>,
    /// Banks the attacker monitors for mitigation feedback.
    pub banks: Vec<usize>,
    /// Observed mitigations before switching to random guessing, if the
    /// pattern has a guess phase.
    pub bias_rounds: Option<u64>,
}

/// Rows adjacent to `row`, clamped to the bank.
fn neighbors(row: u64, rows_per_bank: u64) -> impl Iterator<Item = u64> {
    let lo = row.checked_sub(1);
    let hi = (row + 1 < rows_per_bank).then_some(row + 1);
    lo.into_iter().chain(hi)
}

/// A far-away row in the same bank used to force the aggressor's row to
/// close between consecutive accesses.
fn dummy_row(row: u64, rows_per_bank: u64) -> u64 {
    (row + rows_per_bank / 2) % rows_per_bank.max(1)
}

impl PatternProgram {
    /// Compile `pattern` against a geometry of `total_banks` banks of
    /// `rows_per_bank` rows. Bank and row coordinates are reduced into
    /// range; `seed` drives the Blacksmith fuzzer (static patterns ignore
    /// it, keeping them seed-independent).
    #[must_use]
    pub fn compile(
        pattern: &AttackPattern,
        total_banks: usize,
        rows_per_bank: u64,
        seed: u64,
    ) -> Self {
        let banks = total_banks.max(1);
        let rows = rows_per_bank.max(4);
        let clamp_bank = |b: usize| b % banks;
        let clamp_row = |r: u64| r % rows;
        match *pattern {
            AttackPattern::SingleSided { bank, row } => {
                let (bank, row) = (clamp_bank(bank), clamp_row(row));
                Self::from_aggressors(
                    pattern.label(),
                    vec![(bank, row), (bank, dummy_row(row, rows))],
                    vec![(bank, row)],
                    rows,
                    None,
                )
            }
            AttackPattern::DoubleSided { bank, victim } => {
                let bank = clamp_bank(bank);
                let victim = clamp_row(victim).clamp(1, rows - 2);
                let aggressors = vec![(bank, victim - 1), (bank, victim + 1)];
                Self::from_aggressors(pattern.label(), aggressors.clone(), aggressors, rows, None)
            }
            AttackPattern::NSided { bank, first, aggressors, pitch } => {
                let bank = clamp_bank(bank);
                let pitch = pitch.max(1);
                // Slide the window down to fit the geometry, then shrink it
                // if the geometry cannot hold the requested aggressor count
                // at this pitch — every emitted row must stay in range.
                let count = aggressors.max(2);
                let span = (count - 1).saturating_mul(pitch).saturating_add(1);
                let first = clamp_row(first).min(rows.saturating_sub(span));
                let count = count.min((rows - 1 - first) / pitch + 1);
                let rows_list: Vec<(usize, u64)> =
                    (0..count).map(|i| (bank, first + i * pitch)).collect();
                Self::from_aggressors(pattern.label(), rows_list.clone(), rows_list, rows, None)
            }
            AttackPattern::Juggernaut { banks: attack_banks, aggressor, bias_rounds } => {
                let aggressor = clamp_row(aggressor);
                let attacked: Vec<usize> = (0..attack_banks.max(1).min(banks)).collect();
                // Round-robin across banks; within a bank alternate the
                // aggressor with a dummy so each visit is an activation.
                let mut slots = Vec::with_capacity(attacked.len() * 2);
                for &b in &attacked {
                    slots.push((b, aggressor));
                    slots.push((b, dummy_row(aggressor, rows)));
                }
                let aggressors: Vec<(usize, u64)> =
                    attacked.iter().map(|&b| (b, aggressor)).collect();
                Self::from_aggressors(pattern.label(), slots, aggressors, rows, Some(bias_rounds))
            }
            AttackPattern::Blacksmith {
                bank,
                region_base,
                region_rows,
                aggressors,
                max_intensity,
            } => {
                let bank = clamp_bank(bank);
                let region_rows = region_rows.clamp(4, rows);
                let region_base = clamp_row(region_base).min(rows - region_rows);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xB1AC_5317);
                let count = aggressors.clamp(1, region_rows / 2) as usize;
                // Distinct aggressor rows at even offsets (so fuzzed
                // patterns keep victims between aggressors), each with a
                // fuzzed intensity and phase.
                let mut chosen: Vec<u64> = Vec::with_capacity(count);
                while chosen.len() < count {
                    let row = region_base + rng.random_range(0..region_rows / 2) * 2;
                    if !chosen.contains(&row) {
                        chosen.push(row);
                    }
                }
                // Cap the per-aggressor intensity: the schedule length is
                // `sum(intensity)`, so an unbounded intensity gene (the
                // search mutates these freely) would make the compiled
                // program arbitrarily large.
                let max_intensity = max_intensity.clamp(1, 64);
                let mut weighted: Vec<(usize, u64)> = Vec::new();
                for &row in &chosen {
                    let intensity = rng.random_range(1..=max_intensity);
                    for _ in 0..intensity {
                        weighted.push((bank, row));
                    }
                }
                // Deterministic Fisher-Yates shuffle fuzzes the phase
                // ordering (the non-uniform part of Blacksmith schedules).
                for i in (1..weighted.len()).rev() {
                    let j = rng.random_range(0..=i);
                    weighted.swap(i, j);
                }
                let aggressors: Vec<(usize, u64)> = chosen.iter().map(|&r| (bank, r)).collect();
                Self::from_aggressors(pattern.label(), weighted, aggressors, rows, None)
            }
        }
    }

    fn from_aggressors(
        label: &'static str,
        slots: Vec<(usize, u64)>,
        aggressors: Vec<(usize, u64)>,
        rows_per_bank: u64,
        bias_rounds: Option<u64>,
    ) -> Self {
        let mut victims: Vec<(usize, u64)> = Vec::new();
        for &(bank, row) in &aggressors {
            for n in neighbors(row, rows_per_bank) {
                if !aggressors.contains(&(bank, n)) && !victims.contains(&(bank, n)) {
                    victims.push((bank, n));
                }
            }
        }
        let mut banks: Vec<usize> = aggressors.iter().map(|&(b, _)| b).collect();
        banks.sort_unstable();
        banks.dedup();
        Self { label, slots, aggressors, victims, banks, bias_rounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BANKS: usize = 32;
    const ROWS: u64 = 1 << 17;

    #[test]
    fn compilation_is_deterministic_per_seed() {
        for spec in shipped_patterns() {
            let a = PatternProgram::compile(&spec.pattern, BANKS, ROWS, spec.seed);
            let b = PatternProgram::compile(&spec.pattern, BANKS, ROWS, spec.seed);
            assert_eq!(a, b, "{} must compile deterministically", spec.name);
            assert!(!a.slots.is_empty());
            assert!(!a.aggressors.is_empty());
            assert!(!a.victims.is_empty());
        }
    }

    #[test]
    fn blacksmith_seed_changes_the_schedule() {
        let pattern = AttackPattern::Blacksmith {
            bank: 0,
            region_base: 512,
            region_rows: 64,
            aggressors: 6,
            max_intensity: 8,
        };
        let a = PatternProgram::compile(&pattern, BANKS, ROWS, 1);
        let b = PatternProgram::compile(&pattern, BANKS, ROWS, 2);
        assert_ne!(a.slots, b.slots, "different seeds must fuzz different schedules");
    }

    #[test]
    fn double_sided_brackets_the_victim() {
        let program = PatternProgram::compile(
            &AttackPattern::DoubleSided { bank: 3, victim: 100 },
            BANKS,
            ROWS,
            0,
        );
        assert_eq!(program.aggressors, vec![(3, 99), (3, 101)]);
        assert!(program.victims.contains(&(3, 100)));
    }

    #[test]
    fn multibank_juggernaut_spans_banks_and_has_a_guess_phase() {
        let program = PatternProgram::compile(
            &AttackPattern::Juggernaut { banks: 4, aggressor: 96, bias_rounds: 10 },
            BANKS,
            ROWS,
            0,
        );
        assert_eq!(program.banks, vec![0, 1, 2, 3]);
        assert_eq!(program.bias_rounds, Some(10));
        assert_eq!(program.slots.len(), 8, "aggressor + dummy per bank");
    }

    #[test]
    fn coordinates_are_reduced_into_scaled_geometries() {
        for spec in shipped_patterns() {
            let program = PatternProgram::compile(&spec.pattern, 4, 256, spec.seed);
            for &(bank, row) in program.slots.iter().chain(&program.aggressors) {
                assert!(bank < 4, "{}: bank {bank} out of range", spec.name);
                assert!(row < 256, "{}: row {row} out of range", spec.name);
            }
        }
    }

    #[test]
    fn oversized_n_sided_is_shrunk_into_the_geometry() {
        // More aggressors than the geometry can hold at this pitch: the
        // window must shrink, never emit out-of-range rows.
        let program = PatternProgram::compile(
            &AttackPattern::NSided { bank: 0, first: 0, aggressors: 200, pitch: 2 },
            4,
            256,
            0,
        );
        assert!(!program.aggressors.is_empty());
        for &(_, row) in program.slots.iter().chain(&program.aggressors).chain(&program.victims) {
            assert!(row < 256, "row {row} escaped the geometry");
        }
    }

    #[test]
    fn single_sided_alternates_with_a_far_dummy() {
        let program = PatternProgram::compile(
            &AttackPattern::SingleSided { bank: 0, row: 64 },
            BANKS,
            ROWS,
            0,
        );
        assert_eq!(program.slots.len(), 2);
        let (_, a) = program.slots[0];
        let (_, d) = program.slots[1];
        assert!(a.abs_diff(d) > 2, "dummy must be far from the aggressor");
    }
}
