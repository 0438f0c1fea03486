//! Generational search over the attack-pattern IR.
//!
//! This module is the evolutionary half of the adaptive attack-search
//! subsystem: it owns the genome (an [`AttackPattern`] plus an attacker
//! seed), the mutation/crossover operators over that genome, the
//! deterministic fitness order, and the generational state machine. It
//! deliberately knows nothing about the simulator — scoring is the
//! caller's job (the `srs-sim` crate warms one `System` to steady state
//! and forks it once per candidate), which keeps the dependency direction
//! `sim -> attack` intact and makes the loop trivially testable with a
//! synthetic evaluator.
//!
//! Everything here is deterministic per `u64` seed: the breeding RNG for
//! generation `g` is derived from `seed ^ mix(g)` alone, so a resumed
//! search needs only the current population, the generation index and the
//! best-so-far record to continue bit-identically.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::engine::{AttackPattern, AttackSpec};

/// Number of pattern kinds in the genome's kind axis.
const KINDS: u64 = 5;

/// Maximum number of numeric genes any kind uses.
const GENES: usize = 5;

/// Upper bound used when a mutation re-rolls a gene from scratch. Compile
/// clamping folds anything into the target geometry, so this only shapes
/// the search distribution, not validity.
const FRESH_GENE_SPAN: u64 = 8192;

/// Tuning knobs of one search campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Candidates evaluated per generation.
    pub population: usize,
    /// Generations to run.
    pub generations: usize,
    /// Top-ranked candidates copied unchanged into the next generation.
    pub elites: usize,
    /// Per-gene probability that mutation perturbs it.
    pub mutation_rate: f64,
    /// Probability that an offspring is bred from two parents instead of
    /// cloned from one.
    pub crossover_rate: f64,
    /// Master seed; every random choice of the search derives from it.
    pub seed: u64,
}

impl SearchConfig {
    /// A config with the default operator rates (2 elites, 35% mutation,
    /// 50% crossover).
    #[must_use]
    pub fn new(population: usize, generations: usize, seed: u64) -> Self {
        Self {
            population: population.max(1),
            generations,
            elites: 2,
            mutation_rate: 0.35,
            crossover_rate: 0.5,
            seed,
        }
    }
}

/// One point of the search space: a pattern plus the attacker seed it
/// runs under (the seed is itself a gene — Blacksmith shapes and guess
/// phases depend on it).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Stable name for reports (`g<gen>c<slot>` for bred candidates,
    /// library names for the seeded generation 0).
    pub name: String,
    /// The pattern genome.
    pub pattern: AttackPattern,
    /// Attacker-core / pattern-compilation seed.
    pub seed: u64,
}

impl Candidate {
    /// The [`AttackSpec`] this candidate is scored as: one attacker core,
    /// stop at the first TRH crossing (time-to-break semantics).
    #[must_use]
    pub fn to_attack_spec(&self) -> AttackSpec {
        AttackSpec::new(self.name.clone(), self.pattern.clone()).with_seed(self.seed)
    }
}

/// A candidate's fitness, extracted from a `SecurityReport`.
///
/// The order is total and deterministic: candidates that cross the Row
/// Hammer threshold rank by time-to-first-crossing (earlier is stronger);
/// a crossing candidate always outranks a non-crossing one; non-crossing
/// candidates rank by closest-approach pressure ratio (`max_pressure /
/// t_rh`, compared exactly by cross-multiplication), with the simulated
/// time of that maximum as the tiebreak (earlier is stronger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    /// Simulated time of the first TRH crossing, if any.
    pub first_crossing_ns: Option<u64>,
    /// Maximum pressure any victim row accumulated inside one refresh
    /// window.
    pub max_pressure: u64,
    /// The Row Hammer threshold the run was scored against.
    pub t_rh: u64,
    /// Simulated time at which `max_pressure` was reached (the closest
    /// approach), if any activation was observed.
    pub closest_ns: Option<u64>,
}

impl Score {
    /// The closest-approach pressure ratio (`>= 1.0` iff the run crossed).
    #[must_use]
    pub fn pressure_ratio(&self) -> f64 {
        self.max_pressure as f64 / self.t_rh.max(1) as f64
    }

    /// Strength order: `Greater` means `self` is the stronger attack.
    #[must_use]
    pub fn strength(&self, other: &Score) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self.first_crossing_ns, other.first_crossing_ns) {
            // Both broke through: earlier break is stronger.
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => Ordering::Greater,
            (None, Some(_)) => Ordering::Less,
            (None, None) => {
                // Exact ratio comparison: a/ta vs b/tb as a*tb vs b*ta.
                let a = u128::from(self.max_pressure) * u128::from(other.t_rh.max(1));
                let b = u128::from(other.max_pressure) * u128::from(self.t_rh.max(1));
                a.cmp(&b).then_with(|| {
                    let a_ns = self.closest_ns.unwrap_or(u64::MAX);
                    let b_ns = other.closest_ns.unwrap_or(u64::MAX);
                    b_ns.cmp(&a_ns)
                })
            }
        }
    }
}

/// Decompose a pattern into its genome: a kind index plus up to
/// `GENES` numeric genes (unused trailing genes are absent).
#[must_use]
pub fn genes(pattern: &AttackPattern) -> (u64, Vec<u64>) {
    match pattern {
        AttackPattern::SingleSided { bank, row } => (0, vec![*bank as u64, *row]),
        AttackPattern::DoubleSided { bank, victim } => (1, vec![*bank as u64, *victim]),
        AttackPattern::NSided { bank, first, aggressors, pitch } => {
            (2, vec![*bank as u64, *first, *aggressors, *pitch])
        }
        AttackPattern::Juggernaut { banks, aggressor, bias_rounds } => {
            (3, vec![*banks as u64, *aggressor, *bias_rounds])
        }
        AttackPattern::Blacksmith { bank, region_base, region_rows, aggressors, max_intensity } => {
            (4, vec![*bank as u64, *region_base, *region_rows, *aggressors, *max_intensity])
        }
    }
}

/// Rebuild a pattern from a genome. Missing genes take library-shaped
/// defaults; every output is a well-formed pattern, and
/// `PatternProgram::compile` clamps all coordinates into the target
/// geometry, so arbitrary gene values are safe by construction.
#[must_use]
pub fn pattern_from_genes(kind: u64, genes: &[u64]) -> AttackPattern {
    let g = |i: usize, default: u64| genes.get(i).copied().unwrap_or(default);
    match kind % KINDS {
        0 => AttackPattern::SingleSided { bank: g(0, 0) as usize, row: g(1, 64) },
        1 => AttackPattern::DoubleSided { bank: g(0, 0) as usize, victim: g(1, 128) },
        2 => AttackPattern::NSided {
            bank: g(0, 0) as usize,
            first: g(1, 200),
            aggressors: g(2, 4),
            pitch: g(3, 2),
        },
        3 => AttackPattern::Juggernaut {
            banks: (g(0, 1) as usize).max(1),
            aggressor: g(1, 96),
            bias_rounds: g(2, u64::MAX),
        },
        _ => AttackPattern::Blacksmith {
            bank: g(0, 0) as usize,
            region_base: g(1, 512),
            region_rows: g(2, 64),
            aggressors: g(3, 6),
            max_intensity: g(4, 8),
        },
    }
}

/// Mutate a pattern: each gene is perturbed with probability `rate`, and
/// with probability `rate / 4` the pattern kind itself jumps (keeping the
/// positional genes, which the new kind reinterprets).
#[must_use]
pub fn mutate(pattern: &AttackPattern, rng: &mut StdRng, rate: f64) -> AttackPattern {
    let (mut kind, mut gene_values) = genes(pattern);
    if rng.random::<f64>() < rate / 4.0 {
        kind = rng.random_range(0..KINDS);
    }
    gene_values.resize(GENES, 0);
    for gene in &mut gene_values {
        if rng.random::<f64>() >= rate {
            continue;
        }
        *gene = match rng.random_range(0u32..6) {
            0 => gene.saturating_add(1),
            1 => gene.saturating_sub(1),
            2 => gene.saturating_add(rng.random_range(1u64..64)),
            3 => gene.saturating_sub(rng.random_range(1u64..64)),
            4 => gene.saturating_mul(2),
            _ => rng.random_range(0..FRESH_GENE_SPAN),
        };
    }
    pattern_from_genes(kind, &gene_values)
}

/// Uniform crossover: the kind comes from one parent, each gene from one
/// of the two, chosen per-position.
#[must_use]
pub fn crossover(a: &AttackPattern, b: &AttackPattern, rng: &mut StdRng) -> AttackPattern {
    let (kind_a, genes_a) = genes(a);
    let (kind_b, genes_b) = genes(b);
    let kind = if rng.random::<bool>() { kind_a } else { kind_b };
    let mut child = Vec::with_capacity(GENES);
    for i in 0..GENES {
        let (first, second) =
            if rng.random::<bool>() { (&genes_a, &genes_b) } else { (&genes_b, &genes_a) };
        match first.get(i).or_else(|| second.get(i)) {
            Some(gene) => child.push(*gene),
            None => break,
        }
    }
    pattern_from_genes(kind, &child)
}

/// The shipped pattern library as generation-0 candidates. Seeding the
/// search with the library guarantees the best-found candidate is never
/// weaker than the best shipped pattern under the same scoring path.
#[must_use]
pub fn shipped_candidates() -> Vec<Candidate> {
    crate::engine::shipped_patterns()
        .into_iter()
        .map(|spec| Candidate { name: spec.name.clone(), seed: spec.seed, pattern: spec.pattern })
        .collect()
}

/// What [`Search::advance`] reports about the generation it just scored.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationSummary {
    /// Zero-based index of the scored generation.
    pub index: usize,
    /// The generation's strongest candidate and its score.
    pub best: (Candidate, Score),
    /// The strongest candidate seen across all generations so far.
    pub best_so_far: (Candidate, Score),
}

/// The generational search state machine.
///
/// Usage is a strict loop: read [`Search::population`], score every
/// candidate externally (in submission order), feed the scores back
/// through [`Search::advance`], repeat until [`Search::done`].
#[derive(Debug, Clone)]
pub struct Search {
    config: SearchConfig,
    /// Generations already scored.
    generation: usize,
    population: Vec<Candidate>,
    best: Option<(Candidate, Score)>,
}

impl Search {
    /// A fresh search: generation 0 is the shipped library, truncated or
    /// padded with seeded mutants to the configured population size.
    ///
    /// # Panics
    ///
    /// Panics if `config.population` is 0: a generation needs a candidate
    /// to rank.
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        assert!(config.population >= 1, "a search needs a population of at least 1");
        let mut population = shipped_candidates();
        population.truncate(config.population);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED_0000);
        let library: Vec<AttackPattern> = population.iter().map(|c| c.pattern.clone()).collect();
        let mut slot = 0usize;
        while population.len() < config.population {
            let base = &library[slot % library.len().max(1)];
            population.push(Candidate {
                name: format!("g0c{}", population.len()),
                pattern: mutate(base, &mut rng, config.mutation_rate.max(0.5)),
                seed: rng.random::<u64>(),
            });
            slot += 1;
        }
        Self { config, generation: 0, population, best: None }
    }

    /// Rebuild a search mid-campaign from checkpointed state. The breeding
    /// RNG is derived from the seed and generation index alone, so this is
    /// bit-identical to never having stopped.
    #[must_use]
    pub fn resume(
        config: SearchConfig,
        generation: usize,
        population: Vec<Candidate>,
        best: Option<(Candidate, Score)>,
    ) -> Self {
        Self { config, generation, population, best }
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Generations scored so far (also the index of the generation the
    /// current population belongs to).
    #[must_use]
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Whether the generation budget is exhausted.
    #[must_use]
    pub fn done(&self) -> bool {
        self.generation >= self.config.generations
    }

    /// The candidates awaiting scores, in submission order.
    #[must_use]
    pub fn population(&self) -> &[Candidate] {
        &self.population
    }

    /// The strongest candidate seen so far, if any generation was scored.
    #[must_use]
    pub fn best(&self) -> Option<&(Candidate, Score)> {
        self.best.as_ref()
    }

    /// Rank the current population (strongest first; ties keep submission
    /// order), update best-so-far, and breed the next generation.
    ///
    /// # Panics
    ///
    /// Panics if `scores` does not have exactly one entry per candidate.
    pub fn advance(&mut self, scores: &[Score]) -> GenerationSummary {
        assert_eq!(
            scores.len(),
            self.population.len(),
            "one score per candidate, in population order"
        );
        let mut ranked: Vec<usize> = (0..scores.len()).collect();
        // Stable sort + submission-order ties keep ranking deterministic.
        ranked.sort_by(|&a, &b| scores[b].strength(&scores[a]));
        let best_index = ranked[0];
        let generation_best = (self.population[best_index].clone(), scores[best_index]);
        let replace = match &self.best {
            // Strictly stronger only: earlier generations win ties, so a
            // resumed run converges on the same champion.
            Some((_, incumbent)) => {
                generation_best.1.strength(incumbent) == std::cmp::Ordering::Greater
            }
            None => true,
        };
        if replace {
            self.best = Some(generation_best.clone());
        }
        let summary = GenerationSummary {
            index: self.generation,
            best: generation_best,
            best_so_far: self.best.clone().expect("best was just set or kept"),
        };

        self.generation += 1;
        self.population = self.breed(&ranked);
        summary
    }

    /// Breed the next population from the ranked current one: elites are
    /// copied unchanged, the rest are tournament-selected offspring.
    fn breed(&self, ranked: &[usize]) -> Vec<Candidate> {
        let next_gen = self.generation;
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ (next_gen as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut next = Vec::with_capacity(self.config.population);
        for &index in ranked.iter().take(self.config.elites.min(ranked.len())) {
            next.push(self.population[index].clone());
        }
        while next.len() < self.config.population {
            let pick = |rng: &mut StdRng| {
                // Tournament of two over rank positions: lower rank wins.
                let a = rng.random_range(0..ranked.len());
                let b = rng.random_range(0..ranked.len());
                &self.population[ranked[a.min(b)]]
            };
            let parent = pick(&mut rng).clone();
            let pattern = if rng.random::<f64>() < self.config.crossover_rate {
                let other = pick(&mut rng).clone();
                crossover(&parent.pattern, &other.pattern, &mut rng)
            } else {
                parent.pattern.clone()
            };
            let pattern = mutate(&pattern, &mut rng, self.config.mutation_rate);
            let seed = if rng.random::<bool>() { parent.seed } else { rng.random::<u64>() };
            next.push(Candidate { name: format!("g{next_gen}c{}", next.len()), pattern, seed });
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PatternProgram;

    /// A deterministic synthetic evaluator: stronger for larger row genes,
    /// crossing when a threshold is exceeded.
    fn fake_score(candidate: &Candidate) -> Score {
        let (_, genes) = genes(&candidate.pattern);
        let weight: u64 = genes.iter().fold(0u64, |acc, g| acc.wrapping_add(g % 1000));
        Score {
            first_crossing_ns: (weight > 800).then_some(1_000_000u64.saturating_sub(weight)),
            max_pressure: weight,
            t_rh: 1000,
            closest_ns: Some(500_000),
        }
    }

    fn run_search(config: SearchConfig) -> Vec<GenerationSummary> {
        let mut search = Search::new(config);
        let mut summaries = Vec::new();
        while !search.done() {
            let scores: Vec<Score> = search.population().iter().map(fake_score).collect();
            summaries.push(search.advance(&scores));
        }
        summaries
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let config = SearchConfig::new(8, 5, 42);
        assert_eq!(run_search(config.clone()), run_search(config));
        let other = SearchConfig::new(8, 5, 43);
        // Different seeds explore differently (populations diverge even if
        // the champion happens to agree).
        let a: Vec<_> = run_search(SearchConfig::new(8, 5, 42))
            .iter()
            .map(|s| s.best.0.pattern.clone())
            .collect();
        let b: Vec<_> = run_search(other).iter().map(|s| s.best.0.pattern.clone()).collect();
        // Not asserting inequality per-generation (they may coincide), but
        // the runs must at least both complete with full summaries.
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 5);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn an_empty_population_is_refused_at_construction() {
        // `SearchConfig::new` clamps the population; a literal does not.
        let _ = Search::new(SearchConfig { population: 0, ..SearchConfig::new(1, 1, 1) });
    }

    #[test]
    fn resume_mid_campaign_matches_uninterrupted_run() {
        let config = SearchConfig::new(6, 6, 7);
        let uninterrupted = run_search(config.clone());

        let mut search = Search::new(config.clone());
        for _ in 0..3 {
            let scores: Vec<Score> = search.population().iter().map(fake_score).collect();
            search.advance(&scores);
        }
        // Checkpoint exactly what the manifest persists, then resume.
        let mut resumed = Search::resume(
            config,
            search.generation(),
            search.population().to_vec(),
            search.best().cloned(),
        );
        let mut tail = Vec::new();
        while !resumed.done() {
            let scores: Vec<Score> = resumed.population().iter().map(fake_score).collect();
            tail.push(resumed.advance(&scores));
        }
        assert_eq!(tail.as_slice(), &uninterrupted[3..]);
    }

    #[test]
    fn generation_zero_is_seeded_from_the_shipped_library() {
        let library = shipped_candidates();
        let search = Search::new(SearchConfig::new(library.len() + 4, 1, 9));
        for (candidate, shipped) in search.population().iter().zip(&library) {
            assert_eq!(candidate.pattern, shipped.pattern);
            assert_eq!(candidate.name, shipped.name);
        }
        assert_eq!(search.population().len(), library.len() + 4);
    }

    #[test]
    fn score_order_is_total_and_matches_the_spec() {
        use std::cmp::Ordering;
        let crossed_early =
            Score { first_crossing_ns: Some(10), max_pressure: 5, t_rh: 4, closest_ns: Some(10) };
        let crossed_late =
            Score { first_crossing_ns: Some(99), max_pressure: 9, t_rh: 4, closest_ns: Some(99) };
        let near = Score { first_crossing_ns: None, max_pressure: 3, t_rh: 4, closest_ns: Some(7) };
        let far = Score { first_crossing_ns: None, max_pressure: 1, t_rh: 4, closest_ns: Some(2) };
        assert_eq!(crossed_early.strength(&crossed_late), Ordering::Greater);
        assert_eq!(crossed_late.strength(&near), Ordering::Greater);
        assert_eq!(near.strength(&far), Ordering::Greater);
        assert_eq!(near.strength(&near), Ordering::Equal);
        // Same ratio, earlier approach wins.
        let near_late = Score { closest_ns: Some(9), ..near };
        assert_eq!(near.strength(&near_late), Ordering::Greater);
    }

    #[test]
    fn operators_always_yield_compilable_patterns() {
        let mut rng = StdRng::seed_from_u64(123);
        let mut current = shipped_candidates()[0].pattern.clone();
        for step in 0..500 {
            let partner = shipped_candidates()[step % shipped_candidates().len()].pattern.clone();
            current = if step % 3 == 0 {
                crossover(&current, &partner, &mut rng)
            } else {
                mutate(&current, &mut rng, 0.9)
            };
            // Compile against a deliberately tiny geometry: clamping must
            // absorb any gene values the operators produced.
            let program = PatternProgram::compile(&current, 2, 8, step as u64);
            assert!(!program.slots.is_empty());
        }
    }
}
