//! Event-driven Monte-Carlo validation of the analytical Juggernaut model
//! (the experimental points of Figure 6).
//!
//! The authors' artifact uses a "bins and buckets" C++ program: each trial
//! simulates refresh windows in which the random-guess phase picks `G`
//! random rows, and the attack succeeds when the aggressor's original
//! location is picked at least `k` times in a single window. The expected
//! attack time is the refresh-window length divided by the empirical
//! per-window success probability.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::juggernaut::{evaluate, JuggernautOutcome};
use crate::params::AttackParams;
use crate::prob::poisson_sample;

/// Result of a Monte-Carlo estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Number of simulated refresh windows.
    pub windows_simulated: u64,
    /// Number of windows in which the attack succeeded.
    pub successes: u64,
    /// Estimated expected attack time in seconds (infinite if no window
    /// succeeded).
    pub expected_time_seconds: f64,
    /// The analytical outcome the simulation was parameterised with.
    pub analytical: JuggernautOutcome,
}

impl MonteCarloResult {
    /// Estimated attack time in days.
    #[must_use]
    pub fn expected_time_days(&self) -> f64 {
        self.expected_time_seconds / crate::juggernaut::SECONDS_PER_DAY
    }

    /// Relative difference between the Monte-Carlo estimate and the
    /// analytical model (0 means a perfect match).
    #[must_use]
    pub fn relative_error(&self) -> f64 {
        if !self.expected_time_seconds.is_finite() {
            return f64::INFINITY;
        }
        (self.expected_time_seconds - self.analytical.expected_time_seconds).abs()
            / self.analytical.expected_time_seconds
    }
}

/// Run the Monte-Carlo experiment for a fixed number of attack rounds.
///
/// Returns `None` when the analytical model says the chosen number of rounds
/// is infeasible within one refresh window.
#[must_use]
pub fn simulate(
    params: &AttackParams,
    attack_rounds: u64,
    windows: u64,
    seed: u64,
) -> Option<MonteCarloResult> {
    let analytical = evaluate(params, attack_rounds)?;
    if analytical.required_guesses == 0 {
        return Some(MonteCarloResult {
            windows_simulated: 0,
            successes: 0,
            expected_time_seconds: analytical.expected_time_seconds,
            analytical,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let lambda = analytical.guesses_per_window as f64 / params.rows_per_bank as f64;
    let mut successes = 0u64;
    for _ in 0..windows {
        let hits = poisson_sample(&mut rng, lambda);
        if hits >= analytical.required_guesses {
            successes += 1;
        }
    }
    let expected_time_seconds = if successes == 0 {
        f64::INFINITY
    } else {
        let p = successes as f64 / windows as f64;
        params.refresh_window_ns as f64 / 1e9 / p
    };
    Some(MonteCarloResult {
        windows_simulated: windows,
        successes,
        expected_time_seconds,
        analytical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monte_carlo_matches_analytical_model_at_high_probability_points() {
        // Pick a round count that leaves a single correct guess to land, so
        // the per-window success probability is large enough to estimate
        // accurately with a modest number of simulated windows.
        let params = AttackParams::rrs(2400, 6);
        let rounds = 800;
        let result = simulate(&params, rounds, 200_000, 7).expect("feasible");
        if result.analytical.required_guesses == 0 {
            assert_eq!(result.expected_time_seconds, result.analytical.expected_time_seconds);
        } else {
            assert!(result.relative_error() < 0.5, "error = {}", result.relative_error());
        }
    }

    #[test]
    fn single_window_breaks_need_no_simulation() {
        let params = AttackParams::rrs(1200, 6);
        let result = simulate(&params, 600, 1_000, 3).expect("feasible");
        assert_eq!(result.windows_simulated, 0);
        assert!(result.expected_time_seconds <= 0.065);
    }

    #[test]
    fn infeasible_round_counts_return_none() {
        let params = AttackParams::rrs(4800, 6);
        let max = crate::juggernaut::max_attack_rounds(&params);
        // Far beyond the feasible budget and still needing guesses.
        assert!(simulate(&params, max * 4, 100, 1).is_none());
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let params = AttackParams::rrs(2400, 6);
        let a = simulate(&params, 100, 10_000, 42).unwrap();
        let b = simulate(&params, 100, 10_000, 42).unwrap();
        assert_eq!(a.successes, b.successes);
    }
}
