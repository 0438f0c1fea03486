//! The untargeted ("birthday paradox") attack originally analyzed by RRS,
//! used for Figure 1a of the paper.
//!
//! The attacker continuously hammers randomly chosen rows `TS` times each,
//! hoping that *some* chip location ends up being targeted `swap_rate` times
//! within one refresh window. Unlike Juggernaut there is no biasing phase,
//! and any of the `R` rows of the bank can be the lucky one, so the success
//! probability of a window is roughly `R` times the single-row probability.

use crate::params::AttackParams;
use crate::prob::binomial_sf;

/// Outcome of the untargeted attack analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BirthdayOutcome {
    /// Random rows the attacker can hammer per refresh window.
    pub guesses_per_window: u64,
    /// Number of times a single location must be hit (the swap rate).
    pub required_hits: u64,
    /// Probability that at least one row of the bank is hit often enough in
    /// one refresh window.
    pub window_success_probability: f64,
    /// Expected attack time in seconds.
    pub expected_time_seconds: f64,
}

impl BirthdayOutcome {
    /// Expected attack time in days.
    #[must_use]
    pub fn expected_time_days(&self) -> f64 {
        self.expected_time_seconds / crate::juggernaut::SECONDS_PER_DAY
    }
}

/// Evaluate the untargeted attack against a swap-based defense.
#[must_use]
pub fn evaluate(params: &AttackParams) -> BirthdayOutcome {
    let ts = params.t_s as f64;
    let act_cost = params.activation_cost_ns() as f64;
    let guess_cost = act_cost * (ts - 1.0) + params.t_swap_ns as f64;
    let guesses = (params.usable_window_ns() / guess_cost).floor().max(0.0) as u64;
    let required = params.swap_rate();
    let p_row = 1.0 / params.rows_per_bank as f64;
    let p_single = binomial_sf(guesses, required, p_row);
    // Union bound over all rows of the bank (tight because p_single is tiny).
    let p_window = (params.rows_per_bank as f64 * p_single).min(1.0);
    let expected_time_seconds = if p_window > 0.0 {
        params.refresh_window_ns as f64 / 1e9 / p_window
    } else {
        f64::INFINITY
    };
    BirthdayOutcome {
        guesses_per_window: guesses,
        required_hits: required,
        window_success_probability: p_window,
        expected_time_seconds,
    }
}

/// Time to break RRS with the untargeted attack, in days (Figure 1a).
#[must_use]
pub fn time_to_break_days(t_rh: u64, swap_rate: u64) -> f64 {
    evaluate(&AttackParams::rrs(t_rh, swap_rate)).expected_time_days()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rrs_default_point_takes_years() {
        // Figure 1: TRH 4800, swap rate 6 -> more than 10^3 days (~3 years).
        let days = time_to_break_days(4800, 6);
        assert!(days > 1_000.0, "days = {days}");
        assert!(days < 100_000.0, "days = {days}");
    }

    #[test]
    fn higher_swap_rate_is_harder_to_break() {
        let six = time_to_break_days(4800, 6);
        let eight = time_to_break_days(4800, 8);
        assert!(eight > six);
    }

    #[test]
    fn lower_threshold_is_easier_to_break() {
        let hi = time_to_break_days(9600, 6);
        let lo = time_to_break_days(1200, 6);
        assert!(lo < hi);
    }

    #[test]
    fn outcome_reports_plausible_guess_counts() {
        let o = evaluate(&AttackParams::rrs(4800, 6));
        // ~61 ms / ~38.7 us per guess ~ 1580 guesses.
        assert!(o.guesses_per_window > 1_000 && o.guesses_per_window < 2_500);
        assert_eq!(o.required_hits, 6);
        assert!(o.window_success_probability > 0.0);
    }
}
