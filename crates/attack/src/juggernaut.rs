//! The analytical model of the Juggernaut attack pattern (Section III-B).
//!
//! Juggernaut has two phases. Phase 1 biases one aggressor row towards a
//! high activation count by forcing the defense to keep unswap-swapping it,
//! harvesting the *latent activations* each mitigation performs at the
//! aggressor's original chip location (Equations 1-2). Phase 2 is a
//! random-guess attack that repeatedly activates randomly chosen rows `TS`
//! times each, hoping to land on the aggressor's original location the few
//! remaining times needed to cross `TRH` (Equations 3-10).
//!
//! The same machinery evaluates Secure Row-Swap by setting the latent
//! activations per round to zero (Equation 11-12), which is what makes SRS
//! robust: the attacker is pushed back to needing `swap_rate - 2` correct
//! guesses instead of 2.

use crate::params::AttackParams;
use crate::prob::binomial_sf;

/// Seconds per day, used to express attack times the way the paper does.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// The outcome of evaluating the analytical model at one number of attack
/// rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JuggernautOutcome {
    /// Number of unswap-swap rounds `N` used to bias the aggressor row.
    pub attack_rounds: u64,
    /// Activations accumulated on the aggressor's original location after
    /// phase 1 (Equation 1).
    pub biased_activations: f64,
    /// Additional activations still needed (Equation 2).
    pub activations_left: f64,
    /// Correct random guesses required, `k` (Equation 3).
    pub required_guesses: u64,
    /// Random guesses available per refresh window, `G` (Equation 7).
    pub guesses_per_window: u64,
    /// Success probability of one refresh window (Equation 8, upper tail).
    pub window_success_probability: f64,
    /// Expected attack time in seconds (Equations 9-10).
    pub expected_time_seconds: f64,
}

impl JuggernautOutcome {
    /// Expected attack time in days.
    #[must_use]
    pub fn expected_time_days(&self) -> f64 {
        self.expected_time_seconds / SECONDS_PER_DAY
    }

    /// Whether the attack succeeds within a single refresh window using the
    /// latent activations alone.
    #[must_use]
    pub fn single_window_break(&self) -> bool {
        self.required_guesses == 0
    }
}

/// Evaluate the analytical model for a given number of attack rounds `N`.
///
/// Returns `None` if the chosen number of rounds does not leave the attacker
/// any time for the random-guess phase within a refresh window (Equation 6
/// went non-positive while guesses were still required).
#[must_use]
pub fn evaluate(params: &AttackParams, attack_rounds: u64) -> Option<JuggernautOutcome> {
    let ts = params.t_s as f64;
    let act_cost = params.activation_cost_ns() as f64;

    // Equation 1: initial 2*TS - 1 demand activations plus one latent
    // activation from the initial swap, plus L latent activations per round.
    let biased = 2.0 * ts + params.latent_per_round * attack_rounds as f64;
    // Equation 2.
    let left = (params.t_rh as f64 - biased).max(0.0);
    // Equation 3.
    let required = (left / ts).ceil() as u64;

    // Equation 4.
    let t_actual = params.usable_window_ns();
    // Equation 5: each round costs TS-1 additional demand activations plus
    // the unswap-swap the defense performs.
    let t_aggr = ((ts - 1.0) * act_cost + params.t_reswap_ns as f64) * attack_rounds as f64;
    // Equation 6: subtract the initial 2*TS-1 activations and their swap.
    let t_initial = act_cost * (2.0 * ts - 1.0) + params.t_swap_ns as f64;
    let t_left = t_actual - t_aggr - t_initial;

    if required == 0 {
        // Latent activations alone crossed TRH: one refresh window suffices
        // (provided the rounds themselves fit, which `t_left >= 0` checks).
        if t_left < 0.0 {
            return None;
        }
        return Some(JuggernautOutcome {
            attack_rounds,
            biased_activations: biased,
            activations_left: left,
            required_guesses: 0,
            guesses_per_window: 0,
            window_success_probability: 1.0,
            expected_time_seconds: params.refresh_window_ns as f64 / 1e9,
        });
    }
    if t_left <= 0.0 {
        return None;
    }

    // Equation 7.
    let guess_cost = act_cost * (ts - 1.0) + params.t_swap_ns as f64;
    let guesses = (t_left / guess_cost).floor() as u64;
    if guesses == 0 {
        return None;
    }

    // Equation 8 (upper tail: landing at least k times succeeds).
    let p_row = 1.0 / params.rows_per_bank as f64;
    let p_window = binomial_sf(guesses, required, p_row);
    if p_window <= 0.0 {
        return None;
    }

    // Equations 9-10.
    let iterations = 1.0 / p_window;
    let expected_time_seconds = iterations * params.refresh_window_ns as f64 / 1e9;
    Some(JuggernautOutcome {
        attack_rounds,
        biased_activations: biased,
        activations_left: left,
        required_guesses: required,
        guesses_per_window: guesses,
        window_success_probability: p_window,
        expected_time_seconds,
    })
}

/// The maximum number of attack rounds that still fit in one refresh window.
#[must_use]
pub fn max_attack_rounds(params: &AttackParams) -> u64 {
    let act_cost = params.activation_cost_ns() as f64;
    let ts = params.t_s as f64;
    let t_initial = act_cost * (2.0 * ts - 1.0) + params.t_swap_ns as f64;
    let per_round = (ts - 1.0) * act_cost + params.t_reswap_ns as f64;
    ((params.usable_window_ns() - t_initial) / per_round).floor().max(0.0) as u64
}

/// Sweep the attack rounds and return the outcome that minimizes the
/// expected attack time (how the paper picks `N`, Section III-C).
#[must_use]
pub fn best_attack(params: &AttackParams) -> Option<JuggernautOutcome> {
    let max_rounds = max_attack_rounds(params);
    let step = (max_rounds / 512).max(1);
    let mut best: Option<JuggernautOutcome> = None;
    let mut n = 0;
    while n <= max_rounds {
        if let Some(outcome) = evaluate(params, n) {
            let better = match &best {
                Some(b) => outcome.expected_time_seconds < b.expected_time_seconds,
                None => true,
            };
            if better {
                best = Some(outcome);
            }
        }
        n += step;
    }
    best
}

/// Time to break **RRS** with Juggernaut at a given `TRH` and swap rate, in
/// days (the headline numbers of Figure 6 / Figure 10).
#[must_use]
pub fn time_to_break_rrs_days(t_rh: u64, swap_rate: u64) -> f64 {
    best_attack(&AttackParams::rrs(t_rh, swap_rate))
        .map_or(f64::INFINITY, |o| o.expected_time_days())
}

/// Time to break **SRS / Scale-SRS** with Juggernaut at a given `TRH` and
/// swap rate, in days. Because SRS has no latent activations, biasing rounds
/// never help and the best strategy is the pure random-guess attack.
#[must_use]
pub fn time_to_break_srs_days(t_rh: u64, swap_rate: u64) -> f64 {
    best_attack(&AttackParams::srs(t_rh, swap_rate))
        .map_or(f64::INFINITY, |o| o.expected_time_days())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equations_1_to_3_match_the_papers_worked_example() {
        // Section III-A: TRH 4800, TS 800, 800 rounds -> 1601 latent + 800
        // initial activations ~ 2401 total, needing 3 more correct guesses.
        let params = AttackParams::rrs(4800, 6);
        let o = evaluate(&params, 800).expect("800 rounds must be feasible");
        assert!((o.biased_activations - (1600.0 + 1.5 * 800.0)).abs() < 1e-9);
        assert_eq!(o.required_guesses, 3);
    }

    #[test]
    fn rrs_breaks_in_under_a_day_at_trh_4800() {
        let days = time_to_break_rrs_days(4800, 6);
        // The paper reports ~4 hours; allow the model some slack but require
        // well under one day.
        assert!(days < 1.0, "days = {days}");
        assert!(days > 0.01, "days = {days}");
    }

    #[test]
    fn rrs_breaks_within_one_window_at_low_thresholds() {
        let best = best_attack(&AttackParams::rrs(1200, 6)).unwrap();
        assert!(best.single_window_break(), "latent activations alone must suffice at TRH 1200");
        assert!(best.expected_time_seconds <= 0.065);
    }

    #[test]
    fn srs_resists_for_years_at_trh_4800() {
        let days = time_to_break_srs_days(4800, 6);
        // Paper: > 2 years.
        assert!(days > 730.0, "days = {days}");
    }

    #[test]
    fn srs_is_orders_of_magnitude_stronger_than_rrs() {
        for &t_rh in &[2400u64, 4800] {
            let rrs = time_to_break_rrs_days(t_rh, 6);
            let srs = time_to_break_srs_days(t_rh, 6);
            assert!(srs > 100.0 * rrs, "TRH {t_rh}: srs {srs} vs rrs {rrs}");
        }
    }

    #[test]
    fn increasing_swap_rate_does_not_save_rrs() {
        // Figure 10: RRS stays breakable in < 1 day regardless of swap rate.
        for swap_rate in 6..=10 {
            let days = time_to_break_rrs_days(4800, swap_rate);
            assert!(days < 1.0, "swap rate {swap_rate}: {days} days");
        }
    }

    #[test]
    fn increasing_swap_rate_strengthens_srs() {
        let six = time_to_break_srs_days(4800, 6);
        let ten = time_to_break_srs_days(4800, 10);
        assert!(ten > six);
    }

    #[test]
    fn required_guesses_decrease_with_attack_rounds() {
        // Figure 7: more biasing rounds -> fewer correct guesses needed.
        let params = AttackParams::rrs(4800, 6);
        let few = evaluate(&params, 100).unwrap().required_guesses;
        let many = evaluate(&params, 1200).unwrap().required_guesses;
        assert!(many < few);
    }

    #[test]
    fn too_many_rounds_leave_no_time_for_guessing() {
        let params = AttackParams::rrs(4800, 6);
        let max = max_attack_rounds(&params);
        assert!(
            evaluate(&params, max + 10).is_none()
                || evaluate(&params, max + 10).unwrap().required_guesses == 0
        );
        assert!(max > 1_000 && max < 2_000, "max rounds = {max}");
    }

    #[test]
    fn open_page_policy_slows_juggernaut_down() {
        let closed = best_attack(&AttackParams::rrs(4800, 6)).unwrap().expected_time_seconds;
        let mut params = AttackParams::rrs(4800, 6);
        params.page_policy = crate::params::AttackPagePolicy::OpenPage;
        let open = best_attack(&params).unwrap().expected_time_seconds;
        assert!(open > closed);
    }

    #[test]
    fn ddr5_refresh_still_leaves_rrs_vulnerable_at_low_trh() {
        // Discussion §5: even with 2x refresh, TRH <= 3100 breaks in < 1 day.
        let params = AttackParams::rrs(3000, 10).with_ddr5_refresh();
        let best = best_attack(&params).unwrap();
        assert!(best.expected_time_days() < 1.0);
    }
}
