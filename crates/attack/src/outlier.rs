//! The outlier-appearance model behind Scale-SRS's reduced swap rate
//! (Section V-B, Figure 13).
//!
//! Even under continuous attack only `ACT_max / TS` rows can be hammered to
//! the swap threshold per refresh window, and each swap lands on a random
//! one of the bank's `R` locations. The expected number of locations chosen
//! `k` times is therefore `R * p_k` with `p_k` binomial, and the number of
//! such locations in a window is Poisson-distributed. Windows containing
//! `M` locations with `k` or more swaps are exceedingly rare — rare enough
//! that pinning those few rows in the LLC is cheap.

use crate::params::AttackParams;
use crate::prob::{binomial_sf, poisson_pmf};

/// Outcome of the outlier analysis for one swap rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierOutcome {
    /// Swap threshold `TS` implied by the swap rate.
    pub t_s: u64,
    /// Number of rows the attacker can push to `TS` activations per window.
    pub hammerable_rows: u64,
    /// Expected number of locations receiving at least `k` swaps in one
    /// window (`R_K` in the paper's footnote).
    pub expected_outliers: f64,
    /// Expected time, in days, until a window contains at least `m`
    /// simultaneous outlier locations, for `m` = 1..=4.
    pub days_until_m_outliers: [f64; 4],
}

/// Analyze the appearance of outlier locations (rows hit by `k_swaps` or
/// more swaps) at a given swap rate.
#[must_use]
pub fn evaluate(params: &AttackParams, k_swaps: u64) -> OutlierOutcome {
    let ts = params.t_s;
    let act_cost = params.activation_cost_ns() as f64;
    // How many rows the attacker can drive to TS activations in one window.
    let per_row_cost = act_cost * ts as f64 + params.t_swap_ns as f64;
    let hammerable = (params.usable_window_ns() / per_row_cost).floor().max(0.0) as u64;
    let p_row = 1.0 / params.rows_per_bank as f64;
    // Probability that one specific location is chosen k or more times.
    let p_k = binomial_sf(hammerable, k_swaps, p_row);
    let expected_outliers = params.rows_per_bank as f64 * p_k;

    let window_days = params.refresh_window_ns as f64 / 1e9 / crate::juggernaut::SECONDS_PER_DAY;
    let mut days = [f64::INFINITY; 4];
    for (idx, m) in (1..=4u64).enumerate() {
        // P[at least m outliers in one window] via the Poisson tail.
        let mut tail = 1.0;
        for j in 0..m {
            tail -= poisson_pmf(expected_outliers, j);
        }
        let tail = tail.max(0.0);
        days[idx] = if tail > 0.0 { window_days / tail } else { f64::INFINITY };
    }
    OutlierOutcome {
        t_s: ts,
        hammerable_rows: hammerable,
        expected_outliers,
        days_until_m_outliers: days,
    }
}

/// Figure 13's y-axis: time until `m` simultaneous outlier rows appear, for
/// a given `TRH` and swap rate, in days. An "outlier" is a location chosen
/// at least `swap_rate` times — the count at which it would become dangerous
/// under that swap rate.
#[must_use]
pub fn days_until_outliers(t_rh: u64, swap_rate: u64, m: usize) -> f64 {
    let params = AttackParams::srs(t_rh, swap_rate);
    let outcome = evaluate(&params, swap_rate);
    outcome.days_until_m_outliers[m.clamp(1, 4) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hammerable_rows_match_the_papers_estimate() {
        // Section V-B: at TS = 1200 the attacker can hammer about 1134 rows.
        let params = AttackParams::srs(3600, 3); // TS = 1200
        let o = evaluate(&params, 3);
        assert!(
            o.hammerable_rows > 1_000 && o.hammerable_rows < 1_200,
            "rows = {}",
            o.hammerable_rows
        );
    }

    #[test]
    fn three_outliers_take_on_the_order_of_a_month_at_swap_rate_3() {
        // Figure 13: one window every ~31 days shows 3 outlier rows.
        let days = days_until_outliers(4800, 3, 3);
        assert!(days > 5.0 && days < 200.0, "days = {days}");
    }

    #[test]
    fn four_outliers_take_many_years_at_swap_rate_3() {
        // Figure 13: at least ~64 years for 4 simultaneous outliers.
        let days = days_until_outliers(4800, 3, 4);
        assert!(days > 365.0 * 20.0, "days = {days}");
    }

    #[test]
    fn higher_swap_rates_make_outliers_rarer() {
        let rate3 = days_until_outliers(4800, 3, 3);
        let rate6 = days_until_outliers(4800, 6, 3);
        assert!(rate6 > rate3);
    }

    #[test]
    fn one_outlier_is_common_enough_to_need_detection() {
        // A single location with 3 swaps shows up within days, which is why
        // Scale-SRS needs the detector at swap rate 3.
        let days = days_until_outliers(4800, 3, 1);
        assert!(days < 10.0, "days = {days}");
    }
}
