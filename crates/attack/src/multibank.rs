//! The multiple-bank attack variant (Section III-C).
//!
//! Instead of concentrating on a single bank, the attacker can hammer
//! several banks "in parallel". Because all the activations still share the
//! channel's command bandwidth and each bank's swaps serialize behind its
//! own row migrations, the per-bank activation budget shrinks roughly with
//! the number of banks attacked, which sharply reduces the attack's potency
//! (the paper quotes 4 hours going to 9.9 years when all 16 banks of a
//! channel are targeted).

use crate::juggernaut::{best_attack, JuggernautOutcome, SECONDS_PER_DAY};
use crate::params::AttackParams;

/// Result of the multi-bank analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiBankOutcome {
    /// Number of banks attacked simultaneously.
    pub banks: u64,
    /// The per-bank outcome with the reduced activation budget.
    pub per_bank: JuggernautOutcome,
    /// Expected time until *any* of the attacked banks is broken, in seconds.
    pub expected_time_seconds: f64,
}

impl MultiBankOutcome {
    /// Expected attack time in days.
    #[must_use]
    pub fn expected_time_days(&self) -> f64 {
        self.expected_time_seconds / SECONDS_PER_DAY
    }
}

/// Evaluate the Juggernaut attack when `banks` banks are attacked at once.
///
/// Returns `None` if even a single round plus the guess phase no longer fits
/// the per-bank time budget.
#[must_use]
pub fn evaluate(params: &AttackParams, banks: u64) -> Option<MultiBankOutcome> {
    let banks = banks.max(1);
    // Each bank only receives 1/banks of the attacker's activation slots;
    // model this by shrinking the usable window proportionally.
    let mut per_bank_params = *params;
    per_bank_params.refresh_window_ns = params.refresh_window_ns;
    per_bank_params.refreshes_per_window = params.refreshes_per_window;
    // Scale the effective activation cost so the per-window budget divides
    // across the attacked banks.
    per_bank_params.t_rc_ns = params.t_rc_ns.saturating_mul(banks).max(1);
    per_bank_params.t_swap_ns = params.t_swap_ns;
    per_bank_params.t_reswap_ns = params.t_reswap_ns;

    let per_bank = best_attack(&per_bank_params)?;
    // The attack succeeds when any one bank succeeds.
    let p_any = 1.0 - (1.0 - per_bank.window_success_probability).powi(banks as i32);
    let expected_time_seconds =
        if p_any > 0.0 { params.refresh_window_ns as f64 / 1e9 / p_any } else { f64::INFINITY };
    Some(MultiBankOutcome { banks, per_bank, expected_time_seconds })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacking_one_bank_reduces_to_the_plain_model() {
        let params = AttackParams::rrs(4800, 6);
        let single = evaluate(&params, 1).unwrap();
        let plain = best_attack(&params).unwrap();
        let ratio = single.expected_time_seconds / plain.expected_time_seconds;
        assert!(ratio > 0.99 && ratio < 1.01);
    }

    #[test]
    fn attacking_all_banks_is_much_slower() {
        let params = AttackParams::rrs(4800, 6);
        let single = evaluate(&params, 1).unwrap();
        let all = evaluate(&params, 16).unwrap();
        // The paper reports a swing from hours to years; require at least
        // two orders of magnitude.
        assert!(
            all.expected_time_seconds > 100.0 * single.expected_time_seconds,
            "single {} vs 16-bank {}",
            single.expected_time_seconds,
            all.expected_time_seconds
        );
    }

    #[test]
    fn banks_zero_is_clamped_to_one() {
        let params = AttackParams::rrs(4800, 6);
        assert_eq!(evaluate(&params, 0).unwrap().banks, 1);
    }
}
