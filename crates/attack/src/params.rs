//! Parameters of the attack analyses (Table II of the paper).

use srs_dram::DramConfig;

/// The memory controller's row-buffer policy as seen by the attacker.
///
/// The paper assumes a closed-page policy (Section III-B); the Discussion
/// section studies how an open-page policy blunts Juggernaut by making every
/// attacker activation more expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttackPagePolicy {
    /// Closed-page: every access to the target row costs one `tRC`.
    #[default]
    ClosedPage,
    /// Open-page: the attacker must alternate conflicting rows to force
    /// activations, roughly doubling the cost of each one.
    OpenPage,
}

/// Parameters used by the analytical and Monte-Carlo attack models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackParams {
    /// Row Hammer threshold `TRH`.
    pub t_rh: u64,
    /// Swap threshold `TS` (the defense swaps a row every `TS` activations).
    pub t_s: u64,
    /// Rows per bank, `R`.
    pub rows_per_bank: u64,
    /// Row cycle time `tRC` in nanoseconds.
    pub t_rc_ns: u64,
    /// Refresh cycle time `tRFC` in nanoseconds.
    pub t_rfc_ns: u64,
    /// Refresh window (retention interval) in nanoseconds.
    pub refresh_window_ns: u64,
    /// Number of REF commands per refresh window (8192 for DDR4).
    pub refreshes_per_window: u64,
    /// Swap latency `tswap` in nanoseconds.
    pub t_swap_ns: u64,
    /// Unswap-swap latency `treswap` in nanoseconds.
    pub t_reswap_ns: u64,
    /// Latent activations per unswap-swap round `L` (1.5 on average for RRS
    /// with swap buffers, 0 for SRS).
    pub latent_per_round: f64,
    /// The attacker's view of the page policy.
    pub page_policy: AttackPagePolicy,
}

impl AttackParams {
    /// Parameters for attacking **RRS** at a given `TRH` and swap rate on
    /// the paper's DDR4 system.
    #[must_use]
    pub fn rrs(t_rh: u64, swap_rate: u64) -> Self {
        Self::from_dram(&DramConfig::default(), t_rh, swap_rate, 1.5)
    }

    /// Parameters for attacking **SRS / Scale-SRS**: identical timing but no
    /// latent activations per round, because there are no unswap-swaps.
    #[must_use]
    pub fn srs(t_rh: u64, swap_rate: u64) -> Self {
        Self::from_dram(&DramConfig::default(), t_rh, swap_rate, 0.0)
    }

    /// Build parameters from an arbitrary DRAM configuration.
    #[must_use]
    pub fn from_dram(dram: &DramConfig, t_rh: u64, swap_rate: u64, latent_per_round: f64) -> Self {
        Self {
            t_rh,
            t_s: (t_rh / swap_rate.max(1)).max(1),
            rows_per_bank: dram.rows_per_bank,
            t_rc_ns: dram.timing.t_rc,
            t_rfc_ns: dram.timing.t_rfc,
            refresh_window_ns: dram.refresh_window_ns,
            refreshes_per_window: 8192,
            t_swap_ns: 2_700,
            t_reswap_ns: 5_400,
            latent_per_round,
            page_policy: AttackPagePolicy::ClosedPage,
        }
    }

    /// The swap rate `TRH / TS` implied by these parameters.
    #[must_use]
    pub fn swap_rate(&self) -> u64 {
        self.t_rh / self.t_s.max(1)
    }

    /// Effective cost of one attacker-issued activation in nanoseconds.
    #[must_use]
    pub fn activation_cost_ns(&self) -> u64 {
        match self.page_policy {
            AttackPagePolicy::ClosedPage => self.t_rc_ns,
            AttackPagePolicy::OpenPage => 2 * self.t_rc_ns,
        }
    }

    /// Equation 4: the time per refresh window actually usable by the
    /// attacker once refresh operations are discounted, in nanoseconds.
    #[must_use]
    pub fn usable_window_ns(&self) -> f64 {
        self.refresh_window_ns as f64 - (self.t_rfc_ns * self.refreshes_per_window) as f64
    }

    /// A DDR5-style variant of these parameters: refresh operations run
    /// twice as often, halving the refresh window (Discussion §5).
    #[must_use]
    pub fn with_ddr5_refresh(mut self) -> Self {
        self.refresh_window_ns /= 2;
        self.refreshes_per_window /= 2;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rrs_defaults_match_table_ii() {
        let p = AttackParams::rrs(4800, 6);
        assert_eq!(p.t_s, 800);
        assert_eq!(p.rows_per_bank, 128 * 1024);
        assert_eq!(p.t_rc_ns, 45);
        assert_eq!(p.t_swap_ns, 2_700);
        assert_eq!(p.t_reswap_ns, 5_400);
        assert!((p.latent_per_round - 1.5).abs() < f64::EPSILON);
    }

    #[test]
    fn srs_has_no_latent_activations() {
        let p = AttackParams::srs(4800, 6);
        assert_eq!(p.latent_per_round, 0.0);
        assert_eq!(p.swap_rate(), 6);
    }

    #[test]
    fn usable_window_is_about_61ms() {
        let p = AttackParams::rrs(4800, 6);
        let usable = p.usable_window_ns();
        assert!(usable > 60.0e6 && usable < 62.0e6, "usable = {usable}");
    }

    #[test]
    fn open_page_doubles_activation_cost() {
        let mut p = AttackParams::rrs(4800, 6);
        assert_eq!(p.activation_cost_ns(), 45);
        p.page_policy = AttackPagePolicy::OpenPage;
        assert_eq!(p.activation_cost_ns(), 90);
    }

    #[test]
    fn ddr5_variant_halves_the_window() {
        let p = AttackParams::rrs(4800, 6).with_ddr5_refresh();
        assert_eq!(p.refresh_window_ns, 32_000_000);
        assert_eq!(p.refreshes_per_window, 4096);
    }
}
