//! # srs-core
//!
//! The row-swap Row Hammer mitigations of *"Scalable and Secure Row-Swap:
//! Efficient and Safe Row Hammer Mitigation in Memory Systems"* (HPCA 2023):
//!
//! * [`RandomizedRowSwap`] — the prior state of the art (RRS), including the
//!   unswap-swap operations whose latent activations the Juggernaut attack
//!   exploits, and the no-immediate-unswap variant of Figure 4;
//! * [`SecureRowSwap`] — SRS, the swap-only indirection with lazy place-back
//!   and per-row swap-tracking counters (Section IV);
//! * [`ScaleSrs`] — Scale-SRS, adding outlier detection and LLC pinning so a
//!   swap rate of 3 is safe (Section V);
//! * [`NoMitigation`] — the not-secure baseline all results are normalized
//!   against.
//!
//! All defenses implement the [`RowSwapDefense`] trait, which is the seam
//! between a defense and the memory system: the simulator feeds it tracker
//! triggers and clock ticks and receives [`MitigationAction`]s (row
//! movements with their latent activations, counter accesses, pin requests)
//! to charge against the DRAM timing model.
//!
//! ## Example
//!
//! ```
//! use srs_core::{MitigationConfig, RowSwapDefense, ScaleSrs};
//!
//! let config = MitigationConfig::paper_default(1200, 3);
//! let mut defense = ScaleSrs::new(config);
//! // The tracker says row 42 of bank 0 crossed TS activations:
//! let actions = defense.on_mitigation_trigger(0, 42, 0);
//! assert!(!actions.is_empty());
//! assert_ne!(defense.translate(0, 42), 42, "the row has been swapped away");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod baseline;
pub mod config;
pub mod counters;
pub mod defense;
pub mod power;
pub mod rit;
pub mod rrs;
pub mod scale_srs;
pub mod srs;
pub mod storage;
pub mod thresholds;

pub use actions::{MitigationAction, RowOpKind};
pub use baseline::NoMitigation;
pub use config::MitigationConfig;
pub use counters::SwapCounters;
pub use defense::{DefenseKind, RowSwapDefense};
pub use power::{power_for, PowerReport, SramPowerModel};
pub use rit::{BankRit, RitConfig, RowIndirectionTable, SwapRecord};
pub use rrs::RandomizedRowSwap;
pub use scale_srs::ScaleSrs;
pub use srs::SecureRowSwap;
pub use storage::{rrs_to_scale_srs_ratio, storage_for, StorageReport};

/// Instantiate a defense of the given kind.
///
/// The swap rate embedded in `config` should normally be the defense's
/// default ([`DefenseKind::default_swap_rate`]): 6 for RRS and SRS, 3 for
/// Scale-SRS.
///
/// # Examples
///
/// ```
/// use srs_core::{build_defense, DefenseKind, MitigationConfig};
///
/// let kind = DefenseKind::Srs;
/// let config = MitigationConfig::paper_default(4800, kind.default_swap_rate());
/// let defense = build_defense(kind, config);
/// assert_eq!(defense.name(), "srs");
/// ```
#[must_use]
pub fn build_defense(
    kind: DefenseKind,
    config: MitigationConfig,
) -> Box<dyn RowSwapDefense + Send> {
    match kind {
        DefenseKind::Baseline => Box::new(NoMitigation::new(config)),
        DefenseKind::Rrs { immediate_unswap } => {
            Box::new(RandomizedRowSwap::with_unswap_policy(config, immediate_unswap))
        }
        DefenseKind::Srs => Box::new(SecureRowSwap::new(config)),
        DefenseKind::ScaleSrs => Box::new(ScaleSrs::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        let kinds = [
            DefenseKind::Baseline,
            DefenseKind::Rrs { immediate_unswap: true },
            DefenseKind::Rrs { immediate_unswap: false },
            DefenseKind::Srs,
            DefenseKind::ScaleSrs,
        ];
        for kind in kinds {
            let config = MitigationConfig::paper_default(2400, kind.default_swap_rate().max(1));
            let defense = build_defense(kind, config);
            assert_eq!(defense.kind(), kind);
        }
    }

    #[test]
    fn defenses_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RandomizedRowSwap>();
        assert_send::<SecureRowSwap>();
        assert_send::<ScaleSrs>();
        assert_send::<NoMitigation>();
    }
}
