//! # scale-srs
//!
//! A from-scratch Rust reproduction of *"Scalable and Secure Row-Swap:
//! Efficient and Safe Row Hammer Mitigation in Memory Systems"* (Woo,
//! Saileshwar, Nair — HPCA 2023).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`dram`] — the DDR4 memory system model (banks, timing, controller);
//! * [`cache`] — the Scale-SRS LLC pin-buffer;
//! * [`cpu`] — the trace-driven out-of-order core model;
//! * [`trackers`] — the Misra-Gries and Hydra aggressor trackers;
//! * [`core`] — the row-swap defenses: RRS, SRS and Scale-SRS;
//! * [`attack`] — the Juggernaut / birthday / outlier attack models;
//! * [`workloads`] — trace format and synthetic workload generators;
//! * [`sim`] — the full-system simulator and experiment runner.
//!
//! ## Quick start
//!
//! ```
//! use scale_srs::attack::juggernaut;
//! use scale_srs::core::{MitigationConfig, RowSwapDefense, ScaleSrs};
//!
//! // Security: Juggernaut breaks RRS in hours but not SRS.
//! assert!(juggernaut::time_to_break_rrs_days(4800, 6) < 1.0);
//! assert!(juggernaut::time_to_break_srs_days(4800, 6) > 365.0);
//!
//! // Mitigation: a hammered row gets swapped away from its home location.
//! let mut defense = ScaleSrs::new(MitigationConfig::paper_default(1200, 3));
//! defense.on_mitigation_trigger(0, 42, 0);
//! assert_ne!(defense.translate(0, 42), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use srs_attack as attack;
pub use srs_cache as cache;
pub use srs_core as core;
pub use srs_cpu as cpu;
pub use srs_dram as dram;
pub use srs_sim as sim;
pub use srs_trackers as trackers;
pub use srs_workloads as workloads;

/// The version of the reproduction, mirroring the crate version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
