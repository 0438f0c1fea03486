//! The in-simulator adversarial attack engine.
//!
//! Everything else in this crate models attacks *analytically*
//! (closed-form equations, standalone Monte-Carlo). This module closes the
//! loop with the actual simulated memory system: an [`AttackerCore`] is a
//! request source, like [`srs_cpu::TraceCore`], that hammers through the
//! real controller, against the real trackers and defenses, reacting to the
//! feedback those components leak (maintenance activations, swap-induced
//! latency spikes).
//!
//! * [`AttackPattern`] — the pattern IR: single-sided, double-sided,
//!   n-sided, the (multi-bank) Juggernaut schedule and a seeded
//!   Blacksmith-style non-uniform fuzzer;
//! * [`PatternProgram`] — a pattern compiled against a DRAM geometry:
//!   cyclic schedule, aggressor and victim row sets, monitored banks;
//! * [`AttackSpec`] — a named attack run (pattern + attacker cores + seed),
//!   the unit the experiment grid's attack axis sweeps;
//! * [`shipped_patterns`] — the library of stock attacks;
//! * [`AttackerCore`] — the closed-loop interpreter.
//!
//! The companion security-metrics layer (per-victim-row activation
//! pressure, time-to-first-TRH-crossing, latent activations) lives in
//! `srs_sim::security`, where the activation stream is observed.

pub mod attacker;
pub mod pattern;

pub use attacker::{AttackerCore, AttackerStats};
pub use pattern::{shipped_patterns, AttackPattern, AttackSpec, PatternProgram};
