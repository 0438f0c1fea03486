//! # srs-workloads
//!
//! The memory-access trace format and synthetic workload generators used to
//! drive the Scale-SRS performance evaluation. The paper uses Pin-generated
//! traces of SPEC2006, SPEC2017, GAP, COMMERCIAL, PARSEC and BIOBENCH plus
//! GUPS and six mixes (78 workloads in total); those traces are proprietary,
//! so [`suite`] maps every named workload onto a synthetic profile that
//! reproduces the row-activation behaviour the defenses respond to.
//!
//! ## Example
//!
//! ```
//! use srs_workloads::{all_workloads, Suite};
//!
//! let workloads = all_workloads();
//! assert_eq!(workloads.len(), 78);
//! let gcc = workloads.iter().find(|w| w.name == "gcc").unwrap();
//! let trace = gcc.spec().generate(1_000, 42);
//! assert_eq!(trace.len(), 1_000);
//! assert_eq!(gcc.suite, Suite::Spec2006);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod suite;
pub mod synth;
pub mod trace;

pub use suite::{all_workloads, hot_row_workloads, workloads_in, NamedWorkload, Suite, TraceKey};
pub use synth::{hammer_trace, AccessPattern, HammerTrace, WorkloadSpec};
pub use trace::{MemOp, Trace, TraceRecord};
