//! # srs-cpu
//!
//! A trace-driven out-of-order core model in the style of the USIMM memory
//! scheduling championship simulator, used to drive the Scale-SRS memory
//! system. Each [`TraceCore`] consumes a [`srs_workloads::Trace`] in rate
//! mode (looping until an instruction target is reached), overlapping memory
//! reads with up to a reorder-buffer's worth of younger instructions.
//!
//! ## Example
//!
//! ```
//! use srs_cpu::{CoreConfig, TraceCore};
//! use srs_workloads::WorkloadSpec;
//!
//! let trace = WorkloadSpec::gups(1 << 20).generate(100, 1);
//! let mut core = TraceCore::new(CoreConfig::default(), trace);
//! let issue = core.try_issue(0).expect("core is ready at time zero");
//! core.complete_read(issue.token, 60);
//! assert!(core.retired_instructions() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;

pub use crate::core::{AccessToken, CoreStats, CoreStatus, MemoryIssue, TraceCore};
pub use config::CoreConfig;
