//! # srs-dram
//!
//! A DDR4-style DRAM device and memory-controller timing model, built as the
//! evaluation substrate for the *Scalable and Secure Row-Swap* (Scale-SRS)
//! reproduction. The model follows the structure of the USIMM memory-system
//! simulator used by the paper: independent channels, ranks, and banks, a
//! row-buffer per bank, open/closed page policies, FR-FCFS scheduling,
//! periodic refresh, and — crucially for Row Hammer studies — precise
//! *activation accounting* for every `ACT` command issued on every row,
//! including those issued on behalf of mitigation (row-swap) operations.
//!
//! The model is transaction-level rather than cycle-accurate: every demand
//! access and maintenance operation is charged bank-occupancy and data-bus
//! time in nanoseconds derived from the DDR4 timing parameters of Table III
//! of the paper. This captures the quantities the paper reports (extra
//! activations, bank blocking from swaps, queueing delay, normalized IPC)
//! without simulating individual DRAM clock ticks.
//!
//! ## Example
//!
//! ```
//! use srs_dram::{AccessKind, DramConfig, EventCollector, MemRequest, MemoryController, PhysAddr};
//!
//! let config = DramConfig::default();
//! let mut mc = MemoryController::new(config);
//! let req = MemRequest::new(PhysAddr::new(0x4000), AccessKind::Read, 0, 0);
//! let id = mc.enqueue(req).expect("queue accepts request");
//! // Advance time until the request completes; activations and completions
//! // stream into the sink as they happen.
//! let mut events = EventCollector::new();
//! let mut now = 0;
//! while events.completions.is_empty() {
//!     now += 10;
//!     mc.tick_into(now, &mut events);
//! }
//! assert_eq!(events.completions[0].request_id, id);
//! assert_eq!(events.activations.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path crates must not panic on capacity or decode surprises: every
// remaining unwrap/expect needs a stated invariant (see the per-site
// allows) or a test-only context.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod address;
pub mod bank;
pub mod command;
pub mod config;
pub mod controller;
pub mod damage;
pub mod error;
pub mod sink;
pub mod stats;

pub use address::{AddressMapper, BankId, DramAddress, PhysAddr, RowId};
pub use bank::{Bank, BankState};
pub use command::{
    AccessKind, ActivationEvent, CompletedAccess, MaintenanceKind, MaintenanceOp, MemRequest,
    RequestId,
};
pub use config::{DramConfig, DramTiming, PagePolicy};
pub use controller::MemoryController;
pub use damage::{DamageStore, EccKind, EccModel, EccOutcome};
pub use error::DramError;
pub use sink::{AccessSink, ActivationSink, EventCollector};
pub use stats::ControllerStats;

/// Nanoseconds, the time base used throughout the memory model.
pub type Nanos = u64;
