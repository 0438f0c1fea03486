//! # srs-cache
//!
//! The Scale-SRS **pin-buffer** (Section V-C of the paper): the bounded set
//! of DRAM rows pinned inside the LLC, so that outlier aggressor rows stop
//! generating DRAM activations for the rest of a refresh window. The
//! simulator does not model the cache itself; a pinned row is served at LLC
//! latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pin;

pub use pin::{PinBuffer, PinBufferConfig};
