//! Synthetic workload generators.
//!
//! Each generator is parameterised so the resulting trace reproduces the
//! property that matters to row-swap defenses: the distribution of row
//! activation counts within a refresh window — in particular whether the
//! workload contains *hot rows* that cross the swap threshold (the paper
//! reports detailed results only for workloads with at least one row
//! receiving 800+ activations in 64 ms).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::trace::{take_array, take_name, MemOp, Trace, TraceRecord};

/// The spatial access pattern of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Uniform random accesses over the footprint (GUPS-like).
    Uniform,
    /// Sequential streaming with a fixed stride in bytes.
    Streaming {
        /// Stride between consecutive accesses, in bytes.
        stride: u64,
    },
    /// A small set of hot DRAM rows receives a large fraction of accesses
    /// (the behaviour that triggers frequent swaps in gcc, hmmer, ...).
    HotRows {
        /// Number of distinct hot rows.
        hot_rows: u64,
        /// Fraction of accesses that go to a hot row, in [0, 1].
        hot_fraction: f64,
    },
    /// Row-buffer-friendly bursts: several consecutive lines of one row are
    /// touched before moving to another random row.
    RowBurst {
        /// Number of consecutive lines accessed per burst.
        burst: u64,
    },
}

/// A complete description of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// Footprint in bytes over which addresses are generated.
    pub footprint_bytes: u64,
    /// Base physical address of the footprint.
    pub base_addr: u64,
    /// Fraction of memory operations that are reads.
    pub read_fraction: f64,
    /// Mean number of non-memory instructions between memory operations
    /// (lower means more memory-intensive).
    pub mean_gap: u32,
    /// The spatial pattern.
    pub pattern: AccessPattern,
}

impl WorkloadSpec {
    /// A GUPS-like uniformly random workload.
    #[must_use]
    pub fn gups(footprint_bytes: u64) -> Self {
        Self {
            name: "gups".to_string(),
            footprint_bytes,
            base_addr: 0,
            read_fraction: 0.5,
            mean_gap: 2,
            pattern: AccessPattern::Uniform,
        }
    }

    /// Generate `records` trace records deterministically from `seed`.
    #[must_use]
    pub fn generate(&self, records: usize, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77_C0FFEE);
        let mut out = Vec::with_capacity(records);
        let footprint = self.footprint_bytes.max(64);
        let row_bytes: u64 = 8 * 1024;
        let mut stream_pos: u64 = 0;
        let mut burst_left: u64 = 0;
        let mut burst_base: u64 = 0;
        // Pre-pick the hot row bases so they are stable across the trace.
        let hot_bases: Vec<u64> = match self.pattern {
            AccessPattern::HotRows { hot_rows, .. } => (0..hot_rows.max(1))
                .map(|_| {
                    rng.random_range(0..footprint / row_bytes.min(footprint).max(1))
                        .saturating_mul(row_bytes)
                })
                .collect(),
            _ => Vec::new(),
        };
        for _ in 0..records {
            let offset = match self.pattern {
                AccessPattern::Uniform => rng.random_range(0..footprint) & !63,
                AccessPattern::Streaming { stride } => {
                    stream_pos = (stream_pos + stride) % footprint;
                    stream_pos & !63
                }
                AccessPattern::HotRows { hot_fraction, .. } => {
                    if rng.random::<f64>() < hot_fraction {
                        let base = hot_bases[rng.random_range(0..hot_bases.len())];
                        ((base + rng.random_range(0..row_bytes)) % footprint) & !63
                    } else {
                        rng.random_range(0..footprint) & !63
                    }
                }
                AccessPattern::RowBurst { burst } => {
                    if burst_left == 0 {
                        burst_left = burst.max(1);
                        burst_base = rng.random_range(0..footprint) & !(row_bytes - 1);
                    }
                    burst_left -= 1;
                    ((burst_base + (burst.max(1) - burst_left) * 64) % footprint) & !63
                }
            };
            let gap = if self.mean_gap == 0 { 0 } else { rng.random_range(0..=2 * self.mean_gap) };
            let op =
                if rng.random::<f64>() < self.read_fraction { MemOp::Read } else { MemOp::Write };
            out.push(TraceRecord { nonmem_insts: gap, op, addr: self.base_addr + offset });
        }
        Trace::new(self.name.clone(), out)
    }

    /// Serialize the specification (pattern included) to a compact
    /// big-endian binary representation, so experiment grids can persist
    /// the exact generator inputs next to their results. Like
    /// [`Trace::to_bytes`], it starts with the `u32`-length-prefixed name.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.name.len());
        buf.extend_from_slice(&(self.name.len() as u32).to_be_bytes());
        buf.extend_from_slice(self.name.as_bytes());
        buf.extend_from_slice(&self.footprint_bytes.to_be_bytes());
        buf.extend_from_slice(&self.base_addr.to_be_bytes());
        buf.extend_from_slice(&self.read_fraction.to_bits().to_be_bytes());
        buf.extend_from_slice(&self.mean_gap.to_be_bytes());
        match self.pattern {
            AccessPattern::Uniform => buf.push(0),
            AccessPattern::Streaming { stride } => {
                buf.push(1);
                buf.extend_from_slice(&stride.to_be_bytes());
            }
            AccessPattern::HotRows { hot_rows, hot_fraction } => {
                buf.push(2);
                buf.extend_from_slice(&hot_rows.to_be_bytes());
                buf.extend_from_slice(&hot_fraction.to_bits().to_be_bytes());
            }
            AccessPattern::RowBurst { burst } => {
                buf.push(3);
                buf.extend_from_slice(&burst.to_be_bytes());
            }
        }
        buf
    }

    /// Deserialize a specification previously produced by
    /// [`WorkloadSpec::to_bytes`]. Returns `None` if the buffer is
    /// truncated or malformed.
    #[must_use]
    pub fn from_bytes(mut data: &[u8]) -> Option<Self> {
        let name = take_name(&mut data)?;
        let footprint_bytes = u64::from_be_bytes(take_array(&mut data)?);
        let base_addr = u64::from_be_bytes(take_array(&mut data)?);
        let read_fraction = f64::from_bits(u64::from_be_bytes(take_array(&mut data)?));
        let mean_gap = u32::from_be_bytes(take_array(&mut data)?);
        let pattern = match take_array(&mut data)? {
            [0] => AccessPattern::Uniform,
            [1] => AccessPattern::Streaming { stride: u64::from_be_bytes(take_array(&mut data)?) },
            [2] => AccessPattern::HotRows {
                hot_rows: u64::from_be_bytes(take_array(&mut data)?),
                hot_fraction: f64::from_bits(u64::from_be_bytes(take_array(&mut data)?)),
            },
            [3] => AccessPattern::RowBurst { burst: u64::from_be_bytes(take_array(&mut data)?) },
            _ => return None,
        };
        Some(Self { name, footprint_bytes, base_addr, read_fraction, mean_gap, pattern })
    }
}

/// A hammering trace together with its blast radius: the row-aligned byte
/// addresses of the deterministically hammered aggressor rows and of the
/// victim rows physically adjacent to them.
///
/// Returning the row sets from the generator saves consumers (the
/// security-metrics layer, targeted tests) from re-deriving which rows the
/// trace attacks out of the raw record addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammerTrace {
    /// The generated trace.
    pub trace: Trace,
    /// Row size assumed when aligning the row sets, in bytes.
    pub row_bytes: u64,
    /// Row-aligned byte addresses of the hammered aggressor rows.
    pub aggressor_addrs: Vec<u64>,
    /// Row-aligned byte addresses of the rows adjacent to an aggressor.
    pub victim_addrs: Vec<u64>,
}

impl HammerTrace {
    /// Consume the bundle, keeping only the trace.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

/// Generate a single-sided Row Hammer access pattern: `hammer_count`
/// activations of one row interleaved with filler accesses, the building
/// block of the Juggernaut demonstration traces. Returns the trace together
/// with the aggressor/victim row sets ([`HammerTrace`]).
#[must_use]
pub fn hammer_trace(
    name: &str,
    target_addr: u64,
    hammer_count: usize,
    filler_footprint: u64,
    seed: u64,
) -> HammerTrace {
    let row_bytes: u64 = 8 * 1024;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::with_capacity(hammer_count * 2);
    for _ in 0..hammer_count {
        records.push(TraceRecord { nonmem_insts: 0, op: MemOp::Read, addr: target_addr });
        // A conflicting access to force the row to close (classic hammer).
        let filler = rng.random_range(0..filler_footprint.max(64)) & !63;
        records.push(TraceRecord { nonmem_insts: 0, op: MemOp::Read, addr: filler });
    }
    let aggressor = target_addr & !(row_bytes - 1);
    let victim_addrs = [aggressor.checked_sub(row_bytes), aggressor.checked_add(row_bytes)]
        .into_iter()
        .flatten()
        .collect();
    HammerTrace {
        trace: Trace::new(name, records),
        row_bytes,
        aggressor_addrs: vec![aggressor],
        victim_addrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::gups(1 << 20);
        let a = spec.generate(1000, 7);
        let b = spec.generate(1000, 7);
        assert_eq!(a, b);
        let c = spec.generate(1000, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_within_footprint() {
        let spec = WorkloadSpec {
            name: "bounded".to_string(),
            footprint_bytes: 1 << 16,
            base_addr: 1 << 30,
            read_fraction: 0.7,
            mean_gap: 10,
            pattern: AccessPattern::Uniform,
        };
        let t = spec.generate(5000, 1);
        assert!(t.records.iter().all(|r| r.addr >= 1 << 30 && r.addr < (1 << 30) + (1 << 16)));
    }

    #[test]
    fn read_fraction_is_respected() {
        let spec = WorkloadSpec { read_fraction: 0.9, ..WorkloadSpec::gups(1 << 20) };
        let t = spec.generate(20_000, 3);
        assert!((t.read_fraction() - 0.9).abs() < 0.02, "fraction = {}", t.read_fraction());
    }

    #[test]
    fn hot_row_pattern_concentrates_accesses() {
        let spec = WorkloadSpec {
            name: "hot".to_string(),
            footprint_bytes: 1 << 26,
            base_addr: 0,
            read_fraction: 1.0,
            mean_gap: 1,
            pattern: AccessPattern::HotRows { hot_rows: 2, hot_fraction: 0.8 },
        };
        let t = spec.generate(50_000, 11);
        // Count accesses per 8KB row; the hottest row must hold a large share.
        let mut counts = std::collections::HashMap::new();
        for r in &t.records {
            *counts.entry(r.addr / 8192).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max as f64 > 0.2 * t.len() as f64, "hottest row share too low: {max}");
    }

    #[test]
    fn streaming_pattern_is_sequential() {
        let spec = WorkloadSpec {
            name: "stream".to_string(),
            footprint_bytes: 1 << 20,
            base_addr: 0,
            read_fraction: 1.0,
            mean_gap: 4,
            pattern: AccessPattern::Streaming { stride: 64 },
        };
        let t = spec.generate(100, 5);
        for pair in t.records.windows(2) {
            let delta = pair[1].addr.wrapping_sub(pair[0].addr);
            assert!(delta == 64 || pair[1].addr < pair[0].addr, "unexpected stride {delta}");
        }
    }

    #[test]
    fn hammer_trace_hits_target_half_the_time() {
        let h = hammer_trace("hammer", 0x12340, 500, 1 << 20, 1);
        let hits = h.trace.records.iter().filter(|r| r.addr == 0x12340).count();
        assert_eq!(hits, 500);
        assert_eq!(h.trace.len(), 1000);
    }

    #[test]
    fn hammer_trace_reports_its_blast_radius() {
        let h = hammer_trace("hammer", 0x12340, 10, 1 << 20, 1);
        assert_eq!(h.aggressor_addrs, vec![0x12000], "aggressor is row-aligned");
        assert_eq!(h.victim_addrs, vec![0x12000 - 8192, 0x12000 + 8192]);
        // An aggressor in the first row has no lower neighbor.
        let low = hammer_trace("low", 0x40, 10, 1 << 20, 1);
        assert_eq!(low.aggressor_addrs, vec![0]);
        assert_eq!(low.victim_addrs, vec![8192]);
    }

    #[test]
    fn mean_gap_controls_intensity() {
        let dense = WorkloadSpec { mean_gap: 1, ..WorkloadSpec::gups(1 << 20) }.generate(10_000, 2);
        let sparse =
            WorkloadSpec { mean_gap: 50, ..WorkloadSpec::gups(1 << 20) }.generate(10_000, 2);
        assert!(dense.mpki() > sparse.mpki());
    }
}
