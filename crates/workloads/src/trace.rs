//! The memory-access trace format consumed by the trace-driven core model.
//!
//! The paper's artifact drives USIMM with Pin-generated traces that have
//! already been filtered through an L1 and L2 cache. Those traces are not
//! redistributable, so this crate generates synthetic traces with the same
//! shape: a stream of records, each saying how many non-memory instructions
//! precede a memory operation at a given physical address.

/// Whether a trace record reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One record of a trace: `nonmem_insts` non-memory instructions followed by
/// one memory operation at `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Non-memory instructions executed before this memory operation.
    pub nonmem_insts: u32,
    /// The memory operation kind.
    pub op: MemOp,
    /// Physical byte address accessed.
    pub addr: u64,
}

impl TraceRecord {
    /// Total instructions this record represents (the memory operation plus
    /// the non-memory instructions preceding it).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        u64::from(self.nonmem_insts) + 1
    }
}

/// A named memory-access trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Workload name (e.g. `"gcc"`, `"gups"`, `"mix3"`).
    pub name: String,
    /// The trace records, in program order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Create a trace from records.
    #[must_use]
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        Self { name: name.into(), records }
    }

    /// Number of records (memory operations).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total instructions represented by the trace.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.records.iter().map(TraceRecord::instructions).sum()
    }

    /// Fraction of memory operations that are reads, in [0, 1].
    #[must_use]
    pub fn read_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let reads = self.records.iter().filter(|r| r.op == MemOp::Read).count();
        reads as f64 / self.records.len() as f64
    }

    /// Memory operations per kilo-instruction (a standard intensity metric).
    #[must_use]
    pub fn mpki(&self) -> f64 {
        let insts = self.total_instructions();
        if insts == 0 {
            return 0.0;
        }
        self.records.len() as f64 * 1000.0 / insts as f64
    }

    /// Serialize the trace to a compact big-endian binary representation.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.name.len() + self.records.len() * RECORD_BYTES);
        buf.extend_from_slice(&(self.name.len() as u32).to_be_bytes());
        buf.extend_from_slice(self.name.as_bytes());
        buf.extend_from_slice(&(self.records.len() as u64).to_be_bytes());
        for r in &self.records {
            buf.extend_from_slice(&r.nonmem_insts.to_be_bytes());
            buf.push(match r.op {
                MemOp::Read => 0,
                MemOp::Write => 1,
            });
            buf.extend_from_slice(&r.addr.to_be_bytes());
        }
        buf
    }

    /// Deserialize a trace previously produced by [`Trace::to_bytes`].
    ///
    /// Returns `None` if the buffer is truncated or malformed.
    #[must_use]
    pub fn from_bytes(mut data: &[u8]) -> Option<Self> {
        let name = take_name(&mut data)?;
        // Bound the decoded count by the bytes actually present before
        // allocating for it, so a corrupt count cannot abort the process.
        let count = u64::from_be_bytes(take_array(&mut data)?);
        if count > (data.len() / RECORD_BYTES) as u64 {
            return None;
        }
        let mut records = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let nonmem_insts = u32::from_be_bytes(take_array(&mut data)?);
            let op = match take_array(&mut data)? {
                [0] => MemOp::Read,
                [1] => MemOp::Write,
                _ => return None,
            };
            let addr = u64::from_be_bytes(take_array(&mut data)?);
            records.push(TraceRecord { nonmem_insts, op, addr });
        }
        Some(Self { name, records })
    }
}

/// Encoded size of one record: a `u32` gap, a `u8` op and a `u64` address.
const RECORD_BYTES: usize = 13;

/// Split the next `N` bytes off the front of `data`, or `None` if fewer
/// are left. The binary decoders read every field through this, so a short
/// buffer decodes to `None` instead of panicking.
pub(crate) fn take_array<const N: usize>(data: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = data.split_first_chunk()?;
    *data = tail;
    Some(*head)
}

/// Split the `u32`-length-prefixed UTF-8 name both binary codecs start
/// with off the front of `data`.
pub(crate) fn take_name(data: &mut &[u8]) -> Option<String> {
    let len = u32::from_be_bytes(take_array(data)?) as usize;
    let (name, tail) = data.split_at_checked(len)?;
    *data = tail;
    String::from_utf8(name.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample",
            vec![
                TraceRecord { nonmem_insts: 10, op: MemOp::Read, addr: 0x1000 },
                TraceRecord { nonmem_insts: 0, op: MemOp::Write, addr: 0x2000 },
                TraceRecord { nonmem_insts: 5, op: MemOp::Read, addr: 0x1040 },
            ],
        )
    }

    #[test]
    fn instruction_accounting() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_instructions(), 18);
        assert!((t.read_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert!((t.mpki() - 3.0 * 1000.0 / 18.0).abs() < 1e-9);
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("well-formed");
        assert_eq!(back, t);
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let t = sample();
        let bytes = t.to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 4]).is_none());
        assert!(Trace::from_bytes(&[]).is_none());
        // An empty name and a count of 2^40 records with none present: the
        // count must be bounded by the buffer before it sizes an allocation.
        let mut huge_count = vec![0u8; 4];
        huge_count.extend_from_slice(&(1u64 << 40).to_be_bytes());
        assert!(Trace::from_bytes(&huge_count).is_none());
    }

    #[test]
    fn empty_trace_metrics() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.mpki(), 0.0);
        assert_eq!(t.read_fraction(), 0.0);
    }
}
