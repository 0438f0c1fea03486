//! A three-level cache hierarchy: per-core L1 and L2 filters plus a shared
//! LLC with the Scale-SRS pin-buffer in front of it.

use crate::cache::{CacheConfig, CacheStats, SetAssociativeCache};
use crate::pin::{PinBuffer, PinBufferConfig};

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (each gets a private L1 and L2).
    pub cores: usize,
    /// Per-core L1 geometry.
    pub l1: CacheConfig,
    /// Per-core L2 geometry.
    pub l2: CacheConfig,
    /// Shared LLC geometry.
    pub llc: CacheConfig,
    /// Pin-buffer in front of the LLC.
    pub pin_buffer: PinBufferConfig,
}

impl HierarchyConfig {
    /// The paper's configuration: 8 cores, 32 KB L1, 256 KB L2, 8 MB shared
    /// 16-way LLC (Table III).
    #[must_use]
    pub fn paper_default(cores: usize) -> Self {
        Self {
            cores: cores.max(1),
            l1: CacheConfig::l1_32kb(),
            l2: CacheConfig::l2_256kb(),
            llc: CacheConfig::llc_8mb(),
            pin_buffer: PinBufferConfig::default(),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper_default(8)
    }
}

/// A memory-side access the hierarchy needs the DRAM system to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySideAccess {
    /// Line-aligned physical address.
    pub addr: u64,
    /// `true` for a writeback, `false` for a fill (read).
    pub is_writeback: bool,
}

/// The full cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1: Vec<SetAssociativeCache>,
    l2: Vec<SetAssociativeCache>,
    llc: SetAssociativeCache,
    pin_buffer: PinBuffer,
    pinned_hits: u64,
}

impl CacheHierarchy {
    /// Create an empty hierarchy.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            l1: (0..config.cores).map(|_| SetAssociativeCache::new(config.l1)).collect(),
            l2: (0..config.cores).map(|_| SetAssociativeCache::new(config.l2)).collect(),
            llc: SetAssociativeCache::new(config.llc),
            pin_buffer: PinBuffer::new(config.pin_buffer),
            pinned_hits: 0,
            config,
        }
    }

    /// The hierarchy configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Statistics of the shared LLC.
    #[must_use]
    pub fn llc_stats(&self) -> &CacheStats {
        self.llc.stats()
    }

    /// Statistics of one core's L1.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1_stats(&self, core: usize) -> &CacheStats {
        self.l1[core].stats()
    }

    /// Number of LLC hits served from pinned lines.
    #[must_use]
    pub fn pinned_hits(&self) -> u64 {
        self.pinned_hits
    }

    /// The pin-buffer guarding the LLC.
    #[must_use]
    pub fn pin_buffer(&self) -> &PinBuffer {
        &self.pin_buffer
    }

    /// Perform a demand access from `core`. Returns the memory-side accesses
    /// (fill and/or writebacks) that must be sent to DRAM; an empty vector
    /// means the access was satisfied entirely within the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the configured core count.
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool) -> Vec<MemorySideAccess> {
        assert!(core < self.config.cores, "core {core} out of range");
        let line = addr / self.config.l1.line_size * self.config.l1.line_size;
        let mut memory_side = Vec::new();

        let l1_out = self.l1[core].access(line, is_write);
        if l1_out.hit {
            return memory_side;
        }
        if let Some(wb) = l1_out.writeback {
            // L1 writeback is absorbed by the L2 (write-allocate).
            let out = self.l2[core].access(wb, true);
            if let Some(wb2) = out.writeback {
                self.llc_access(wb2, true, &mut memory_side);
            }
        }
        let l2_out = self.l2[core].access(line, false);
        if l2_out.hit {
            return memory_side;
        }
        if let Some(wb) = l2_out.writeback {
            self.llc_access(wb, true, &mut memory_side);
        }
        self.llc_access(line, false, &mut memory_side);
        memory_side
    }

    fn llc_access(&mut self, line: u64, is_write: bool, memory_side: &mut Vec<MemorySideAccess>) {
        let out = self.llc.access(line, is_write);
        if out.hit {
            if out.pinned_hit || self.pin_buffer.is_pinned(line) {
                self.pinned_hits += 1;
            }
            return;
        }
        if let Some(wb) = out.writeback {
            memory_side.push(MemorySideAccess { addr: wb, is_writeback: true });
        }
        if !is_write {
            memory_side.push(MemorySideAccess { addr: line, is_writeback: false });
        } else {
            // A writeback that misses the LLC still goes to memory.
            memory_side.push(MemorySideAccess { addr: line, is_writeback: true });
        }
    }

    /// Pin the DRAM row containing `addr` in the LLC (Scale-SRS outlier
    /// mitigation). Returns the number of lines installed, or `None` if the
    /// pin-buffer was full or the row was already pinned. Fills for the
    /// pinned lines are charged to DRAM by the caller.
    pub fn pin_row(&mut self, addr: u64) -> Option<usize> {
        let lines = self.pin_buffer.pin(addr)?;
        let mut installed = 0;
        for line in lines {
            if self.llc.pin_line(line).0 {
                installed += 1;
            }
        }
        Some(installed)
    }

    /// Release all pinned rows (end of the refresh interval).
    pub fn release_pins(&mut self) {
        self.pin_buffer.clear();
        self.llc.unpin_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheConfig { size_bytes: 1024, ways: 2, line_size: 64 },
            l2: CacheConfig { size_bytes: 4096, ways: 4, line_size: 64 },
            llc: CacheConfig { size_bytes: 16 * 1024, ways: 4, line_size: 64 },
            pin_buffer: PinBufferConfig {
                entries: 4,
                row_size_bytes: 1024,
                ..PinBufferConfig::default()
            },
        })
    }

    #[test]
    fn cold_miss_goes_to_memory_then_filters() {
        let mut h = tiny_hierarchy();
        let mem = h.access(0, 0x1000, false);
        assert_eq!(mem.len(), 1);
        assert!(!mem[0].is_writeback);
        // Second access hits in L1: no memory traffic.
        assert!(h.access(0, 0x1000, false).is_empty());
    }

    #[test]
    fn different_cores_do_not_share_l1() {
        let mut h = tiny_hierarchy();
        assert_eq!(h.access(0, 0x2000, false).len(), 1);
        // Core 1 misses its private L1/L2 but hits the shared LLC.
        assert!(h.access(1, 0x2000, false).is_empty());
        assert_eq!(h.llc_stats().hits, 1);
    }

    #[test]
    fn pinned_row_hits_and_counts() {
        let mut h = tiny_hierarchy();
        let installed = h.pin_row(0x8000).expect("pin succeeds");
        assert!(installed > 0);
        // Accesses anywhere in the pinned row hit the LLC.
        assert!(h.access(0, 0x8000, false).is_empty());
        assert!(h.access(1, 0x8040, false).is_empty());
        assert!(h.pinned_hits() >= 2);
        h.release_pins();
        assert!(h.pin_buffer().is_empty());
    }

    #[test]
    fn writes_eventually_produce_writebacks() {
        let mut h = tiny_hierarchy();
        // Write a large footprint so dirty lines spill out of the LLC.
        let mut writebacks = 0;
        for i in 0..4096u64 {
            for m in h.access(0, i * 64, true) {
                if m.is_writeback {
                    writebacks += 1;
                }
            }
        }
        assert!(writebacks > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let mut h = tiny_hierarchy();
        let _ = h.access(5, 0, false);
    }
}
