//! A generic set-associative write-back cache with LRU replacement and
//! support for pinned lines.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache-line size in bytes.
    pub line_size: u64,
}

impl CacheConfig {
    /// A 32 KB, 8-way L1 data cache.
    #[must_use]
    pub fn l1_32kb() -> Self {
        Self { size_bytes: 32 * 1024, ways: 8, line_size: 64 }
    }

    /// A 256 KB, 8-way private L2 cache.
    #[must_use]
    pub fn l2_256kb() -> Self {
        Self { size_bytes: 256 * 1024, ways: 8, line_size: 64 }
    }

    /// The paper's shared LLC: 8 MB, 16-way, 64-byte lines (Table III).
    #[must_use]
    pub fn llc_8mb() -> Self {
        Self { size_bytes: 8 * 1024 * 1024, ways: 16, line_size: 64 }
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_size / self.ways as u64).max(1) as usize
    }
}

/// The result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Whether the access hit a pinned line.
    pub pinned_hit: bool,
    /// A dirty victim line (by line-aligned address) that must be written
    /// back to the next level, if the fill evicted one.
    pub writeback: Option<u64>,
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty evictions (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in [0, 1]; 0 when no accesses were made.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    pinned: bool,
    last_use: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Pinned lines are never chosen as eviction victims; they are installed and
/// released through [`SetAssociativeCache::pin_line`] and
/// [`SetAssociativeCache::unpin_all`], which is how the Scale-SRS pin-buffer
/// reserves LLC space for outlier DRAM rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssociativeCache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
}

impl SetAssociativeCache {
    /// Create an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = vec![vec![Line::default(); config.ways]; config.sets()];
        Self { config, sets, stats: CacheStats::default(), tick: 0 }
    }

    /// The geometry of this cache.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of currently pinned lines.
    #[must_use]
    pub fn pinned_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid && l.pinned).count()
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_size;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets.len() as u64 + set as u64) * self.config.line_size
    }

    /// Access the line containing `addr`, allocating it on a miss.
    ///
    /// `is_write` marks the line dirty so that its eventual eviction produces
    /// a writeback.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = self.tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return AccessOutcome { hit: true, pinned_hit: line.pinned, writeback: None };
        }
        self.stats.misses += 1;
        let victim_idx = Self::choose_victim(set);
        let Some(victim_idx) = victim_idx else {
            // Every way is pinned: the access bypasses the cache entirely.
            return AccessOutcome { hit: false, pinned_hit: false, writeback: None };
        };
        let victim = set[victim_idx];
        let writeback = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some(self.line_addr(set_idx, victim.tag))
        } else {
            None
        };
        self.sets[set_idx][victim_idx] =
            Line { tag, valid: true, dirty: is_write, pinned: false, last_use: self.tick };
        AccessOutcome { hit: false, pinned_hit: false, writeback }
    }

    /// Probe for residency without updating replacement state or statistics.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Install the line containing `addr` as *pinned*: it will hit on every
    /// subsequent access and will never be selected as an eviction victim.
    ///
    /// Returns the writeback of a dirty victim, if the installation evicted
    /// one, and `false` as the first element if the set had no unpinned way
    /// left to install into.
    pub fn pin_line(&mut self, addr: u64) -> (bool, Option<u64>) {
        self.tick += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.pinned = true;
            line.last_use = self.tick;
            return (true, None);
        }
        let Some(victim_idx) = Self::choose_victim(&self.sets[set_idx]) else {
            return (false, None);
        };
        let victim = self.sets[set_idx][victim_idx];
        let writeback = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some(self.line_addr(set_idx, victim.tag))
        } else {
            None
        };
        self.sets[set_idx][victim_idx] =
            Line { tag, valid: true, dirty: false, pinned: true, last_use: self.tick };
        (true, writeback)
    }

    /// Release every pinned line (end of a refresh interval in Scale-SRS).
    pub fn unpin_all(&mut self) {
        for line in self.sets.iter_mut().flatten() {
            line.pinned = false;
        }
    }

    /// Invalidate the entire cache, dropping dirty state.
    pub fn flush(&mut self) {
        for line in self.sets.iter_mut().flatten() {
            *line = Line::default();
        }
    }

    fn choose_victim(set: &[Line]) -> Option<usize> {
        if let Some(idx) = set.iter().position(|l| !l.valid) {
            return Some(idx);
        }
        set.iter()
            .enumerate()
            .filter(|(_, l)| !l.pinned)
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssociativeCache {
        // 4 sets x 2 ways x 64B lines = 512B.
        SetAssociativeCache::new(CacheConfig { size_bytes: 512, ways: 2, line_size: 64 })
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(CacheConfig::llc_8mb().sets(), 8192);
        assert_eq!(CacheConfig::l1_32kb().sets(), 64);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0, false).hit);
        assert!(c.access(0x0, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 256B).
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch 0x000 so 0x100 is LRU
        c.access(0x200, false); // evicts 0x100
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x100, false);
        let out = c.access(0x200, false); // evicts dirty 0x000
        assert_eq!(out.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn pinned_lines_survive_eviction_pressure() {
        let mut c = tiny();
        let (ok, _) = c.pin_line(0x000);
        assert!(ok);
        for i in 1..10 {
            c.access(0x100 * i, false);
        }
        assert!(c.contains(0x000));
        let out = c.access(0x000, false);
        assert!(out.hit && out.pinned_hit);
        assert_eq!(c.pinned_lines(), 1);
        c.unpin_all();
        assert_eq!(c.pinned_lines(), 0);
    }

    #[test]
    fn fully_pinned_set_bypasses_fills() {
        let mut c = tiny();
        assert!(c.pin_line(0x000).0);
        assert!(c.pin_line(0x100).0);
        // Set 0 is now fully pinned; a third distinct line cannot be pinned
        // or allocated there.
        assert!(!c.pin_line(0x200).0);
        let out = c.access(0x300, false);
        assert!(!out.hit);
        assert!(!c.contains(0x300));
        assert!(c.contains(0x000) && c.contains(0x100));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0x40, true);
        c.flush();
        assert!(!c.contains(0x40));
    }

    #[test]
    fn contains_does_not_change_stats() {
        let mut c = tiny();
        c.access(0x40, false);
        let before = *c.stats();
        let _ = c.contains(0x40);
        let _ = c.contains(0x80);
        assert_eq!(before, *c.stats());
    }

    #[test]
    fn stats_miss_rate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        assert!((c.stats().miss_rate() - 2.0 / 3.0).abs() < 1e-9);
    }
}
