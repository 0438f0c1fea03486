//! The Hydra hybrid aggressor tracker (Qureshi et al., ISCA 2022).
//!
//! Hydra keeps a small **Group Count Table** (GCT) in SRAM that counts
//! activations at the granularity of row groups. Once a group's counter
//! crosses the group threshold, Hydra switches to exact per-row counting for
//! that group: per-row counters live in a reserved region of DRAM (the Row
//! Count Table, RCT) and are cached on chip in a small **Row Count Cache**
//! (RCC). RCC misses cost real DRAM traffic — the reason RRS+Hydra slows
//! down sharply at low Row Hammer thresholds in Figure 16 of the Scale-SRS
//! paper.

use std::collections::VecDeque;

use fxhash::FxHashMap;

use crate::tracker::{AggressorTracker, TrackerDecision};

/// Configuration of the Hydra tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HydraConfig {
    /// Swap threshold `TS`.
    pub swap_threshold: u64,
    /// Rows per group in the Group Count Table.
    pub rows_per_group: u64,
    /// Group counter value at which per-row tracking begins (Hydra uses
    /// `TS / 2`).
    pub group_threshold: u64,
    /// Number of entries in the Row Count Cache (shared across banks).
    pub rcc_entries: usize,
    /// Number of banks tracked.
    pub banks: usize,
    /// Number of rows per bank (sizes the GCT and the in-memory RCT).
    pub rows_per_bank: u64,
}

impl HydraConfig {
    /// The configuration used for the paper's Hydra experiments, scaled to a
    /// given swap threshold.
    #[must_use]
    pub fn for_threshold(swap_threshold: u64, banks: usize, rows_per_bank: u64) -> Self {
        Self {
            swap_threshold,
            rows_per_group: 128,
            group_threshold: (swap_threshold / 2).max(1),
            rcc_entries: 4 * 1024,
            banks: banks.max(1),
            rows_per_bank,
        }
    }

    /// Number of groups per bank.
    #[must_use]
    pub fn groups_per_bank(&self) -> u64 {
        self.rows_per_bank.div_ceil(self.rows_per_group.max(1))
    }
}

/// A (bank, row) key for per-row structures.
type RowKey = (usize, u64);

/// The Hydra tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct HydraTracker {
    config: HydraConfig,
    /// Group counters, indexed `[bank][group]`.
    gct: Vec<Vec<u64>>,
    /// The Row Count Cache: per-row counters resident on chip.
    rcc: FxHashMap<RowKey, u64>,
    /// FIFO order of RCC insertion, for eviction.
    rcc_order: VecDeque<RowKey>,
    /// The memory-resident Row Count Table.
    rct: FxHashMap<RowKey, u64>,
    /// Total DRAM accesses generated by RCC misses and writebacks.
    memory_accesses: u64,
    /// Monotonic count of RCC capacity evictions — Hydra's saturation
    /// signal. Unlike the counters above it survives epoch resets.
    rcc_evictions: u64,
    /// `log2(rows_per_group)` when the group size is a power of two (every
    /// shipped configuration), so a row's group is a shift.
    group_shift: Option<u32>,
}

impl HydraTracker {
    /// Create a tracker with all counters at zero.
    #[must_use]
    pub fn new(config: HydraConfig) -> Self {
        let gct = vec![vec![0; config.groups_per_bank() as usize]; config.banks];
        let rows_per_group = config.rows_per_group.max(1);
        Self {
            config,
            gct,
            rcc: FxHashMap::default(),
            rcc_order: VecDeque::new(),
            rct: FxHashMap::default(),
            memory_accesses: 0,
            rcc_evictions: 0,
            group_shift: rows_per_group.is_power_of_two().then(|| rows_per_group.trailing_zeros()),
        }
    }

    /// The tracker configuration.
    #[must_use]
    pub fn config(&self) -> &HydraConfig {
        &self.config
    }

    /// Total DRAM accesses generated by the tracker so far.
    #[must_use]
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    fn group_of(&self, row: u64) -> usize {
        match self.group_shift {
            Some(shift) => (row >> shift) as usize,
            None => (row / self.config.rows_per_group.max(1)) as usize,
        }
    }

    /// `bank` reduced into the tracked banks; in-range indices (the only
    /// case on the hot path) skip the division.
    fn bank_index(&self, bank: usize) -> usize {
        if bank < self.config.banks {
            bank
        } else {
            bank % self.config.banks
        }
    }

    /// Fetch a row counter into the RCC, charging memory traffic on a miss.
    /// Returns the number of extra DRAM accesses performed.
    fn rcc_fill(&mut self, key: RowKey) -> u64 {
        if self.rcc.contains_key(&key) {
            return 0;
        }
        let mut accesses = 1; // read the RCT entry from DRAM
        if self.rcc.len() >= self.config.rcc_entries {
            // Evict the oldest entry, writing it back to the RCT.
            if let Some(victim) = self.rcc_order.pop_front() {
                if let Some(count) = self.rcc.remove(&victim) {
                    self.rct.insert(victim, count);
                    accesses += 1;
                }
            }
            self.rcc_evictions += 1;
        }
        let seed = self.rct.get(&key).copied().unwrap_or_else(|| {
            // A group that just crossed the threshold initialises its rows'
            // counters to the group threshold (Hydra's conservative start).
            self.gct[key.0][self.group_of(key.1)].min(self.config.group_threshold)
        });
        self.rcc.insert(key, seed);
        self.rcc_order.push_back(key);
        accesses
    }
}

impl AggressorTracker for HydraTracker {
    fn record_activation(&mut self, bank: usize, row: u64) -> TrackerDecision {
        let bank = self.bank_index(bank);
        let group = self.group_of(row);
        let gcount = &mut self.gct[bank][group];
        if *gcount < self.config.group_threshold {
            *gcount += 1;
            return TrackerDecision::none();
        }
        // Per-row tracking for this group.
        let key = (bank, row);
        let extra = self.rcc_fill(key);
        self.memory_accesses += extra;
        // Invariant: `rcc_fill` unconditionally inserts `key` (it returns
        // early only when the key is already present), so the lookup cannot
        // miss.
        #[allow(clippy::expect_used)]
        let count = self.rcc.get_mut(&key).expect("filled above");
        *count += 1;
        if *count >= self.config.swap_threshold {
            *count = 0;
            self.rct.insert(key, 0);
            TrackerDecision { mitigate: true, extra_memory_accesses: extra }
        } else {
            TrackerDecision { mitigate: false, extra_memory_accesses: extra }
        }
    }

    fn estimated_count(&self, bank: usize, row: u64) -> u64 {
        let bank = self.bank_index(bank);
        let key = (bank, row);
        if let Some(c) = self.rcc.get(&key) {
            return *c;
        }
        if let Some(c) = self.rct.get(&key) {
            return *c;
        }
        self.gct[bank][self.group_of(row)]
    }

    fn reset_epoch(&mut self) {
        for bank in &mut self.gct {
            bank.iter_mut().for_each(|c| *c = 0);
        }
        self.rcc.clear();
        self.rcc_order.clear();
        self.rct.clear();
    }

    fn swap_threshold(&self) -> u64 {
        self.config.swap_threshold
    }

    fn storage_bits(&self) -> u64 {
        // GCT: one 13-bit counter per group per bank; RCC: tag (17b row +
        // 5b bank) + 13-bit counter per entry.
        let gct_bits = self.config.banks as u64 * self.config.groups_per_bank() * 13;
        let rcc_bits = self.config.rcc_entries as u64 * (17 + 5 + 13);
        gct_bits + rcc_bits
    }

    fn clone_box(&self) -> Box<dyn AggressorTracker + Send> {
        Box::new(self.clone())
    }

    fn occupancy(&self) -> u64 {
        // Rows with live per-row state: the SRAM row-count cache plus the
        // memory-resident row-count table.
        (self.rcc.len() + self.rct.len()) as u64
    }

    fn saturation_events(&self) -> u64 {
        // The RCC degrades gracefully under pressure — each capacity
        // eviction spills a counter back to DRAM rather than dropping it.
        self.rcc_evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(ts: u64) -> HydraTracker {
        HydraTracker::new(HydraConfig::for_threshold(ts, 2, 128 * 1024))
    }

    #[test]
    fn config_groups() {
        let c = HydraConfig::for_threshold(800, 16, 128 * 1024);
        assert_eq!(c.groups_per_bank(), 1024);
        assert_eq!(c.group_threshold, 400);
    }

    #[test]
    fn single_hot_row_fires_at_threshold() {
        let mut t = tracker(100);
        let mut fired_at = None;
        for i in 1..=200u64 {
            if t.record_activation(0, 5).mitigate {
                fired_at = Some(i);
                break;
            }
        }
        // The group counter absorbs the first TS/2 activations; the row then
        // counts from that conservative base, so the trigger arrives no later
        // than TS activations and no earlier than TS/2.
        let fired_at = fired_at.expect("must fire");
        assert!((50..=100).contains(&fired_at), "fired at {fired_at}");
    }

    #[test]
    fn cold_groups_generate_no_memory_traffic() {
        let mut t = tracker(1000);
        for row in 0..1000u64 {
            let d = t.record_activation(0, row * 128); // every access a new group
            assert_eq!(d.extra_memory_accesses, 0);
        }
        assert_eq!(t.memory_accesses(), 0);
    }

    #[test]
    fn hot_groups_generate_memory_traffic_on_rcc_pressure() {
        // Small RCC forces misses.
        let mut cfg = HydraConfig::for_threshold(10_000, 1, 128 * 1024);
        cfg.rcc_entries = 4;
        cfg.group_threshold = 1;
        let mut t = HydraTracker::new(cfg);
        // Touch many rows in hot groups so the RCC thrashes.
        for i in 0..1000u64 {
            t.record_activation(0, i % 64);
        }
        assert!(t.memory_accesses() > 0, "RCC misses must cost DRAM accesses");
    }

    #[test]
    fn reset_epoch_clears_everything() {
        let mut t = tracker(100);
        for _ in 0..80 {
            t.record_activation(0, 5);
        }
        t.reset_epoch();
        assert_eq!(t.estimated_count(0, 5), 0);
    }

    #[test]
    fn estimated_count_tracks_activations() {
        let mut t = tracker(10_000);
        for _ in 0..600 {
            t.record_activation(1, 77);
        }
        assert!(t.estimated_count(1, 77) >= 500);
    }

    #[test]
    fn storage_is_much_smaller_than_per_row_counters() {
        let t = tracker(800);
        let per_row = 2u64 * 128 * 1024 * 13; // naive 13-bit counter per row
        assert!(t.storage_bits() < per_row / 2);
    }
}
