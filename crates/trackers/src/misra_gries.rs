//! The Misra-Gries frequent-item tracker (as used by Graphene and RRS).
//!
//! Each bank owns a small table of `(row, counter)` pairs plus a spillover
//! counter. The table is sized so that any row receiving more than `TS`
//! activations within a tracking epoch is guaranteed to be present — the
//! classic Misra-Gries guarantee requires `entries ≥ ACT_max / TS`.
//!
//! The table is stored as flat slot arrays (rows and counters side by side)
//! with an `FxHashMap<u32, u32>` index from 32-bit row address to slot. The
//! eviction scan sweeps the dense counter array, so the slot order — never
//! the map's iteration order — picks victims; an epoch reset empties the
//! slots and the index, and the index grows only with the rows a bank
//! actually sees.

use fxhash::FxHashMap;

use crate::scan;
use crate::tracker::{AggressorTracker, TrackerDecision};

/// Configuration of the Misra-Gries tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisraGriesConfig {
    /// Swap threshold `TS`: a mitigation fires when a row's counter reaches it.
    pub swap_threshold: u64,
    /// Number of `(row, counter)` entries per bank.
    pub entries_per_bank: usize,
    /// Number of banks tracked.
    pub banks: usize,
    /// Bits per row-address tag (17 bits for 128K rows).
    pub row_tag_bits: u32,
    /// Bits per counter.
    pub counter_bits: u32,
}

impl MisraGriesConfig {
    /// Size the tracker for a given swap threshold and per-bank activation
    /// budget (`ACT_max`), following the Misra-Gries guarantee with the
    /// 2x over-provisioning used by Graphene/RRS.
    #[must_use]
    pub fn for_threshold(swap_threshold: u64, act_max_per_window: u64, banks: usize) -> Self {
        let needed = act_max_per_window.div_ceil(swap_threshold.max(1)) as usize;
        Self {
            swap_threshold,
            entries_per_bank: (2 * needed).max(4),
            banks: banks.max(1),
            row_tag_bits: 17,
            counter_bits: 13,
        }
    }
}

/// `row` as a key of the row → slot index. `DramConfig::validate` bounds a
/// bank by `u32::MAX` rows, so every row of a valid bank converts exactly
/// and `u32::MAX` itself names no row: rows outside every valid bank
/// saturate to it and share one counter, which can only overestimate.
#[inline]
fn row_key(row: u64) -> u32 {
    u32::try_from(row).unwrap_or(u32::MAX)
}

/// One bank's tracking table: dense slot storage plus a row → slot index.
#[derive(Debug, Clone, Default, PartialEq)]
struct BankTable {
    /// Row key of each live slot.
    rows: Vec<u32>,
    /// Estimated counter of each live slot, parallel to `rows`.
    counts: Vec<u64>,
    /// Row key → slot of every live slot.
    index: FxHashMap<u32, u32>,
    spillover: u64,
    capacity: usize,
    /// A lower bound on the smallest counter in the table. Counters only
    /// grow, so the bound can run stale-low (costing a scan that finds
    /// nothing) but never stale-high; while it exceeds the spillover
    /// counter, the eviction scan provably cannot find a victim and is
    /// skipped — the common case for low-locality (GUPS-like) streams that
    /// miss in a full table on every activation.
    min_bound: u64,
    /// Where the next eviction scan starts. A replacement's counter starts
    /// one above the spillover level, so within one spillover level the
    /// remaining victims all sit at or past the previous one — the scan
    /// resumes there instead of re-walking the (already replaced) prefix,
    /// making sustained eviction churn cost a handful of lanes per miss
    /// instead of half the table. Mitigation resets can seat a victim
    /// behind the cursor, so a failed resumed scan retries the skipped
    /// prefix before concluding the table has no victim.
    scan_from: usize,
}

impl BankTable {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            rows: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            index: FxHashMap::default(),
            spillover: 0,
            capacity,
            min_bound: 0,
            scan_from: 0,
        }
    }

    /// The first slot at or below `bound`, preferring slots at or past the
    /// round-robin cursor and wrapping to the skipped prefix only when the
    /// resumed scan comes up empty.
    #[inline]
    fn find_victim(&self, bound: u64) -> Option<usize> {
        let start = if self.scan_from < self.counts.len() { self.scan_from } else { 0 };
        scan::first_at_or_below(&self.counts[start..], bound)
            .map(|v| start + v)
            .or_else(|| scan::first_at_or_below(&self.counts[..start], bound))
    }

    /// The slot currently holding the row keyed `key`, if any.
    #[inline]
    fn slot_of(&self, key: u32) -> Option<usize> {
        self.index.get(&key).map(|&slot| slot as usize)
    }

    /// Seat the row keyed `key` in `slot` at counter `count`: a live slot
    /// evicts its row from the index, and the slot one past the end
    /// appends.
    fn seat(&mut self, slot: usize, key: u32, count: u64) {
        if slot < self.rows.len() {
            self.index.remove(&self.rows[slot]);
            self.rows[slot] = key;
            self.counts[slot] = count;
        } else {
            self.rows.push(key);
            self.counts.push(count);
        }
        self.index.insert(key, slot as u32);
    }

    /// Returns the row's new estimated count, counting an activation the
    /// full table could not attribute to a dedicated slot in
    /// `saturations`.
    fn observe(&mut self, row: u64, saturations: &mut u64) -> u64 {
        let key = row_key(row);
        if let Some(slot) = self.slot_of(key) {
            self.counts[slot] += 1;
            return self.counts[slot];
        }
        if self.rows.len() < self.capacity {
            let start = self.spillover + 1;
            self.seat(self.rows.len(), key, start);
            self.min_bound = self.min_bound.min(start);
            return start;
        }
        // Replace an entry whose count equals the spillover counter, if any;
        // otherwise increment the spillover counter (all tracked rows keep
        // their lead over untracked ones). The bound check skips the scan
        // whenever it cannot succeed.
        if self.min_bound <= self.spillover {
            let spillover = self.spillover;
            if let Some(victim) = self.find_victim(spillover) {
                let start = self.spillover + 1;
                self.seat(victim, key, start);
                self.scan_from = victim + 1;
                return start;
            }
            // The scan proved every counter exceeds the spillover level;
            // remember the exact minimum so future misses skip the scan
            // until the spillover counter catches up.
            self.min_bound = scan::min_value(&self.counts).unwrap_or(u64::MAX);
        }
        self.spillover += 1;
        *saturations += 1;
        self.spillover
    }

    /// Restart a mitigated row's counter from the spillover level,
    /// mirroring Graphene's counter reset on a swap.
    ///
    /// The row always holds a slot. A counter that reaches the threshold
    /// fires and restarts at the spillover level, so no slot stays at or
    /// above the threshold; the spillover counter grows only while every
    /// slot exceeds it, so it never reaches the threshold either, and a
    /// row that only the spillover counter estimates never fires.
    fn reset_row(&mut self, row: u64) {
        let slot = self.slot_of(row_key(row));
        debug_assert!(slot.is_some(), "a mitigated row holds a slot");
        if let Some(slot) = slot {
            self.counts[slot] = self.spillover;
            self.min_bound = self.min_bound.min(self.spillover);
        }
    }

    fn estimate(&self, row: u64) -> u64 {
        self.slot_of(row_key(row)).map_or(self.spillover, |slot| self.counts[slot])
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.counts.clear();
        self.index.clear();
        self.spillover = 0;
        self.min_bound = 0;
        self.scan_from = 0;
    }
}

/// The Misra-Gries aggressor tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct MisraGriesTracker {
    config: MisraGriesConfig,
    banks: Vec<BankTable>,
    /// Monotonic count of spillover increments over all banks: every
    /// activation a full table could not attribute to a dedicated slot.
    /// Unlike the spillover counters themselves this survives epoch resets
    /// — it is the saturation counter, not part of any frequency estimate.
    saturations: u64,
}

impl MisraGriesTracker {
    /// Create a tracker with empty per-bank tables.
    #[must_use]
    pub fn new(config: MisraGriesConfig) -> Self {
        let banks = (0..config.banks).map(|_| BankTable::new(config.entries_per_bank)).collect();
        Self { config, banks, saturations: 0 }
    }

    /// The tracker configuration.
    #[must_use]
    pub fn config(&self) -> &MisraGriesConfig {
        &self.config
    }

    /// Number of rows currently tracked in a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn tracked_rows(&self, bank: usize) -> usize {
        self.banks[bank].rows.len()
    }
}

impl AggressorTracker for MisraGriesTracker {
    fn record_activation(&mut self, bank: usize, row: u64) -> TrackerDecision {
        // In-range bank indices (the only case on the hot path) skip the
        // integer division entirely.
        let bank = if bank < self.banks.len() { bank } else { bank % self.banks.len() };
        let table = &mut self.banks[bank];
        let count = table.observe(row, &mut self.saturations);
        if count >= self.config.swap_threshold {
            table.reset_row(row);
            TrackerDecision::mitigate_now()
        } else {
            TrackerDecision::none()
        }
    }

    fn estimated_count(&self, bank: usize, row: u64) -> u64 {
        let bank = bank % self.banks.len();
        self.banks[bank].estimate(row)
    }

    fn reset_epoch(&mut self) {
        for b in &mut self.banks {
            b.clear();
        }
    }

    fn swap_threshold(&self) -> u64 {
        self.config.swap_threshold
    }

    fn storage_bits(&self) -> u64 {
        let entry_bits = u64::from(self.config.row_tag_bits + self.config.counter_bits);
        self.config.banks as u64 * self.config.entries_per_bank as u64 * entry_bits
    }

    fn clone_box(&self) -> Box<dyn AggressorTracker + Send> {
        Box::new(self.clone())
    }

    fn may_emit_memory_traffic(&self) -> bool {
        // Misra-Gries lives entirely in SRAM: it never produces DRAM
        // traffic of its own, so its only feedback channel into the
        // simulation is the mitigation trigger itself.
        false
    }

    fn occupancy(&self) -> u64 {
        self.banks.iter().map(|b| b.rows.len() as u64).sum()
    }

    fn saturation_events(&self) -> u64 {
        self.saturations
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn tracker(ts: u64) -> MisraGriesTracker {
        MisraGriesTracker::new(MisraGriesConfig::for_threshold(ts, 1_360_000, 2))
    }

    #[test]
    fn sizes_per_guarantee() {
        let c = MisraGriesConfig::for_threshold(800, 1_360_000, 16);
        assert!(c.entries_per_bank >= 1_360_000_usize.div_ceil(800));
        assert_eq!(c.banks, 16);
    }

    #[test]
    fn fires_exactly_at_threshold() {
        let mut t = tracker(100);
        for i in 0..99 {
            assert!(!t.record_activation(0, 7).mitigate, "fired early at {i}");
        }
        assert!(t.record_activation(0, 7).mitigate);
    }

    #[test]
    fn refires_after_ts_more_activations() {
        let mut t = tracker(100);
        let mut fires = 0;
        for _ in 0..300 {
            if t.record_activation(0, 7).mitigate {
                fires += 1;
            }
        }
        assert_eq!(fires, 3);
    }

    #[test]
    fn heavy_hitter_survives_background_noise() {
        let mut t = tracker(200);
        let mut fired = false;
        for i in 0..40_000u64 {
            // Background: a sweep over many distinct rows.
            t.record_activation(0, 1000 + i);
            // Aggressor row every 100th activation won't fire, but a denser
            // aggressor must.
            if i % 4 == 0 {
                fired |= t.record_activation(0, 3).mitigate;
            }
        }
        assert!(fired, "dense aggressor must be detected despite noise");
    }

    #[test]
    fn banks_are_independent() {
        let mut t = tracker(50);
        for _ in 0..49 {
            t.record_activation(0, 9);
        }
        // Bank 1 has seen nothing for row 9.
        assert_eq!(t.estimated_count(1, 9), 0);
        assert!(t.estimated_count(0, 9) >= 49);
    }

    #[test]
    fn reset_epoch_clears_counts() {
        let mut t = tracker(50);
        for _ in 0..30 {
            t.record_activation(0, 9);
        }
        t.reset_epoch();
        assert_eq!(t.estimated_count(0, 9), 0);
        assert_eq!(t.tracked_rows(0), 0);
    }

    #[test]
    fn storage_is_tens_of_kilobits_per_bank() {
        let t = tracker(800);
        let per_bank_bits = t.storage_bits() / 2;
        // ~2 * 1700 entries * 30 bits ≈ 100 kbit ≈ 12.5 KB per bank.
        assert!(per_bank_bits > 50_000 && per_bank_bits < 200_000, "bits = {per_bank_bits}");
    }

    #[test]
    fn never_underestimates_a_true_heavy_hitter() {
        // Misra-Gries guarantee: estimate >= true count - spillover, and any
        // row with > ACT/entries activations is tracked.
        let mut t = MisraGriesTracker::new(MisraGriesConfig {
            swap_threshold: 1_000_000, // never fire, we only check estimates
            entries_per_bank: 64,
            banks: 1,
            row_tag_bits: 17,
            counter_bits: 20,
        });
        for i in 0..10_000u64 {
            t.record_activation(0, i % 200); // uniform background
            t.record_activation(0, 7777); // heavy hitter, 1/2 of traffic
        }
        assert!(t.estimated_count(0, 7777) >= 5_000, "estimate too low");
    }

    /// The index holds exactly `len` entries, and every live slot's row
    /// maps back to that slot (so the live rows are distinct).
    fn assert_index_consistent(b: &BankTable) {
        assert_eq!(b.index.len(), b.rows.len(), "the index must hold exactly the live slots");
        for slot in 0..b.rows.len() {
            assert_eq!(b.slot_of(b.rows[slot]), Some(slot), "slot {slot} lost its index entry");
        }
    }

    #[test]
    fn eviction_churn_keeps_the_index_consistent() {
        // A table of 8 slots thrashed by hundreds of distinct rows: every
        // evicted row must become unfindable, every inserted row findable.
        let mut b = BankTable::new(8);
        let mut saturations = 0;
        for i in 0..2_000u64 {
            b.observe(i * 131, &mut saturations);
            assert!(b.rows.len() <= 8);
        }
        // Every slot's row must be findable through the index and point back
        // at its own slot.
        assert_index_consistent(&b);
        let live: std::collections::BTreeSet<u32> = b.rows.iter().copied().collect();
        assert_eq!(live.len(), b.rows.len(), "duplicate rows in the slot array");
        // Each index entry mirrors its slot's row.
        for (&row, &slot) in &b.index {
            assert_eq!(b.rows[slot as usize], row);
        }
    }

    proptest! {
        /// Mitigation resets (including the full-table eviction of
        /// `reset_row`) and epoch resets rewrite the index as well as
        /// `observe` does: after every step of an arbitrary activation
        /// stream over at most 64 rows, with a threshold low enough that
        /// mitigations fire, each bank's index still maps exactly its live
        /// slots.
        #[test]
        fn mitigation_and_epoch_resets_keep_the_index_consistent(
            entries in 4usize..17,
            threshold in 2u64..12,
            ops in prop::collection::vec((0usize..2, 0u64..64, 0u32..40), 1..600),
        ) {
            let mut t = MisraGriesTracker::new(MisraGriesConfig {
                swap_threshold: threshold,
                entries_per_bank: entries,
                banks: 2,
                row_tag_bits: 17,
                counter_bits: 13,
            });
            for (bank, row, draw) in ops {
                if draw == 0 {
                    t.reset_epoch();
                } else {
                    t.record_activation(bank, row);
                }
                for b in &t.banks {
                    assert_index_consistent(b);
                }
            }
        }
    }

    #[test]
    fn reset_on_a_full_table_evicts_a_spillover_level_entry() {
        // Sweep a 4-slot table until a row fires on the full table: the row
        // entered by evicting a spillover-level entry, keeps its slot
        // through the reset, and its counter subsequently grows only with
        // its own activations rather than riding the shared spillover
        // counter.
        let mut t = MisraGriesTracker::new(MisraGriesConfig {
            swap_threshold: 40,
            entries_per_bank: 4,
            banks: 1,
            row_tag_bits: 17,
            counter_bits: 13,
        });
        let mut fired_row = None;
        for i in 0..10_000u64 {
            let row = 100 + (i % 64);
            if t.record_activation(0, row).mitigate && !t.banks[0].counts[..4].contains(&0) {
                fired_row = Some(row);
                break;
            }
        }
        let row = fired_row.expect("a saturating sweep must eventually fire");
        assert!(
            t.banks[0].slot_of(row_key(row)).is_some(),
            "the mitigated row must own a slot after its counter reset"
        );
        let slot = t.banks[0].slot_of(row_key(row)).unwrap();
        let before = t.banks[0].counts[slot];
        let spill_before = t.banks[0].spillover;
        // Another row's miss moves spillover but not the reset row's count.
        t.record_activation(0, 9_999);
        assert_eq!(t.banks[0].counts[slot], before);
        assert!(t.banks[0].spillover >= spill_before);
    }

    #[test]
    fn table_saturation_is_counted_and_survives_epoch_resets() {
        // A 4-slot table swept by many distinct rows saturates: once every
        // slot holds a counter above the spillover level, further misses
        // fall back to the shared spillover counter — each such degraded
        // observation is a saturation event. The count is monotonic across
        // epochs even though the frequency state itself resets.
        let mut t = MisraGriesTracker::new(MisraGriesConfig {
            swap_threshold: 1_000_000, // never fire; we only exercise capacity
            entries_per_bank: 4,
            banks: 1,
            row_tag_bits: 17,
            counter_bits: 20,
        });
        // Pump four rows well above any spillover level, then miss with
        // fresh rows so no victim is ever at/below the spillover counter.
        for _ in 0..100 {
            for row in 0..4u64 {
                t.record_activation(0, row);
            }
        }
        for row in 100..150u64 {
            t.record_activation(0, row);
        }
        let after_first_epoch = t.saturation_events();
        assert!(after_first_epoch > 0, "full-table misses must count as saturation");
        t.reset_epoch();
        assert_eq!(
            t.saturation_events(),
            after_first_epoch,
            "saturation count must survive the epoch reset"
        );
        assert_eq!(t.estimated_count(0, 0), 0, "frequency state itself must reset");
    }

    #[test]
    fn snapshot_clone_is_independent() {
        let mut t = tracker(100);
        for _ in 0..50 {
            t.record_activation(0, 7);
        }
        let fork: Box<dyn AggressorTracker + Send> = t.clone_box();
        t.record_activation(0, 7);
        assert_eq!(fork.estimated_count(0, 7) + 1, t.estimated_count(0, 7));
        assert!(!t.may_emit_memory_traffic());
    }
}
