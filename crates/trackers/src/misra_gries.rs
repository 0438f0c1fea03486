//! The Misra-Gries frequent-item tracker (as used by Graphene and RRS).
//!
//! Each bank owns a small table of `(row, counter)` pairs plus a spillover
//! counter. The table is sized so that any row receiving more than `TS`
//! activations within a tracking epoch is guaranteed to be present — the
//! classic Misra-Gries guarantee requires `entries ≥ ACT_max / TS`.
//!
//! The table is stored as flat slot arrays (rows and counters side by side)
//! with a small open-addressed index mapping row → slot, mirroring the
//! direct-indexed SRAM structure of the hardware: the per-activation lookup
//! is a couple of contiguous loads, the eviction scan sweeps a dense counter
//! array, an epoch reset is a memset of the index, and a snapshot of the
//! tracker is a plain memcpy of a few flat `Vec`s.

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

/// Fibonacci-hash a row tag into a table of `1 << bits` slots: one multiply,
/// top bits as the bucket — deterministic, seedless, and well-spread for the
/// sequential/strided row patterns DRAM traffic produces.
#[inline]
fn bucket_of(row: u64, bits: u32) -> usize {
    (row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// One bank's tracking table: dense slot storage plus an open-addressed
/// row → slot index (linear probing, backward-shift deletion).
#[derive(Debug, Clone, Default, PartialEq)]
struct BankTable {
    /// Row tag of each live slot (`0..len`).
    rows: Vec<u64>,
    /// Estimated counter of each live slot (`0..len`).
    counts: Vec<u64>,
    /// Open-addressed index: `slot + 1` keyed by row hash, 0 = empty. Always
    /// a power of two at least twice `capacity`, so probe chains stay short
    /// even with the table full.
    index_slots: Vec<u32>,
    /// Row tag of each occupied index bucket, mirrored beside the slot so a
    /// probe compares tags without a dependent load into the slot arrays —
    /// the per-activation lookup touches only bucket-indexed memory.
    index_rows: Vec<u64>,
    /// log2 of `index_slots.len()`.
    index_bits: u32,
    /// Live slots.
    len: usize,
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
        let slots = (2 * capacity).next_power_of_two().max(8);
        Self {
            rows: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            index_slots: vec![0; slots],
            index_rows: vec![0; slots],
            index_bits: slots.trailing_zeros(),
            len: 0,
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
        let start = if self.scan_from < self.len { self.scan_from } else { 0 };
        scan::first_at_or_below(&self.counts[start..self.len], bound)
            .map(|v| start + v)
            .or_else(|| scan::first_at_or_below(&self.counts[..start], bound))
    }

    /// The slot currently holding `row`, if any.
    #[inline]
    fn slot_of(&self, row: u64) -> Option<usize> {
        let mask = self.index_slots.len() - 1;
        let mut pos = bucket_of(row, self.index_bits);
        loop {
            let s = self.index_slots[pos];
            if s == 0 {
                return None;
            }
            if self.index_rows[pos] == row {
                return Some((s - 1) as usize);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Point the index at `slot` for its current row tag.
    fn index_insert(&mut self, slot: usize) {
        let mask = self.index_slots.len() - 1;
        let row = self.rows[slot];
        let mut pos = bucket_of(row, self.index_bits);
        while self.index_slots[pos] != 0 {
            pos = (pos + 1) & mask;
        }
        self.index_slots[pos] = (slot + 1) as u32;
        self.index_rows[pos] = row;
    }

    /// Remove `row` from the index using backward-shift deletion, keeping
    /// every remaining probe chain intact without tombstones.
    fn index_remove(&mut self, row: u64) {
        let mask = self.index_slots.len() - 1;
        let mut pos = bucket_of(row, self.index_bits);
        loop {
            let s = self.index_slots[pos];
            if s == 0 {
                return;
            }
            if self.index_rows[pos] == row {
                break;
            }
            pos = (pos + 1) & mask;
        }
        let mut hole = pos;
        let mut probe = (pos + 1) & mask;
        while self.index_slots[probe] != 0 {
            let home = bucket_of(self.index_rows[probe], self.index_bits);
            // The entry may move back into the hole only if its home bucket
            // does not lie strictly between the hole and its current slot
            // (cyclic comparison).
            let between = if hole <= probe {
                home > hole && home <= probe
            } else {
                home > hole || home <= probe
            };
            if !between {
                self.index_slots[hole] = self.index_slots[probe];
                self.index_rows[hole] = self.index_rows[probe];
                hole = probe;
            }
            probe = (probe + 1) & mask;
        }
        self.index_slots[hole] = 0;
    }

    /// Returns the row's new estimated count, counting an activation the
    /// full table could not attribute to a dedicated slot in
    /// `saturations`.
    fn observe(&mut self, row: u64, saturations: &mut u64) -> u64 {
        if let Some(slot) = self.slot_of(row) {
            self.counts[slot] += 1;
            return self.counts[slot];
        }
        if self.len < self.capacity {
            let start = self.spillover + 1;
            let slot = self.len;
            if slot == self.rows.len() {
                self.rows.push(row);
                self.counts.push(start);
            } else {
                self.rows[slot] = row;
                self.counts[slot] = start;
            }
            self.len += 1;
            self.index_insert(slot);
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
                let old_row = self.rows[victim];
                self.index_remove(old_row);
                let start = self.spillover + 1;
                self.rows[victim] = row;
                self.counts[victim] = start;
                self.index_insert(victim);
                self.scan_from = victim + 1;
                return start;
            }
            // The scan proved every counter exceeds the spillover level;
            // remember the exact minimum so future misses skip the scan
            // until the spillover counter catches up.
            self.min_bound = scan::min_value(&self.counts[..self.len]).unwrap_or(u64::MAX);
        }
        self.spillover += 1;
        *saturations += 1;
        self.spillover
    }

    fn reset_row(&mut self, row: u64) {
        // After a mitigation the row starts counting from the spillover
        // level again, mirroring Graphene's counter reset on a swap.
        if let Some(slot) = self.slot_of(row) {
            self.counts[slot] = self.spillover;
        } else if self.len < self.capacity {
            let slot = self.len;
            if slot == self.rows.len() {
                self.rows.push(row);
                self.counts.push(self.spillover);
            } else {
                self.rows[slot] = row;
                self.counts[slot] = self.spillover;
            }
            self.len += 1;
            self.index_insert(slot);
        } else {
            // Full table: the mitigated row earns a slot through the same
            // Misra-Gries eviction rule `observe` applies — replace an
            // entry at or below the spillover level, so the reset row's
            // counter subsequently tracks its *own* activations instead of
            // riding the shared spillover counter. If every tracked row
            // strictly exceeds the spillover level, each of them carries
            // more evidence than the freshly reset row and the row
            // (correctly, for a Misra-Gries summary) stays untracked at
            // the spillover estimate.
            let spillover = self.spillover;
            if let Some(victim) = self.find_victim(spillover) {
                let old_row = self.rows[victim];
                self.index_remove(old_row);
                self.rows[victim] = row;
                self.counts[victim] = spillover;
                self.index_insert(victim);
                self.scan_from = victim + 1;
            }
        }
        self.min_bound = self.min_bound.min(self.spillover);
    }

    fn estimate(&self, row: u64) -> u64 {
        self.slot_of(row).map_or(self.spillover, |slot| self.counts[slot])
    }

    fn clear(&mut self) {
        self.index_slots.fill(0);
        self.len = 0;
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
        self.banks[bank].len
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
        self.banks.iter().map(|b| b.len as u64).sum()
    }

    fn saturation_events(&self) -> u64 {
        self.saturations
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn eviction_churn_keeps_the_index_consistent() {
        // A table of 8 slots thrashed by hundreds of distinct rows: every
        // evicted row must become unfindable, every inserted row findable,
        // exercising backward-shift deletion across wrapped probe chains.
        let mut b = BankTable::new(8);
        let mut saturations = 0;
        for i in 0..2_000u64 {
            b.observe(i * 131, &mut saturations);
            assert!(b.len <= 8);
        }
        // Every slot's row must be findable through the index and point back
        // at its own slot.
        for slot in 0..b.len {
            assert_eq!(b.slot_of(b.rows[slot]), Some(slot), "slot {slot} lost its index entry");
        }
        let live: std::collections::BTreeSet<u64> = b.rows[..b.len].iter().copied().collect();
        assert_eq!(live.len(), b.len, "duplicate rows in the slot array");
        // The index holds exactly `len` non-empty buckets, each mirroring
        // its slot's row tag.
        assert_eq!(b.index_slots.iter().filter(|&&s| s != 0).count(), b.len);
        for (pos, &s) in b.index_slots.iter().enumerate() {
            if s != 0 {
                assert_eq!(b.index_rows[pos], b.rows[(s - 1) as usize]);
            }
        }
    }

    #[test]
    fn reset_on_a_full_table_evicts_a_spillover_level_entry() {
        // Saturate a 4-slot table, then drive the spillover counter to the
        // threshold so an *untracked* row fires: the reset must seat the
        // fired row in a slot (evicting a spillover-level entry) so its
        // counter subsequently grows only with its own activations rather
        // than riding the shared spillover counter.
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
            t.banks[0].slot_of(row).is_some(),
            "the mitigated row must own a slot after its counter reset"
        );
        let slot = t.banks[0].slot_of(row).unwrap();
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
