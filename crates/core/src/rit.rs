//! The Row Indirection Table (RIT).
//!
//! The RIT records which DRAM chip location ("physical row") currently holds
//! the data of each row address issued by the system ("logical row"), and
//! the reverse. RRS stores the mappings as *tuple pairs* so that a pair can
//! be unswapped immediately; SRS splits the table into a *real* part
//! (logical → physical) and a *mirrored* part (physical → logical) so that
//! rows can keep swapping forward without ever being unswapped within the
//! epoch (Section IV-C of the paper).
//!
//! Both organisations need the same two look-up directions, so a single
//! [`BankRit`] provides them; the defenses differ in how they use it and in
//! how its storage is accounted (see [`crate::storage`]).
//!
//! The hardware RIT is built as a Collision Avoidance Table (CAT) — an
//! over-provisioned set-associative structure that is never filled beyond a
//! safe load factor so conflict-based attacks cannot force evictions. This
//! model abstracts the CAT's internal hashing and keeps only its two
//! architecturally visible properties: a bounded entry count and the
//! guarantee that an insertion below capacity always succeeds.
//!
//! Storage model: live mappings sit in dense parallel arrays (row,
//! location, epoch — the latter two doubling as the iteration surface for
//! the place-back scan), and both look-up directions are
//! `FxHashMap<u32, u32>` indexes into those arrays, keyed by 32-bit row
//! addresses. The index space is `rows_per_bank` but only `capacity`
//! entries are ever live, so a bank that never swaps holds no table and
//! cloning a touched bank copies kilobytes. No result depends on the maps'
//! iteration order: every walk runs over the dense arrays.

use fxhash::FxHashMap;

/// `row` as a key of the per-row maps. `DramConfig::validate` bounds a
/// bank by `u32::MAX` rows, so every row of a valid bank converts exactly
/// and `u32::MAX` itself names no row: a row outside every valid bank
/// saturates to it.
#[inline]
pub(crate) fn row_key(row: u64) -> u32 {
    u32::try_from(row).unwrap_or(u32::MAX)
}

/// Capacity and sizing parameters of a per-bank RIT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RitConfig {
    /// Maximum number of live (non-identity) mappings per bank.
    pub capacity: usize,
    /// Bits per row address stored in an entry.
    pub row_bits: u32,
    /// CAT over-provisioning factor applied when reporting storage (the
    /// physical table has more slots than `capacity` live mappings).
    pub overprovision: f64,
    /// Rows per bank — the index space of the per-row maps.
    pub rows_per_bank: u64,
}

impl RitConfig {
    /// Size the RIT for a bank that can experience at most
    /// `max_swaps_per_window` swaps per refresh window.
    ///
    /// Mappings from the previous epoch are evicted lazily, so in the worst
    /// case the table holds the live mappings of two consecutive epochs.
    #[must_use]
    pub fn for_swaps(max_swaps_per_window: u64, rows_per_bank: u64) -> Self {
        let capacity = (2 * max_swaps_per_window).max(8) as usize;
        let row_bits = 64 - rows_per_bank.next_power_of_two().leading_zeros() - 1;
        Self { capacity, row_bits: row_bits.max(1), overprovision: 1.5, rows_per_bank }
    }

    /// SRAM bits needed for one bank's RIT when storing both mapping
    /// directions (RRS tuple pairs, or SRS real + mirrored halves).
    #[must_use]
    pub fn storage_bits_dual(&self) -> u64 {
        let entry_bits = u64::from(2 * self.row_bits + 2); // two rows + valid + lock/epoch bit
        (self.capacity as f64 * self.overprovision).ceil() as u64 * 2 * entry_bits
    }

    /// SRAM bits for the compact single-table variant discussed in the
    /// paper's Discussion §4 (a direction bit per entry instead of a
    /// mirrored half).
    #[must_use]
    pub fn storage_bits_compact(&self) -> u64 {
        self.storage_bits_dual() / 2 + (self.capacity as f64 * self.overprovision).ceil() as u64
    }
}

/// A record of one swap performed through the RIT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRecord {
    /// The logical row that triggered the swap.
    pub row: u64,
    /// The physical location the row's data moved *from*.
    pub from_location: u64,
    /// The physical location the row's data moved *to*.
    pub to_location: u64,
    /// The logical row whose data previously occupied `to_location` and has
    /// been displaced to `from_location`.
    pub displaced_row: u64,
}

/// The per-bank Row Indirection Table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BankRit {
    /// Logical row → index into the dense live arrays.
    fwd: FxHashMap<u32, u32>,
    /// Physical location → index into the dense live arrays.
    rev: FxHashMap<u32, u32>,
    /// The live (remapped) logical rows, unordered.
    live: Vec<u32>,
    /// Where each live row's data currently lives, parallel to `live`.
    live_locs: Vec<u32>,
    /// `epoch + 1` of each live mapping, parallel to `live`, so the
    /// stale-row walk scans one dense array.
    live_epochs: Vec<u32>,
    rows: u64,
    capacity: usize,
}

impl BankRit {
    /// Create an empty table with the given live-mapping capacity over a
    /// bank of `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not fit the table's 32-bit row encoding (the
    /// bound `DramConfig::validate` enforces).
    #[must_use]
    pub fn new(capacity: usize, rows: u64) -> Self {
        assert!(rows <= u64::from(u32::MAX), "rows_per_bank exceeds the RIT's row encoding");
        Self {
            fwd: FxHashMap::default(),
            rev: FxHashMap::default(),
            live: Vec::new(),
            live_locs: Vec::new(),
            live_epochs: Vec::new(),
            rows,
            capacity,
        }
    }

    /// Where the data of logical `row` currently lives.
    #[inline]
    #[must_use]
    pub fn translate(&self, row: u64) -> u64 {
        if row >= self.rows {
            return row;
        }
        match self.fwd.get(&row_key(row)) {
            Some(&idx) => u64::from(self.live_locs[idx as usize]),
            None => row,
        }
    }

    /// Which logical row's data currently lives at physical `location`.
    #[inline]
    #[must_use]
    pub fn occupant(&self, location: u64) -> u64 {
        if location >= self.rows {
            return location;
        }
        match self.rev.get(&row_key(location)) {
            Some(&idx) => u64::from(self.live[idx as usize]),
            None => location,
        }
    }

    /// Whether logical `row` is currently remapped away from its home.
    #[inline]
    #[must_use]
    pub fn is_remapped(&self, row: u64) -> bool {
        row < self.rows && self.fwd.contains_key(&row_key(row))
    }

    /// Number of live (non-identity) mappings.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.live.len()
    }

    /// Maximum number of live mappings.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a new swap could still be recorded (two mappings may be
    /// created per swap).
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.live_entries() + 2 <= self.capacity
    }

    /// Logical rows whose mapping was created in an epoch before
    /// `current_epoch` (candidates for lazy place-back).
    ///
    /// The defense polls this on a timer for every bank, usually finding
    /// nothing; the walk therefore runs over the dense `live_epochs` mirror
    /// in chunks of eight branchlessly-compared lanes, touching the `live`
    /// row list only for the (rare) stale hits.
    #[must_use]
    pub fn stale_rows(&self, current_epoch: u64) -> Vec<u64> {
        // `live_epochs` stores `epoch + 1` exactly as `epoch_of` does, so
        // the stale predicate keeps the original encoding and comparison.
        let cutoff = current_epoch + 1;
        let mut rows: Vec<u64> = Vec::new();
        let mut chunks = self.live_epochs.chunks_exact(8);
        let mut base = 0;
        for chunk in &mut chunks {
            let mut mask = 0u32;
            for (lane, &epoch) in chunk.iter().enumerate() {
                mask |= u32::from(u64::from(epoch) < cutoff) << lane;
            }
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                rows.push(u64::from(self.live[base + lane]));
            }
            base += 8;
        }
        for (tail, &epoch) in chunks.remainder().iter().enumerate() {
            if u64::from(epoch) < cutoff {
                rows.push(u64::from(self.live[base + tail]));
            }
        }
        rows.sort_unstable();
        rows
    }

    /// All currently remapped logical rows.
    #[must_use]
    pub fn remapped_rows(&self) -> Vec<u64> {
        let mut rows: Vec<u64> = self.live.iter().map(|&r| u64::from(r)).collect();
        rows.sort_unstable();
        rows
    }

    /// Remove dense entry `idx`, patching the indexes of the entry swapped
    /// into its place. The reverse index is only patched when it still
    /// points at the moved entry: between the two [`Self::set_mapping`]
    /// calls of a swap, a location's reverse entry may already have been
    /// taken over by the other half of the pair.
    fn live_swap_remove(&mut self, idx: usize) {
        let last = self.live.len() - 1;
        self.live.swap_remove(idx);
        self.live_locs.swap_remove(idx);
        self.live_epochs.swap_remove(idx);
        if idx < last {
            self.fwd.insert(self.live[idx], idx as u32);
            let moved_loc = self.live_locs[idx];
            if self.rev.get(&moved_loc) == Some(&(last as u32)) {
                self.rev.insert(moved_loc, idx as u32);
            }
        }
    }

    fn set_mapping(&mut self, row: u64, location: u64, epoch: u64) {
        let key_row = row_key(row);
        if row == location {
            // Restore identity: drop the row's mapping and, when it still
            // points here, the reverse entry of the location it vacates.
            if let Some(idx) = self.fwd.remove(&key_row) {
                let loc = self.live_locs[idx as usize];
                if self.rev.get(&loc) == Some(&idx) {
                    self.rev.remove(&loc);
                }
                self.live_swap_remove(idx as usize);
            }
        } else {
            // Window counts stay far below 2^32 over any simulated run; the
            // saturation only defends the cast.
            let encoded = u32::try_from(epoch + 1).unwrap_or(u32::MAX);
            let key_loc = row_key(location);
            if let Some(&idx) = self.fwd.get(&key_row) {
                let i = idx as usize;
                let old_loc = self.live_locs[i];
                if old_loc != key_loc {
                    if self.rev.get(&old_loc) == Some(&idx) {
                        self.rev.remove(&old_loc);
                    }
                    self.live_locs[i] = key_loc;
                    self.rev.insert(key_loc, idx);
                }
                self.live_epochs[i] = encoded;
            } else {
                let idx = self.live.len() as u32;
                self.live.push(key_row);
                self.live_locs.push(key_loc);
                self.live_epochs.push(encoded);
                self.fwd.insert(key_row, idx);
                self.rev.insert(key_loc, idx);
            }
        }
    }

    /// Swap the data of logical `row` with whatever currently occupies
    /// physical `target_location`.
    ///
    /// Returns `None` (and changes nothing) if the swap would be a no-op
    /// (the row already lives there) or if the table has no room left.
    pub fn swap_to(&mut self, row: u64, target_location: u64, epoch: u64) -> Option<SwapRecord> {
        let from = self.translate(row);
        if from == target_location {
            return None;
        }
        let displaced = self.occupant(target_location);
        if !(self.has_room() || self.is_remapped(row) || self.is_remapped(displaced)) {
            return None;
        }
        self.set_mapping(row, target_location, epoch);
        self.set_mapping(displaced, from, epoch);
        Some(SwapRecord {
            row,
            from_location: from,
            to_location: target_location,
            displaced_row: displaced,
        })
    }

    /// Unswap logical `row`, restoring it (and whatever occupies its home)
    /// to identity mappings. Used by RRS for immediate unswaps and by the
    /// SRS place-back engine.
    ///
    /// Returns `None` if the row was not remapped.
    pub fn unswap(&mut self, row: u64, epoch: u64) -> Option<SwapRecord> {
        if !self.is_remapped(row) {
            return None;
        }
        let from = self.translate(row);
        let occupant_of_home = self.occupant(row);
        // Move `row` home and move the occupant of its home to the location
        // `row` vacated (daisy-chain step of the place-back procedure).
        self.set_mapping(row, row, epoch);
        self.set_mapping(occupant_of_home, from, epoch);
        Some(SwapRecord {
            row,
            from_location: from,
            to_location: row,
            displaced_row: occupant_of_home,
        })
    }

    /// Remove every mapping (end-of-simulation or bulk unswap accounting).
    pub fn clear(&mut self) {
        self.fwd.clear();
        self.rev.clear();
        self.live.clear();
        self.live_locs.clear();
        self.live_epochs.clear();
    }

    /// Check the internal bijection invariant; used by tests.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        if self.live_locs.len() != self.live.len()
            || self.live_epochs.len() != self.live.len()
            || self.fwd.len() != self.live.len()
            || self.rev.len() != self.live.len()
        {
            return false;
        }
        self.live.iter().enumerate().all(|(pos, &r)| {
            self.live_locs[pos] != r
                && self.live_epochs[pos] != 0
                && self.fwd.get(&r) == Some(&(pos as u32))
                && self.rev.get(&self.live_locs[pos]) == Some(&(pos as u32))
        })
    }
}

/// All per-bank RITs of a defense.
#[derive(Debug, Clone, PartialEq)]
pub struct RowIndirectionTable {
    config: RitConfig,
    banks: Vec<BankRit>,
}

impl RowIndirectionTable {
    /// Create one empty RIT per bank.
    #[must_use]
    pub fn new(config: RitConfig, banks: usize) -> Self {
        Self {
            banks: (0..banks)
                .map(|_| BankRit::new(config.capacity, config.rows_per_bank))
                .collect(),
            config,
        }
    }

    /// The sizing configuration.
    #[must_use]
    pub fn config(&self) -> &RitConfig {
        &self.config
    }

    /// Access one bank's table.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank(&self, bank: usize) -> &BankRit {
        &self.banks[bank]
    }

    /// Mutable access to one bank's table.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_mut(&mut self, bank: usize) -> &mut BankRit {
        &mut self.banks[bank]
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Total live mappings across all banks.
    #[must_use]
    pub fn total_live_entries(&self) -> usize {
        self.banks.iter().map(BankRit::live_entries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rit() -> BankRit {
        BankRit::new(64, 1024)
    }

    #[test]
    fn identity_by_default() {
        let r = rit();
        assert_eq!(r.translate(5), 5);
        assert_eq!(r.occupant(5), 5);
        assert!(!r.is_remapped(5));
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn swap_moves_both_rows() {
        let mut r = rit();
        let rec = r.swap_to(10, 99, 0).unwrap();
        assert_eq!(rec.from_location, 10);
        assert_eq!(rec.to_location, 99);
        assert_eq!(rec.displaced_row, 99);
        assert_eq!(r.translate(10), 99);
        assert_eq!(r.translate(99), 10);
        assert_eq!(r.occupant(99), 10);
        assert_eq!(r.occupant(10), 99);
        assert!(r.invariants_hold());
        assert_eq!(r.live_entries(), 2);
    }

    #[test]
    fn swap_to_own_location_is_noop() {
        let mut r = rit();
        assert!(r.swap_to(7, 7, 0).is_none());
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn chained_swaps_track_locations() {
        let mut r = rit();
        // A -> location of B, then A (now at B's home) -> location of C.
        r.swap_to(1, 2, 0).unwrap();
        let rec = r.swap_to(1, 3, 0).unwrap();
        assert_eq!(rec.from_location, 2);
        assert_eq!(rec.to_location, 3);
        assert_eq!(rec.displaced_row, 3);
        // Row 1's data is at location 3; row 3's data is at location 2 (where
        // row 1 used to be); row 2's data is at row 1's home.
        assert_eq!(r.translate(1), 3);
        assert_eq!(r.translate(3), 2);
        assert_eq!(r.translate(2), 1);
        assert!(r.invariants_hold());
    }

    #[test]
    fn unswap_restores_pair() {
        let mut r = rit();
        r.swap_to(1, 2, 0).unwrap();
        let rec = r.unswap(1, 0).unwrap();
        assert_eq!(rec.to_location, 1);
        assert_eq!(r.translate(1), 1);
        assert_eq!(r.translate(2), 2);
        assert_eq!(r.live_entries(), 0);
        assert!(r.invariants_hold());
    }

    #[test]
    fn unswap_of_chain_homes_one_row_per_step() {
        let mut r = rit();
        r.swap_to(1, 2, 0).unwrap();
        r.swap_to(1, 3, 0).unwrap();
        // Home row 1; rows 2 and 3 may still be displaced among themselves.
        r.unswap(1, 1).unwrap();
        assert_eq!(r.translate(1), 1);
        assert!(r.invariants_hold());
        // Homing the remaining stale rows one by one empties the table.
        for row in r.remapped_rows() {
            r.unswap(row, 1);
        }
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn unswap_of_identity_row_is_none() {
        let mut r = rit();
        assert!(r.unswap(42, 0).is_none());
    }

    #[test]
    fn capacity_blocks_new_pairs_but_not_existing_rows() {
        let mut r = BankRit::new(4, 1024);
        assert!(r.swap_to(1, 100, 0).is_some());
        assert!(r.swap_to(2, 200, 0).is_some());
        // Table full (4 live entries): a brand-new pair is rejected...
        assert!(r.swap_to(3, 300, 0).is_none());
        // ...but a row that is already remapped may keep swapping.
        assert!(r.swap_to(1, 200, 0).is_some());
        assert!(r.invariants_hold());
    }

    #[test]
    fn stale_rows_are_reported_per_epoch() {
        let mut r = rit();
        r.swap_to(1, 10, 0).unwrap();
        r.swap_to(2, 20, 1).unwrap();
        let stale = r.stale_rows(1);
        assert!(stale.contains(&1));
        assert!(stale.contains(&10));
        assert!(!stale.contains(&2));
    }

    #[test]
    fn stale_scan_matches_gather_on_wide_tables() {
        // Enough live mappings to cover several 8-lane chunks plus a tail,
        // across two epochs, with churn (unswaps) so the live list and its
        // epoch mirror go through swap-remove compaction.
        let mut r = BankRit::new(128, 4096);
        for i in 0..12u64 {
            r.swap_to(i, 1000 + i, 0).unwrap();
        }
        for i in 12..21u64 {
            r.swap_to(i, 1000 + i, 3).unwrap();
        }
        r.unswap(4, 3).unwrap();
        r.unswap(15, 3).unwrap();
        assert!(r.invariants_hold());
        // Reference: the direct gather through the forward index.
        let mut expected: Vec<u64> = r
            .remapped_rows()
            .into_iter()
            .filter(|&row| {
                let idx = r.fwd[&row_key(row)];
                u64::from(r.live_epochs[idx as usize]) < 3 + 1
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(r.stale_rows(3), expected);
        assert!(!expected.is_empty(), "epoch-0 mappings must be stale at epoch 3");
        // Every mapping is stale once the epoch advances past both batches.
        assert_eq!(r.stale_rows(10), r.remapped_rows());
    }

    #[test]
    fn clear_restores_identity_everywhere() {
        let mut r = rit();
        r.swap_to(1, 10, 0).unwrap();
        r.swap_to(2, 20, 0).unwrap();
        r.clear();
        assert_eq!(r.live_entries(), 0);
        for row in [1, 2, 10, 20] {
            assert_eq!(r.translate(row), row);
            assert_eq!(r.occupant(row), row);
        }
        assert!(r.invariants_hold());
    }

    #[test]
    fn rit_config_sizes() {
        let c = RitConfig::for_swaps(1700, 128 * 1024);
        assert_eq!(c.capacity, 3400);
        assert_eq!(c.row_bits, 17);
        assert_eq!(c.rows_per_bank, 128 * 1024);
        assert!(c.storage_bits_dual() > c.storage_bits_compact());
        // Dual storage at TS=800 lands in the tens of kilobytes per bank,
        // the order of magnitude of Table IV.
        let bytes = c.storage_bits_dual() / 8;
        assert!(bytes > 20_000 && bytes < 80_000, "bytes = {bytes}");
    }

    #[test]
    fn multi_bank_table_is_independent() {
        let mut t = RowIndirectionTable::new(RitConfig::for_swaps(16, 1024), 4);
        t.bank_mut(0).swap_to(1, 2, 0).unwrap();
        assert_eq!(t.bank(0).translate(1), 2);
        assert_eq!(t.bank(1).translate(1), 1);
        assert_eq!(t.total_live_entries(), 2);
        assert_eq!(t.banks(), 4);
    }
}
