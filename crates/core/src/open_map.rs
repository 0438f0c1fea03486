//! A compact open-addressed `u32 → u32` map for sparse per-bank state.
//!
//! The RIT and the swap-tracking counters index by row number, but only
//! ever hold a few hundred live entries (bounded by the RIT capacity and
//! the distinct rows swapped in a run). Direct-indexed `rows_per_bank`-sized
//! arrays made every touched bank allocate and zero megabytes on its first
//! swap — measurably the single largest defense-side cost on the saturated
//! quickstart cells — while this table stays a few kilobytes, small enough
//! to live in L1 and to make bank snapshots cheap.

/// Open-addressed map with Fibonacci hashing, linear probing and
/// backward-shift deletion (no tombstones). Keys are stored `+ 1` so a
/// zero slot means empty; the table keeps load factor at or below 1/2.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenMap {
    /// `key + 1` per slot; 0 = empty. Length is a power of two (or zero
    /// before the first insert).
    keys: Vec<u32>,
    vals: Vec<u32>,
    len: usize,
}

impl OpenMap {
    /// An empty map; slots are allocated on the first insert.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The home slot of `key` in the current table.
    #[inline]
    fn bucket(&self, key: u32) -> usize {
        // Fibonacci hashing: take the high bits of the golden-ratio
        // product, which spread the near-consecutive row numbers banks
        // produce far better than the low bits would.
        let h = key.wrapping_add(1).wrapping_mul(0x9E37_79B9);
        let bits = self.keys.len().trailing_zeros();
        (h >> (32 - bits)) as usize & (self.keys.len() - 1)
    }

    /// The value stored under `key`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u32) -> Option<u32> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.bucket(key);
        loop {
            let k = self.keys[slot];
            if k == 0 {
                return None;
            }
            if k == key + 1 {
                return Some(self.vals[slot]);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Insert `key → val`, overwriting any existing value.
    pub fn insert(&mut self, key: u32, val: u32) {
        if self.len * 2 >= self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.bucket(key);
        loop {
            let k = self.keys[slot];
            if k == 0 {
                self.keys[slot] = key + 1;
                self.vals[slot] = val;
                self.len += 1;
                return;
            }
            if k == key + 1 {
                self.vals[slot] = val;
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u32) -> Option<u32> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.bucket(key);
        loop {
            let k = self.keys[slot];
            if k == 0 {
                return None;
            }
            if k == key + 1 {
                break;
            }
            slot = (slot + 1) & mask;
        }
        let val = self.vals[slot];
        // Backward-shift deletion: pull later cluster members over the hole
        // when their home slot lies at or before it, keeping probe chains
        // gap-free without tombstones.
        let mut hole = slot;
        let mut probe = (slot + 1) & mask;
        while self.keys[probe] != 0 {
            let home = self.bucket(self.keys[probe] - 1);
            if (probe.wrapping_sub(home) & mask) >= (probe.wrapping_sub(hole) & mask) {
                self.keys[hole] = self.keys[probe];
                self.vals[hole] = self.vals[probe];
                hole = probe;
            }
            probe = (probe + 1) & mask;
        }
        self.keys[hole] = 0;
        self.len -= 1;
        Some(val)
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.keys.fill(0);
        self.len = 0;
    }

    /// Double the table (16 slots initially) and rehash.
    fn grow(&mut self) {
        let new_slots = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_slots]);
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                self.insert(k - 1, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m = OpenMap::new();
        assert!(m.is_empty());
        m.insert(7, 100);
        m.insert(7, 200);
        assert_eq!(m.get(7), Some(200));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(8), None);
    }

    #[test]
    fn grows_past_initial_slots() {
        let mut m = OpenMap::new();
        for k in 0..1_000 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.len(), 1_000);
        for k in 0..1_000 {
            assert_eq!(m.get(k), Some(k * 2));
        }
    }

    #[test]
    fn remove_with_backward_shift_keeps_chains_reachable() {
        let mut m = OpenMap::new();
        // Colliding-ish dense keys force clusters; removing from the middle
        // must keep every other key findable.
        for k in 0..64 {
            m.insert(k * 16, k);
        }
        for k in (0..64).step_by(2) {
            assert_eq!(m.remove(k * 16), Some(k));
        }
        assert_eq!(m.len(), 32);
        for k in 0..64 {
            let expected = if k % 2 == 0 { None } else { Some(k) };
            assert_eq!(m.get(k * 16), expected, "key {k}");
        }
        assert_eq!(m.remove(5), None);
    }

    #[test]
    fn clear_keeps_working() {
        let mut m = OpenMap::new();
        m.insert(1, 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
        m.insert(1, 2);
        assert_eq!(m.get(1), Some(2));
    }
}
