//! Row damage state and the ECC model: the substrate of the end-to-end
//! fault-injection layer.
//!
//! Security results elsewhere in the repo are stated in terms of the
//! TRH-crossing *proxy* (`max_victim_pressure >= TRH`). This module models
//! the causal step the proxy elides: a crossing flips concrete bits in a
//! concrete row, ECC may or may not catch them, and a later read of that
//! row serves corrupted data. The [`DamageStore`] keeps flipped-bit
//! positions keyed by **logical** row, so a row that is swapped away by a
//! defense carries its damage with it — exactly as real DRAM cells would.
//!
//! The store is purely observational: it never adds latency or traffic, so
//! enabling fault injection cannot perturb the timing (and therefore the
//! performance or security) of a simulation.

use std::collections::BTreeMap;

use crate::address::RowId;

/// Which error-correcting code protects the modelled DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EccKind {
    /// No ECC: every flipped bit in a read line is served silently.
    #[default]
    None,
    /// SECDED per 8-byte word: one flipped bit is corrected, two are
    /// detected but uncorrectable, three or more alias into a valid
    /// codeword and are served silently.
    Secded,
    /// A chipkill-flavoured symbol code per 8-byte word: one bad 8-bit
    /// symbol is corrected regardless of how many bits inside it flipped,
    /// two bad symbols are detected, three or more are served silently.
    ChipkillLite,
}

impl EccKind {
    /// Stable lower-case label used in specs, reports and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EccKind::None => "none",
            EccKind::Secded => "secded",
            EccKind::ChipkillLite => "chipkill-lite",
        }
    }

    /// Parse a [`EccKind::label`] back into the kind.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "none" => Some(EccKind::None),
            "secded" => Some(EccKind::Secded),
            "chipkill-lite" => Some(EccKind::ChipkillLite),
            _ => None,
        }
    }

    /// The [`EccModel`] implementing this kind's per-word decode.
    #[must_use]
    pub fn model(&self) -> &'static dyn EccModel {
        match self {
            EccKind::None => &NoEcc,
            EccKind::Secded => &Secded,
            EccKind::ChipkillLite => &ChipkillLite,
        }
    }
}

/// What an ECC decode of one line (or word) produced, ordered from best to
/// worst so `max` folds word outcomes into a line outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EccOutcome {
    /// No flipped bits in the read data.
    Clean,
    /// Flips present but fully corrected; the consumer sees good data.
    Corrected,
    /// Flips detected but uncorrectable (a DUE): the consumer gets a
    /// machine-check instead of wrong data.
    DetectedUncorrectable,
    /// Flips aliased past the code: corrupted data served as if it were
    /// good. This is the outcome Rowhammer attacks are after.
    Silent,
}

/// One error-correcting code, decoding a single 64-bit word.
///
/// The fault layer works on flipped-bit *positions* rather than data
/// values, so a model classifies a word from the positions of its bad bits
/// (bit indices are word-relative, `0..64`).
pub trait EccModel: Sync {
    /// Classify one word given the word-relative positions of flipped bits
    /// (never empty: clean words are not presented to the model).
    fn classify_word(&self, bad_bits: &[u32]) -> EccOutcome;
}

/// No ECC: any flipped bit is served silently.
struct NoEcc;

impl EccModel for NoEcc {
    fn classify_word(&self, _bad_bits: &[u32]) -> EccOutcome {
        EccOutcome::Silent
    }
}

/// SECDED (single-error-correct, double-error-detect) per 64-bit word.
struct Secded;

impl EccModel for Secded {
    fn classify_word(&self, bad_bits: &[u32]) -> EccOutcome {
        match bad_bits.len() {
            0 => EccOutcome::Clean,
            1 => EccOutcome::Corrected,
            2 => EccOutcome::DetectedUncorrectable,
            _ => EccOutcome::Silent,
        }
    }
}

/// Symbol-based correction per 64-bit word: bits are grouped into 8-bit
/// symbols and the code corrects one bad symbol, detects two.
struct ChipkillLite;

impl EccModel for ChipkillLite {
    fn classify_word(&self, bad_bits: &[u32]) -> EccOutcome {
        let mut symbols = 0u8;
        for &bit in bad_bits {
            symbols |= 1 << (bit / 8).min(7);
        }
        match symbols.count_ones() {
            0 => EccOutcome::Clean,
            1 => EccOutcome::Corrected,
            2 => EccOutcome::DetectedUncorrectable,
            _ => EccOutcome::Silent,
        }
    }
}

const WORD_BITS: u32 = 64;

/// Flipped-bit positions for every damaged row, keyed by (global bank,
/// **logical** row).
///
/// Rows are damaged at their physical location (the blast radius of an
/// aggressor's activations) but read back by logical address; keying by the
/// logical occupant at flip time means a subsequent swap, unswap or
/// place-back moves the damage along with the data, with no bookkeeping at
/// swap time. A `BTreeMap` keeps iteration (and therefore scrubbing and
/// reporting) deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DamageStore {
    rows: BTreeMap<(usize, RowId), Vec<u32>>,
    bits_per_line: u32,
}

impl DamageStore {
    /// An empty store for rows read in lines of `line_size_bytes`.
    #[must_use]
    pub fn new(line_size_bytes: u64) -> Self {
        Self { rows: BTreeMap::new(), bits_per_line: (line_size_bytes as u32).max(1) * 8 }
    }

    /// Whether no row carries damage (the hot-path early-out).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows carrying at least one flipped bit.
    #[must_use]
    pub fn damaged_rows(&self) -> usize {
        self.rows.len()
    }

    /// Record a flipped bit at a row-relative position. Returns `true` if
    /// the bit was not already flipped (damage is one-way: a second flip of
    /// the same cell is absorbed rather than toggling it back).
    pub fn add_flip(&mut self, bank: usize, row: RowId, bit: u32) -> bool {
        let bits = self.rows.entry((bank, row)).or_default();
        match bits.binary_search(&bit) {
            Ok(_) => false,
            Err(at) => {
                bits.insert(at, bit);
                true
            }
        }
    }

    /// The flipped bits falling inside one line of a row, as line-relative
    /// positions (empty if the row or line is clean).
    #[must_use]
    pub fn line_flips(&self, bank: usize, row: RowId, line: u64) -> Vec<u32> {
        let Some(bits) = self.rows.get(&(bank, row)) else {
            return Vec::new();
        };
        let start = (line as u32).saturating_mul(self.bits_per_line);
        let end = start.saturating_add(self.bits_per_line);
        bits.iter().filter(|&&b| b >= start && b < end).map(|&b| b - start).collect()
    }

    /// Drop the damage inside one line of a row (a write overwrites the
    /// stored data, healing it). Returns how many bits were cleared.
    pub fn clear_line(&mut self, bank: usize, row: RowId, line: u64) -> usize {
        let Some(bits) = self.rows.get_mut(&(bank, row)) else {
            return 0;
        };
        let start = (line as u32).saturating_mul(self.bits_per_line);
        let end = start.saturating_add(self.bits_per_line);
        let before = bits.len();
        bits.retain(|&b| b < start || b >= end);
        let cleared = before - bits.len();
        if bits.is_empty() {
            self.rows.remove(&(bank, row));
        }
        cleared
    }

    /// Classify the damage inside one line under `ecc`: the worst per-word
    /// outcome across the line's 64-bit words.
    #[must_use]
    pub fn classify_line(ecc: EccKind, line_flips: &[u32]) -> EccOutcome {
        if line_flips.is_empty() {
            return EccOutcome::Clean;
        }
        let model = ecc.model();
        let mut sorted = line_flips.to_vec();
        sorted.sort_unstable();
        let mut outcome = EccOutcome::Clean;
        let mut word_bits: Vec<u32> = Vec::with_capacity(4);
        let mut word = u32::MAX;
        for bit in sorted {
            if bit / WORD_BITS != word {
                if !word_bits.is_empty() {
                    outcome = outcome.max(model.classify_word(&word_bits));
                }
                word = bit / WORD_BITS;
                word_bits.clear();
            }
            word_bits.push(bit % WORD_BITS);
        }
        if !word_bits.is_empty() {
            outcome = outcome.max(model.classify_word(&word_bits));
        }
        outcome
    }

    /// One scrub pass: visit every damaged line, correct what `ecc` can
    /// correct (removing those bits), and count what it can only detect.
    /// Returns `(lines_corrected, lines_detected_uncorrectable)`. Silent
    /// damage is invisible to the scrubber and stays in place, as does
    /// detected-but-uncorrectable damage.
    pub fn scrub(&mut self, ecc: EccKind) -> (u64, u64) {
        let mut corrected = 0u64;
        let mut detected = 0u64;
        let bits_per_line = self.bits_per_line;
        for bits in self.rows.values_mut() {
            let mut keep: Vec<u32> = Vec::with_capacity(bits.len());
            let mut i = 0;
            while i < bits.len() {
                let line = bits[i] / bits_per_line;
                let mut j = i;
                while j < bits.len() && bits[j] / bits_per_line == line {
                    j += 1;
                }
                let line_bits: Vec<u32> = bits[i..j].iter().map(|b| b % bits_per_line).collect();
                match Self::classify_line(ecc, &line_bits) {
                    EccOutcome::Corrected => corrected += 1,
                    EccOutcome::DetectedUncorrectable => {
                        detected += 1;
                        keep.extend_from_slice(&bits[i..j]);
                    }
                    _ => keep.extend_from_slice(&bits[i..j]),
                }
                i = j;
            }
            *bits = keep;
        }
        self.rows.retain(|_, bits| !bits.is_empty());
        (corrected, detected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecc_labels_round_trip() {
        for kind in [EccKind::None, EccKind::Secded, EccKind::ChipkillLite] {
            assert_eq!(EccKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(EccKind::from_label("parity"), None);
    }

    #[test]
    fn secded_corrects_one_bit_detects_two_misses_three() {
        assert_eq!(DamageStore::classify_line(EccKind::Secded, &[3]), EccOutcome::Corrected);
        assert_eq!(
            DamageStore::classify_line(EccKind::Secded, &[3, 9]),
            EccOutcome::DetectedUncorrectable
        );
        assert_eq!(DamageStore::classify_line(EccKind::Secded, &[3, 9, 40]), EccOutcome::Silent);
        // One bit per word stays correctable even with many words hit.
        assert_eq!(
            DamageStore::classify_line(EccKind::Secded, &[3, 64 + 9, 128 + 40]),
            EccOutcome::Corrected
        );
    }

    #[test]
    fn chipkill_tolerates_a_whole_symbol() {
        // Five flips inside one 8-bit symbol: one bad symbol, corrected.
        assert_eq!(
            DamageStore::classify_line(EccKind::ChipkillLite, &[8, 9, 10, 11, 12]),
            EccOutcome::Corrected
        );
        // Two symbols hit: detected.
        assert_eq!(
            DamageStore::classify_line(EccKind::ChipkillLite, &[8, 16]),
            EccOutcome::DetectedUncorrectable
        );
        // Three symbols hit: silent.
        assert_eq!(
            DamageStore::classify_line(EccKind::ChipkillLite, &[0, 8, 16]),
            EccOutcome::Silent
        );
    }

    #[test]
    fn no_ecc_serves_everything_silently() {
        assert_eq!(DamageStore::classify_line(EccKind::None, &[0]), EccOutcome::Silent);
        assert_eq!(DamageStore::classify_line(EccKind::None, &[]), EccOutcome::Clean);
    }

    #[test]
    fn flips_are_per_line_and_writes_heal() {
        let mut store = DamageStore::new(64);
        assert!(store.add_flip(0, 7, 5));
        assert!(!store.add_flip(0, 7, 5), "re-flipping a cell is absorbed");
        assert!(store.add_flip(0, 7, 512 + 3));
        assert_eq!(store.line_flips(0, 7, 0), vec![5]);
        assert_eq!(store.line_flips(0, 7, 1), vec![3]);
        assert!(store.line_flips(0, 7, 2).is_empty());
        assert!(store.line_flips(1, 7, 0).is_empty());
        assert_eq!(store.clear_line(0, 7, 0), 1);
        assert!(store.line_flips(0, 7, 0).is_empty());
        assert_eq!(store.damaged_rows(), 1);
        assert_eq!(store.clear_line(0, 7, 1), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn scrub_corrects_single_bits_and_keeps_due_damage() {
        let mut store = DamageStore::new(64);
        store.add_flip(0, 1, 0); // one bit in one word: correctable
        store.add_flip(0, 2, 0); // two bits in one word: DUE, stays
        store.add_flip(0, 2, 1);
        store.add_flip(0, 3, 0); // three bits in one word: silent, stays
        store.add_flip(0, 3, 1);
        store.add_flip(0, 3, 2);
        let (corrected, detected) = store.scrub(EccKind::Secded);
        assert_eq!((corrected, detected), (1, 1));
        assert_eq!(store.damaged_rows(), 2, "DUE and silent damage survive the scrub");
        assert!(store.line_flips(0, 1, 0).is_empty());
        // A second scrub finds the same DUE again and corrects nothing new.
        assert_eq!(store.scrub(EccKind::Secded), (0, 1));
        // Without ECC a scrub is blind.
        let mut blind = DamageStore::new(64);
        blind.add_flip(0, 1, 0);
        assert_eq!(blind.scrub(EccKind::None), (0, 0));
        assert_eq!(blind.damaged_rows(), 1);
    }
}
