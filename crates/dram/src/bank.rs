//! Per-bank state: row buffer, busy time, and activation counts.

use crate::address::RowId;
use crate::Nanos;

/// The row-buffer state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankState {
    /// All rows precharged; the bank is ready to activate a row.
    #[default]
    Precharged,
    /// A row is open in the row buffer.
    Open(RowId),
}

/// A single DRAM bank.
///
/// The bank tracks which row (if any) is open, the time until which it is
/// busy with an in-flight access, refresh or maintenance operation, and how
/// many activations it has performed in the current refresh window.
#[derive(Debug, Clone, PartialEq)]
pub struct Bank {
    state: BankState,
    busy_until_ns: Nanos,
    activations_in_window: u64,
    total_activations: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// Create an idle, precharged bank.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: BankState::Precharged,
            busy_until_ns: 0,
            activations_in_window: 0,
            total_activations: 0,
        }
    }

    /// Current row-buffer state.
    #[must_use]
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The row currently open in the row buffer, if any.
    #[must_use]
    #[inline]
    pub fn open_row(&self) -> Option<RowId> {
        match self.state {
            BankState::Open(r) => Some(r),
            BankState::Precharged => None,
        }
    }

    /// Time until which the bank is occupied.
    #[must_use]
    #[inline]
    pub fn busy_until(&self) -> Nanos {
        self.busy_until_ns
    }

    /// Whether the bank can start a new operation at `now`.
    #[must_use]
    #[inline]
    pub fn is_free_at(&self, now: Nanos) -> bool {
        self.busy_until_ns <= now
    }

    /// Occupy the bank until `until`, without changing row-buffer state
    /// (used for refresh and maintenance).
    #[inline]
    pub fn occupy_until(&mut self, until: Nanos) {
        self.busy_until_ns = self.busy_until_ns.max(until);
    }

    /// Record an activation of `row`, marking it open.
    #[inline]
    pub fn activate(&mut self, row: RowId) {
        self.state = BankState::Open(row);
        self.activations_in_window += 1;
        self.total_activations += 1;
    }

    /// Precharge the bank (close any open row).
    #[inline]
    pub fn precharge(&mut self) {
        self.state = BankState::Precharged;
    }

    /// Number of activations performed in the current refresh window.
    #[must_use]
    pub fn activations_in_window(&self) -> u64 {
        self.activations_in_window
    }

    /// Total activations since construction.
    #[must_use]
    pub fn total_activations(&self) -> u64 {
        self.total_activations
    }

    /// Reset the per-window activation count (called at refresh-window
    /// boundaries) and close the row buffer, as an all-bank refresh would.
    pub fn start_new_window(&mut self) {
        self.activations_in_window = 0;
        self.state = BankState::Precharged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bank_is_precharged_and_free() {
        let b = Bank::new();
        assert_eq!(b.state(), BankState::Precharged);
        assert!(b.is_free_at(0));
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn activate_opens_row_and_counts() {
        let mut b = Bank::new();
        b.activate(42);
        b.activate(43);
        assert_eq!(b.open_row(), Some(43));
        assert_eq!(b.activations_in_window(), 2);
        assert_eq!(b.total_activations(), 2);
    }

    #[test]
    fn precharge_closes_row_but_keeps_counts() {
        let mut b = Bank::new();
        b.activate(7);
        b.precharge();
        assert_eq!(b.open_row(), None);
        assert_eq!(b.total_activations(), 1);
    }

    #[test]
    fn new_window_resets_window_count_only() {
        let mut b = Bank::new();
        b.activate(1);
        b.start_new_window();
        assert_eq!(b.activations_in_window(), 0);
        assert_eq!(b.total_activations(), 1);
        assert_eq!(b.state(), BankState::Precharged);
    }

    #[test]
    fn occupy_never_moves_busy_time_backwards() {
        let mut b = Bank::new();
        b.occupy_until(100);
        b.occupy_until(50);
        assert_eq!(b.busy_until(), 100);
        assert!(!b.is_free_at(99));
        assert!(b.is_free_at(100));
    }
}
