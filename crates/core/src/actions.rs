//! Actions a defense asks the memory system to perform.

/// The kind of row-movement operation, mirroring the paper's terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOpKind {
    /// An initial swap of two rows (RRS, SRS, Scale-SRS).
    Swap,
    /// An unswap of an existing pair immediately followed by a swap with a
    /// fresh partner (RRS only — the source of Juggernaut's latent
    /// activations).
    UnswapSwap,
    /// A lazy place-back of a stale mapping (SRS, Scale-SRS).
    PlaceBack,
    /// A read-modify-write of a per-row swap-tracking counter row.
    CounterAccess,
    /// The bulk unswap of every remaining mapping at the end of a refresh
    /// window (the "No Unswap" RRS variant of Figure 4).
    BulkUnswap,
}

impl std::fmt::Display for RowOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RowOpKind::Swap => "swap",
            RowOpKind::UnswapSwap => "unswap-swap",
            RowOpKind::PlaceBack => "place-back",
            RowOpKind::CounterAccess => "counter-access",
            RowOpKind::BulkUnswap => "bulk-unswap",
        };
        f.write_str(s)
    }
}

/// One action requested by a defense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MitigationAction {
    /// Occupy `bank` for `duration_ns` performing a row movement, activating
    /// the listed physical rows (the *latent activations* of the paper).
    RowOperation {
        /// Global bank index.
        bank: usize,
        /// The kind of operation (for statistics).
        kind: RowOpKind,
        /// Bank-occupancy time of the operation.
        duration_ns: u64,
        /// Physical chip rows activated while performing it.
        activations: Vec<u64>,
    },
    /// Pin the DRAM row currently holding logical `row` of `bank` into the
    /// LLC for the remainder of the refresh window (Scale-SRS outliers).
    PinRow {
        /// Global bank index.
        bank: usize,
        /// Logical row to pin (the simulator converts it to a physical
        /// address through the defense's own translation).
        row: u64,
    },
}

impl MitigationAction {
    /// The bank this action applies to.
    #[must_use]
    pub fn bank(&self) -> usize {
        match self {
            MitigationAction::RowOperation { bank, .. } | MitigationAction::PinRow { bank, .. } => {
                *bank
            }
        }
    }

    /// Total latent activations carried by this action.
    #[must_use]
    pub fn activation_count(&self) -> usize {
        match self {
            MitigationAction::RowOperation { activations, .. } => activations.len(),
            MitigationAction::PinRow { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_op_kind_display() {
        assert_eq!(RowOpKind::UnswapSwap.to_string(), "unswap-swap");
        assert_eq!(RowOpKind::BulkUnswap.to_string(), "bulk-unswap");
    }

    #[test]
    fn action_accessors() {
        let op = MitigationAction::RowOperation {
            bank: 3,
            kind: RowOpKind::Swap,
            duration_ns: 2_700,
            activations: vec![1, 2],
        };
        assert_eq!(op.bank(), 3);
        assert_eq!(op.activation_count(), 2);
        let pin = MitigationAction::PinRow { bank: 1, row: 9 };
        assert_eq!(pin.bank(), 1);
        assert_eq!(pin.activation_count(), 0);
    }
}
