//! Memory requests, completions, activation events and maintenance operations.

use crate::address::{BankId, PhysAddr, RowId};
use crate::Nanos;

/// Identifier handed back when a request is enqueued, used to match
/// completions to requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Whether a demand access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read (load miss or fetch miss).
    Read,
    /// A demand write (dirty writeback).
    Write,
}

/// A demand memory request issued by the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Physical address of the access (line-aligned by the controller).
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// The core that generated the request (for per-core statistics).
    pub core: usize,
    /// Time at which the request arrived at the memory controller.
    pub arrival_ns: Nanos,
    /// The row address *as issued by the system*, before any row-swap
    /// defense remapped it to a different chip location. Carried through so
    /// the [`ActivationEvent`] stream can report activations in the address
    /// space the aggressor trackers reason about. `None` when the issuer
    /// performs no remapping.
    pub logical_row: Option<RowId>,
    /// Opaque completion token of the agent waiting on this access, carried
    /// through the controller and handed back with the [`CompletedAccess`].
    /// `None` when nothing waits (writes, prefetches). Riding inside the
    /// request keeps the issuer from needing a side table keyed by
    /// [`RequestId`] on the per-access hot path.
    pub wait_token: Option<u64>,
}

impl MemRequest {
    /// Create a new demand request.
    #[must_use]
    pub fn new(addr: PhysAddr, kind: AccessKind, core: usize, arrival_ns: Nanos) -> Self {
        Self { addr, kind, core, arrival_ns, logical_row: None, wait_token: None }
    }

    /// Tag the request with the pre-remap (logical) row address.
    #[must_use]
    pub fn with_logical_row(mut self, row: RowId) -> Self {
        self.logical_row = Some(row);
        self
    }

    /// Attach the issuing agent's completion token.
    #[must_use]
    pub fn with_wait_token(mut self, token: u64) -> Self {
        self.wait_token = Some(token);
        self
    }
}

/// A completed demand access, reported by [`crate::MemoryController::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedAccess {
    /// The identifier returned by `enqueue`.
    pub request_id: RequestId,
    /// The request that completed.
    pub request: MemRequest,
    /// Completion time.
    pub finish_ns: Nanos,
    /// Whether the access hit in an open row buffer.
    pub row_hit: bool,
}

impl CompletedAccess {
    /// End-to-end latency of the access, from arrival to completion.
    #[must_use]
    pub fn latency_ns(&self) -> Nanos {
        self.finish_ns.saturating_sub(self.request.arrival_ns)
    }
}

/// One row activation (`ACT`) observed at a bank.
///
/// These events are the raw material of Row Hammer accounting: the aggressor
/// trackers count them and the attack models reason about them. Activations
/// caused by mitigation operations (swap, unswap, place-back) are flagged so
/// the latent-activation analysis of the Juggernaut attack can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationEvent {
    /// Global bank the activation occurred in.
    pub bank: BankId,
    /// The physical row (chip location) that was activated.
    pub row: RowId,
    /// The row address as issued by the system (equal to [`Self::row`] when
    /// the request carried no remap tag, and for maintenance activations,
    /// which operate directly on chip locations).
    pub logical_row: RowId,
    /// Time of the activation.
    pub at_ns: Nanos,
    /// `true` if the activation was issued on behalf of a maintenance
    /// (mitigation) operation rather than a demand access.
    pub maintenance: bool,
    /// The kind of maintenance operation that issued this activation, or
    /// `None` for demand activations. Lets observers separate row-movement
    /// activations (the latent-activation channel of the Juggernaut attack)
    /// from counter-table traffic, whose rows live in a reserved region.
    pub maintenance_kind: Option<MaintenanceKind>,
}

/// A maintenance operation requested by a Row Hammer mitigation.
///
/// The controller executes maintenance with priority over demand requests of
/// the same bank: it blocks the bank for `duration_ns` and logs one
/// [`ActivationEvent`] per entry of `activations`. The set of activations is
/// decided by the mitigation — this is exactly where the *latent activations*
/// exploited by the Juggernaut attack enter the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceOp {
    /// Bank the operation occupies.
    pub bank: BankId,
    /// Total bank-occupancy time of the operation.
    pub duration_ns: Nanos,
    /// Physical rows activated while performing the operation.
    pub activations: Vec<RowId>,
    /// Human-readable label (`"swap"`, `"unswap-swap"`, `"place-back"`, ...),
    /// used only for statistics.
    pub label: MaintenanceKind,
}

/// The kind of maintenance operation, for statistics and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MaintenanceKind {
    /// An initial swap of two rows.
    Swap,
    /// An unswap of a previously swapped pair followed by a fresh swap (RRS).
    UnswapSwap,
    /// A lazy place-back (SRS/Scale-SRS eviction of a stale RIT entry).
    PlaceBack,
    /// An access to a counter row holding per-row swap-tracking counters.
    CounterAccess,
    /// Any other mitigation-initiated bank occupancy.
    Other,
}

impl std::fmt::Display for MaintenanceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MaintenanceKind::Swap => "swap",
            MaintenanceKind::UnswapSwap => "unswap-swap",
            MaintenanceKind::PlaceBack => "place-back",
            MaintenanceKind::CounterAccess => "counter-access",
            MaintenanceKind::Other => "other",
        };
        f.write_str(s)
    }
}

impl MaintenanceOp {
    /// Create a new maintenance operation.
    #[must_use]
    pub fn new(
        bank: BankId,
        duration_ns: Nanos,
        activations: Vec<RowId>,
        label: MaintenanceKind,
    ) -> Self {
        Self { bank, duration_ns, activations, label }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_access_latency() {
        let req = MemRequest::new(PhysAddr::new(64), AccessKind::Read, 0, 100);
        let done = CompletedAccess {
            request_id: RequestId(1),
            request: req,
            finish_ns: 160,
            row_hit: false,
        };
        assert_eq!(done.latency_ns(), 60);
    }

    #[test]
    fn latency_saturates_rather_than_underflows() {
        let req = MemRequest::new(PhysAddr::new(64), AccessKind::Write, 0, 500);
        let done = CompletedAccess {
            request_id: RequestId(2),
            request: req,
            finish_ns: 400,
            row_hit: true,
        };
        assert_eq!(done.latency_ns(), 0);
    }

    #[test]
    fn maintenance_kind_display() {
        assert_eq!(MaintenanceKind::UnswapSwap.to_string(), "unswap-swap");
        assert_eq!(MaintenanceKind::Swap.to_string(), "swap");
    }

    #[test]
    fn request_id_display() {
        assert_eq!(RequestId(42).to_string(), "req42");
    }
}
