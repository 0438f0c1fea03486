//! Streaming observers for memory-system events.
//!
//! Earlier revisions of the controller buffered every [`ActivationEvent`]
//! and [`CompletedAccess`] in `Vec`s that the simulation loop drained and
//! re-scanned each tick. At the activation rates a Row Hammer study
//! generates (every demand row miss plus every mitigation-induced row
//! movement), that buffer churn dominated the hot loop. The controller now
//! *pushes* each event into an observer the moment it is produced, so
//! trackers and defenses consume the stream in place with no intermediate
//! allocation; state that scales with traffic lives per bank
//! ([`crate::MemoryController`] keeps one completion queue per bank, the
//! simulator shards its activation accounting per bank).
//!
//! Implement [`ActivationSink`] to observe `ACT` commands and [`AccessSink`]
//! to observe demand completions. [`EventCollector`] is the Vec-backed
//! implementation for tests and offline analysis.

use crate::command::{ActivationEvent, CompletedAccess};

/// Observer of row activations (`ACT` commands), called synchronously by the
/// controller as each activation is issued.
pub trait ActivationSink {
    /// One row was activated.
    fn on_activation(&mut self, event: &ActivationEvent);

    /// A batch of row activations issued by one bank during one scheduling
    /// visit, in issue order.
    ///
    /// The controller's batched drain delivers activations through this
    /// method — one virtual call per bank per visit instead of one per
    /// event. The default forwards every event to
    /// [`ActivationSink::on_activation`], so existing sinks observe the
    /// identical per-event stream; hot-path sinks override it to hoist
    /// per-event dispatch and loop-invariant checks out of the inner loop.
    fn on_activation_batch(&mut self, events: &[ActivationEvent]) {
        for event in events {
            self.on_activation(event);
        }
    }
}

/// Observer of completed demand accesses, called by the controller as
/// simulated time passes each access's finish time.
pub trait AccessSink {
    /// One demand access completed.
    fn on_access(&mut self, access: &CompletedAccess);
}

/// A sink that records every event, for tests and offline analysis.
///
/// This reintroduces exactly the buffering the streaming interface removes
/// from the hot path — use it only where a materialized event list is the
/// point (assertions, trace dumps).
#[derive(Debug, Clone, Default)]
pub struct EventCollector {
    /// Every activation observed, in issue order.
    pub activations: Vec<ActivationEvent>,
    /// Every completion observed, in delivery order.
    pub completions: Vec<CompletedAccess>,
}

impl EventCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl ActivationSink for EventCollector {
    fn on_activation(&mut self, event: &ActivationEvent) {
        self.activations.push(*event);
    }

    fn on_activation_batch(&mut self, events: &[ActivationEvent]) {
        self.activations.extend_from_slice(events);
    }
}

impl AccessSink for EventCollector {
    fn on_access(&mut self, access: &CompletedAccess) {
        self.completions.push(*access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::BankId;
    use crate::command::{AccessKind, MemRequest, RequestId};
    use crate::PhysAddr;

    #[test]
    fn collector_records_both_event_kinds() {
        let mut collector = EventCollector::new();
        let event = ActivationEvent {
            bank: BankId::new(1),
            row: 7,
            logical_row: 9,
            at_ns: 5,
            maintenance: false,
            maintenance_kind: None,
        };
        collector.on_activation(&event);
        let access = CompletedAccess {
            request_id: RequestId(3),
            request: MemRequest::new(PhysAddr::new(64), AccessKind::Read, 0, 0),
            finish_ns: 99,
            row_hit: false,
        };
        collector.on_access(&access);
        assert_eq!(collector.activations, vec![event]);
        assert_eq!(collector.completions.len(), 1);
        assert_eq!(collector.completions[0].request_id, RequestId(3));
    }
}
