//! End-to-end fault injection: seeded DRAM bit flips, ECC, and the
//! integrity report.
//!
//! The security layer ([`crate::security`]) states its verdicts in terms of
//! the TRH-crossing *proxy*: a row whose disturbance pressure reaches `TRH`
//! in one refresh window is "hammered". This module models the causal chain
//! the proxy elides, end to end:
//!
//! 1. **Flips** — once a row's window pressure reaches `TRH`, further
//!    disturbance flips concrete bits. The first crossing flips
//!    deterministically; beyond it each disturbance flips with probability
//!    `min(1, excess / TRH)` drawn from a stateless seeded hash, so every
//!    run (and every engine, and every fork) makes identical decisions.
//! 2. **Damage travels** — flips land on the row *physically* at the blast
//!    site but are stored under the **logical** row occupying that location
//!    at flip time ([`srs_dram::DamageStore`]), so a defense swapping the
//!    victim away carries the damage with the data.
//! 3. **ECC** — each demand read of a damaged line is decoded under the
//!    configured [`EccKind`]: corrected, detected-but-uncorrectable, or
//!    silently corrupted. Writes overwrite (heal) the line. An optional
//!    scrub pass walks the store on a simulated-time cadence and removes
//!    what the code can correct.
//!
//! The layer is purely observational — it adds no latency or traffic and
//! only ever *reads* simulation state — so enabling it cannot perturb
//! performance or security results. Its product is the
//! [`IntegrityReport`] on [`crate::metrics::SimResult`].

use srs_dram::{
    AccessKind, AddressMapper, DamageStore, DramConfig, EccKind, EccOutcome, MemRequest,
};

use crate::json::{obj, Json, ToJson};

/// Configuration of the fault-injection layer (the `"faults"` block of a
/// spec file). Disabled by default; the layer only runs on attacked cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultsConfig {
    /// Whether bit-flip injection and ECC decode are active.
    pub enabled: bool,
    /// The error-correcting code protecting the modelled DRAM.
    pub ecc: EccKind,
    /// Simulated-ns cadence of the patrol scrubber; 0 disables scrubbing.
    pub scrub_interval_ns: u64,
}

impl FaultsConfig {
    /// The default configuration with injection enabled.
    #[must_use]
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// Decode a `"faults"` configuration block.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field if a present field has
    /// the wrong type; absent fields keep their defaults.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let mut config = Self::default();
        let Some(fields) = json.as_object() else {
            return Err("faults config must be an object".to_string());
        };
        for (key, value) in fields {
            match key.as_str() {
                "enabled" => {
                    config.enabled = value.as_bool().ok_or("faults.enabled must be a boolean")?;
                }
                "ecc" => {
                    config.ecc = value
                        .as_str()
                        .and_then(EccKind::from_label)
                        .ok_or("faults.ecc must be one of none/secded/chipkill-lite")?;
                }
                "scrub_interval_ns" => {
                    config.scrub_interval_ns =
                        value.as_u64().ok_or("faults.scrub_interval_ns must be an integer")?;
                }
                other => return Err(format!("unknown faults field '{other}'")),
            }
        }
        Ok(config)
    }
}

impl ToJson for FaultsConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("enabled", self.enabled.into()),
            ("ecc", Json::from(self.ecc.label())),
            ("scrub_interval_ns", self.scrub_interval_ns.into()),
        ])
    }
}

/// A bit flip decided at disturbance time but not yet attributed to its
/// logical row (the occupant lookup happens once the controller borrow of
/// the tick ends).
#[derive(Debug, Clone, Copy)]
struct PendingFlip {
    bank: usize,
    physical_row: u64,
    bit: u32,
    at_ns: u64,
}

/// The stateless seeded mixer every flip decision draws from (splitmix64's
/// finalizer: deterministic, well-spread, no RNG stream to snapshot).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The live fault-injection engine of one attacked run: decides flips from
/// the disturbance-pressure stream, tracks row damage, and decodes reads
/// under the configured ECC.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    ecc: EccKind,
    t_rh: u64,
    seed: u64,
    scrub_interval_ns: u64,
    next_scrub_ns: u64,
    mapper: AddressMapper,
    row_bits: u64,
    store: DamageStore,
    pending: Vec<PendingFlip>,
    bit_flips_injected: u64,
    corrupted_reads: u64,
    detected_uncorrectable: u64,
    corrected_reads: u64,
    scrub_saves: u64,
    first_flip_ns: Option<u64>,
    first_corruption_ns: Option<u64>,
}

impl FaultInjector {
    /// An injector for one run: `t_rh` drives the flip probability, `seed`
    /// the per-flip draws (salted so the fault stream is independent of the
    /// workload and mitigation streams derived from the same spec seed).
    #[must_use]
    pub fn new(config: &FaultsConfig, dram: &DramConfig, t_rh: u64, seed: u64) -> Self {
        let scrub = config.scrub_interval_ns;
        Self {
            ecc: config.ecc,
            t_rh: t_rh.max(1),
            seed: seed ^ 0xFA17_FA17_FA17_FA17,
            scrub_interval_ns: scrub,
            next_scrub_ns: if scrub == 0 { u64::MAX } else { scrub },
            mapper: AddressMapper::new(dram.clone()),
            row_bits: (dram.row_size_bytes * 8).max(1),
            store: DamageStore::new(dram.line_size_bytes),
            pending: Vec::new(),
            bit_flips_injected: 0,
            corrupted_reads: 0,
            detected_uncorrectable: 0,
            corrected_reads: 0,
            scrub_saves: 0,
            first_flip_ns: None,
            first_corruption_ns: None,
        }
    }

    /// Feed one disturbance of a physical row whose window pressure has
    /// just reached `total`. Called by the security tracker for every
    /// neighbor of every charged activation; decides whether this
    /// particular disturbance flips a bit.
    ///
    /// The crossing event itself (`total == TRH`) flips deterministically —
    /// `TRH` is *defined* as the disturbance count at which a cell flips.
    /// Past it, each further disturbance flips with probability
    /// `min(1, excess / TRH)` from a stateless seeded draw, so sustained
    /// over-threshold hammering accumulates damage at a rate growing with
    /// the overshoot. Integer-only; no RNG stream state.
    #[inline]
    pub fn on_disturb(&mut self, bank: usize, physical_row: u64, total: u64, at_ns: u64) {
        if total < self.t_rh {
            return;
        }
        let draw = mix64(self.seed ^ mix64((bank as u64) << 40 | physical_row) ^ total);
        if total > self.t_rh {
            let excess = total - self.t_rh;
            if draw % self.t_rh >= excess.min(self.t_rh) {
                return;
            }
        }
        let bit = u32::try_from(mix64(draw) % self.row_bits).unwrap_or(0);
        self.pending.push(PendingFlip { bank, physical_row, bit, at_ns });
    }

    /// Whether any flip decided this tick still awaits attribution.
    #[inline]
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Attribute every pending flip to the logical row currently occupying
    /// its blast site (`occupant` is the defense's inverse row mapping) and
    /// commit it to the damage store. Returns the newly flipped
    /// `(bank, logical_row)` pairs for telemetry; re-flips of already-bad
    /// cells are absorbed.
    pub fn commit_pending(&mut self, occupant: impl Fn(usize, u64) -> u64) -> Vec<(usize, u64)> {
        let pending = std::mem::take(&mut self.pending);
        let mut committed = Vec::with_capacity(pending.len());
        for flip in pending {
            let logical = occupant(flip.bank, flip.physical_row);
            if self.store.add_flip(flip.bank, logical, flip.bit) {
                self.bit_flips_injected += 1;
                if self.first_flip_ns.is_none() {
                    self.first_flip_ns = Some(flip.at_ns);
                }
                committed.push((flip.bank, logical));
            }
        }
        committed
    }

    /// Decode one completed demand access against the damage store: reads
    /// of a damaged line classify under the ECC, writes overwrite (heal)
    /// the line. Returns the global bank and serving outcome for a read of
    /// damaged data, `None` for clean reads and all writes.
    pub fn on_access(&mut self, request: &MemRequest, at_ns: u64) -> Option<(usize, EccOutcome)> {
        if self.store.is_empty() {
            return None;
        }
        let decoded = self.mapper.decode(request.addr);
        let bank = decoded.bank_id(self.mapper.config()).index();
        // The request address is the post-remap (physical) one; the logical
        // row rides alongside, which is exactly the damage-store key.
        let row = request.logical_row.unwrap_or(decoded.row);
        let line = decoded.column;
        if request.kind == AccessKind::Write {
            self.store.clear_line(bank, row, line);
            return None;
        }
        let flips = self.store.line_flips(bank, row, line);
        if flips.is_empty() {
            return None;
        }
        let outcome = DamageStore::classify_line(self.ecc, &flips);
        match outcome {
            EccOutcome::Clean => return None,
            EccOutcome::Corrected => self.corrected_reads += 1,
            EccOutcome::DetectedUncorrectable => self.detected_uncorrectable += 1,
            EccOutcome::Silent => {
                self.corrupted_reads += 1;
                if self.first_corruption_ns.is_none() {
                    self.first_corruption_ns = Some(at_ns);
                }
            }
        }
        Some((bank, outcome))
    }

    /// The next scrub deadline, for the event engine's candidate set
    /// (`None` when scrubbing is off).
    #[inline]
    #[must_use]
    pub fn next_scrub_ns(&self) -> Option<u64> {
        (self.scrub_interval_ns > 0).then_some(self.next_scrub_ns)
    }

    /// Run every scrub pass due at `now`: correctable damage is repaired
    /// (counted as scrub saves), detected-but-uncorrectable damage is
    /// counted and left in place, silent damage is invisible to the
    /// scrubber.
    pub fn maybe_scrub(&mut self, now: u64) {
        while self.scrub_interval_ns > 0 && now >= self.next_scrub_ns {
            let (corrected, detected) = self.store.scrub(self.ecc);
            self.scrub_saves += corrected;
            self.detected_uncorrectable += detected;
            self.next_scrub_ns += self.scrub_interval_ns;
        }
    }

    /// Silently corrupted reads served so far.
    #[must_use]
    pub fn corrupted_reads(&self) -> u64 {
        self.corrupted_reads
    }

    /// Bit flips committed so far.
    #[must_use]
    pub fn bit_flips_injected(&self) -> u64 {
        self.bit_flips_injected
    }

    /// Freeze the injector into its report.
    #[must_use]
    pub fn into_report(self) -> IntegrityReport {
        IntegrityReport {
            ecc: self.ecc.label().to_string(),
            bit_flips_injected: self.bit_flips_injected,
            rows_damaged: self.store.damaged_rows() as u64,
            corrupted_reads: self.corrupted_reads,
            detected_uncorrectable: self.detected_uncorrectable,
            corrected_reads: self.corrected_reads,
            scrub_saves: self.scrub_saves,
            first_flip_ns: self.first_flip_ns,
            first_corruption_ns: self.first_corruption_ns,
        }
    }
}

/// Data-integrity metrics of one fault-injected run: what actually happened
/// to memory contents, as opposed to the TRH-crossing proxy of
/// [`crate::security::SecurityReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityReport {
    /// The ECC the run modelled ([`EccKind::label`]).
    pub ecc: String,
    /// Distinct bits flipped by disturbance over the run.
    pub bit_flips_injected: u64,
    /// Logical rows still carrying damage when the run ended.
    pub rows_damaged: u64,
    /// Demand reads that served silently corrupted data — the end-to-end
    /// security failure the defenses exist to prevent.
    pub corrupted_reads: u64,
    /// Damaged reads (plus scrub passes) the ECC detected but could not
    /// correct: a machine-check, not silent corruption.
    pub detected_uncorrectable: u64,
    /// Damaged reads the ECC fully corrected.
    pub corrected_reads: u64,
    /// Damaged lines the patrol scrubber repaired before any read saw them.
    pub scrub_saves: u64,
    /// Simulated time of the first committed bit flip, if any.
    pub first_flip_ns: Option<u64>,
    /// Simulated time of the first silently corrupted read, if any.
    pub first_corruption_ns: Option<u64>,
}

impl ToJson for IntegrityReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("ecc", Json::from(self.ecc.as_str())),
            ("bit_flips_injected", self.bit_flips_injected.into()),
            ("rows_damaged", self.rows_damaged.into()),
            ("corrupted_reads", self.corrupted_reads.into()),
            ("detected_uncorrectable", self.detected_uncorrectable.into()),
            ("corrected_reads", self.corrected_reads.into()),
            ("scrub_saves", self.scrub_saves.into()),
            ("first_flip_ns", self.first_flip_ns.into()),
            ("first_corruption_ns", self.first_corruption_ns.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_dram::PhysAddr;

    fn injector(ecc: EccKind, t_rh: u64) -> FaultInjector {
        let config = FaultsConfig { enabled: true, ecc, scrub_interval_ns: 0 };
        FaultInjector::new(&config, &DramConfig::default(), t_rh, 0xC0DE)
    }

    #[test]
    fn config_decodes_tolerantly_and_round_trips() {
        let json = Json::parse(r#"{"enabled": true, "ecc": "chipkill-lite"}"#).unwrap();
        let config = FaultsConfig::from_json(&json).unwrap();
        assert!(config.enabled);
        assert_eq!(config.ecc, EccKind::ChipkillLite);
        assert_eq!(config.scrub_interval_ns, 0);
        let back = FaultsConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);
        assert!(FaultsConfig::from_json(&Json::parse(r#"{"ecc": "parity"}"#).unwrap()).is_err());
        assert!(FaultsConfig::from_json(&Json::parse(r#"{"scrub": 5}"#).unwrap()).is_err());
    }

    #[test]
    fn crossing_flips_deterministically_and_identically_across_clones() {
        let mut a = injector(EccKind::None, 100);
        let mut b = a.clone();
        for total in 1..=150u64 {
            a.on_disturb(3, 77, total, total * 10);
            b.on_disturb(3, 77, total, total * 10);
        }
        let fa = a.commit_pending(|_, row| row);
        let fb = b.commit_pending(|_, row| row);
        assert_eq!(fa, fb, "clones make identical flip decisions");
        assert!(a.bit_flips_injected() >= 1, "the crossing event itself must flip");
        assert_eq!(a.into_report(), b.into_report());
    }

    #[test]
    fn sub_threshold_pressure_never_flips() {
        let mut f = injector(EccKind::None, 1_000);
        for total in 1..1_000u64 {
            f.on_disturb(0, 5, total, total);
        }
        assert!(!f.has_pending());
        assert_eq!(f.into_report().bit_flips_injected, 0);
    }

    #[test]
    fn far_past_threshold_every_disturbance_flips() {
        let mut f = injector(EccKind::None, 10);
        // total >= 2*TRH makes min(excess, TRH) == TRH: certain flip.
        for total in 20..40u64 {
            f.on_disturb(0, 5, total, total);
        }
        assert_eq!(f.pending.len(), 20, "every over-2x disturbance must flip");
        let committed = f.commit_pending(|_, row| row);
        // Commits dedup repeat flips of the same bit, so committed <= 20.
        assert!(!committed.is_empty());
        assert_eq!(f.bit_flips_injected(), committed.len() as u64);
    }

    #[test]
    fn damage_lands_on_the_occupant_at_flip_time() {
        let mut f = injector(EccKind::None, 10);
        f.on_disturb(0, 64, 10, 500);
        // The defense swapped logical row 9000 into physical location 64.
        let committed = f.commit_pending(|_, _| 9_000);
        assert_eq!(committed, vec![(0, 9_000)]);
        let report = f.into_report();
        assert_eq!(report.rows_damaged, 1);
        assert_eq!(report.first_flip_ns, Some(500));
    }

    #[test]
    fn reads_classify_and_writes_heal() {
        let dram = DramConfig::default();
        let mapper = AddressMapper::new(dram.clone());
        let mut f = injector(EccKind::None, 10);
        f.on_disturb(0, 64, 10, 100);
        let committed = f.commit_pending(|_, row| row);
        let (bank, row) = committed[0];
        // Read every line of the damaged row: exactly the damaged line
        // serves corrupted data under no-ECC.
        let mut outcomes = 0;
        for line in 0..dram.lines_per_row() {
            let base = mapper.address_of(srs_dram::BankId::new(bank), row).unwrap().value()
                + line * dram.line_size_bytes;
            let request = MemRequest::new(PhysAddr::new(base), AccessKind::Read, 0, 200)
                .with_logical_row(row);
            if let Some((_, outcome)) = f.on_access(&request, 200) {
                assert_eq!(outcome, EccOutcome::Silent);
                outcomes += 1;
                // A write to the same line heals it.
                let write = MemRequest::new(PhysAddr::new(base), AccessKind::Write, 0, 300)
                    .with_logical_row(row);
                assert!(f.on_access(&write, 300).is_none());
                let reread = MemRequest::new(PhysAddr::new(base), AccessKind::Read, 0, 400)
                    .with_logical_row(row);
                assert!(f.on_access(&reread, 400).is_none(), "write healed the line");
            }
        }
        assert_eq!(outcomes, 1);
        let report = f.into_report();
        assert_eq!(report.corrupted_reads, 1);
        assert_eq!(report.first_corruption_ns, Some(200));
        assert_eq!(report.rows_damaged, 0, "the healing write emptied the store");
    }

    #[test]
    fn secded_corrects_a_single_flip() {
        let dram = DramConfig::default();
        let mapper = AddressMapper::new(dram.clone());
        let mut f = injector(EccKind::Secded, 10);
        f.on_disturb(0, 64, 10, 100);
        let (bank, row) = f.commit_pending(|_, row| row)[0];
        let mut corrected = 0;
        for line in 0..dram.lines_per_row() {
            let base = mapper.address_of(srs_dram::BankId::new(bank), row).unwrap().value()
                + line * dram.line_size_bytes;
            let request = MemRequest::new(PhysAddr::new(base), AccessKind::Read, 0, 200)
                .with_logical_row(row);
            if let Some((_, outcome)) = f.on_access(&request, 200) {
                assert_eq!(outcome, EccOutcome::Corrected);
                corrected += 1;
            }
        }
        assert_eq!(corrected, 1);
        let report = f.into_report();
        assert_eq!(report.corrupted_reads, 0);
        assert_eq!(report.corrected_reads, 1);
        assert_eq!(report.first_corruption_ns, None);
    }

    #[test]
    fn scrub_repairs_correctable_damage_on_cadence() {
        let config = FaultsConfig { enabled: true, ecc: EccKind::Secded, scrub_interval_ns: 1_000 };
        let mut f = FaultInjector::new(&config, &DramConfig::default(), 10, 1);
        f.on_disturb(0, 64, 10, 100);
        f.commit_pending(|_, row| row);
        assert_eq!(f.next_scrub_ns(), Some(1_000));
        f.maybe_scrub(999);
        assert_eq!(f.into_report().scrub_saves, 0);

        let mut f = FaultInjector::new(&config, &DramConfig::default(), 10, 1);
        f.on_disturb(0, 64, 10, 100);
        f.commit_pending(|_, row| row);
        f.maybe_scrub(2_500);
        assert_eq!(f.next_scrub_ns(), Some(3_000), "both elapsed deadlines ran");
        let report = f.into_report();
        assert_eq!(report.scrub_saves, 1, "a single-bit row is scrubbed clean");
        assert_eq!(report.rows_damaged, 0);
    }
}
