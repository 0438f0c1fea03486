//! Physical addresses and their mapping onto DRAM geometry.
//!
//! The mapper uses the interleaving typical of USIMM-style configurations:
//! the cache-line offset occupies the lowest bits, followed by channel,
//! bank, column (line-within-row), then row — so consecutive cache lines
//! stripe across channels, and consecutive rows of a bank are far apart in
//! the physical address space.

use crate::config::DramConfig;
use crate::error::DramError;

/// A physical byte address as seen by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Create a physical address from a raw byte address.
    #[must_use]
    pub fn new(addr: u64) -> Self {
        Self(addr)
    }

    /// The raw byte address.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// The address of the cache line containing this byte, for a given line size.
    #[must_use]
    pub fn line_aligned(self, line_size: u64) -> Self {
        Self(self.0 / line_size * line_size)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

impl From<PhysAddr> for u64 {
    fn from(a: PhysAddr) -> Self {
        a.0
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A row index within one bank.
pub type RowId = u64;

/// A global bank identifier, flattening channel, rank and bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId(usize);

impl BankId {
    /// Create a global bank id from a flat index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// Flat index of this bank across the whole memory system.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for BankId {
    fn from(v: usize) -> Self {
        Self(v)
    }
}

impl std::fmt::Display for BankId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// A fully decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramAddress {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: RowId,
    /// Column (cache-line index within the row).
    pub column: u64,
}

impl DramAddress {
    /// The global bank id for this coordinate under the given configuration.
    #[must_use]
    pub fn bank_id(&self, config: &DramConfig) -> BankId {
        let per_channel = config.ranks_per_channel * config.banks_per_rank;
        BankId::new(self.channel * per_channel + self.rank * config.banks_per_rank + self.bank)
    }
}

/// A divisor with a precomputed power-of-two fast path.
///
/// Address decoding runs twice per simulated memory operation, and every
/// realistic DRAM geometry (Table III included) is a power of two in all
/// dimensions — a shift-and-mask beats the div/mod chain by an order of
/// magnitude. Non-power-of-two geometries keep the exact div/mod semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PowDiv {
    divisor: u64,
    shift: u32,
    pow2: bool,
}

impl PowDiv {
    pub(crate) fn new(divisor: u64) -> Self {
        Self { divisor, shift: divisor.trailing_zeros(), pow2: divisor.is_power_of_two() }
    }

    #[inline]
    pub(crate) fn div(self, v: u64) -> u64 {
        if self.pow2 {
            v >> self.shift
        } else {
            v / self.divisor
        }
    }

    #[inline]
    pub(crate) fn rem(self, v: u64) -> u64 {
        if self.pow2 {
            v & (self.divisor - 1)
        } else {
            v % self.divisor
        }
    }

    #[inline]
    pub(crate) fn divisor(self) -> u64 {
        self.divisor
    }
}

/// Maps physical addresses to DRAM coordinates and back.
///
/// Bit layout, from least significant to most significant:
/// `line offset | column | channel | bank (within rank) | rank | row`
/// — USIMM's default row-interleaved scheme, in which a contiguous 8 KB
/// region of the physical address space maps onto a single DRAM row of a
/// single bank. This is the mapping the paper's hot-row behaviour (and the
/// Row Hammer attack surface) assumes.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressMapper {
    config: DramConfig,
    line: PowDiv,
    lines_per_row: PowDiv,
    channels: PowDiv,
    banks_per_rank: PowDiv,
    ranks_per_channel: PowDiv,
    rows_per_bank: PowDiv,
    banks_per_channel: PowDiv,
}

impl AddressMapper {
    /// Create a mapper for the given configuration.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        Self {
            line: PowDiv::new(config.line_size_bytes),
            lines_per_row: PowDiv::new(config.lines_per_row()),
            channels: PowDiv::new(config.channels as u64),
            banks_per_rank: PowDiv::new(config.banks_per_rank as u64),
            ranks_per_channel: PowDiv::new(config.ranks_per_channel as u64),
            rows_per_bank: PowDiv::new(config.rows_per_bank),
            banks_per_channel: PowDiv::new(
                (config.ranks_per_channel * config.banks_per_rank) as u64,
            ),
            config,
        }
    }

    /// The configuration this mapper was built from.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Decode a physical address into its DRAM coordinate.
    ///
    /// Addresses beyond the configured capacity wrap around, which mirrors
    /// the behaviour of address-interleaving hardware when fed a truncated
    /// address and keeps synthetic trace generation simple.
    #[must_use]
    pub fn decode(&self, addr: PhysAddr) -> DramAddress {
        let mut v = self.line.div(addr.value());
        let column = self.lines_per_row.rem(v);
        v = self.lines_per_row.div(v);
        let channel = self.channels.rem(v) as usize;
        v = self.channels.div(v);
        let bank = self.banks_per_rank.rem(v) as usize;
        v = self.banks_per_rank.div(v);
        let rank = self.ranks_per_channel.rem(v) as usize;
        v = self.ranks_per_channel.div(v);
        let row = self.rows_per_bank.rem(v);
        DramAddress { channel, rank, bank, row, column }
    }

    /// Encode a DRAM coordinate back into a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] or [`DramError::BankOutOfRange`]
    /// if the coordinate does not fit the configured geometry.
    pub fn encode(&self, addr: &DramAddress) -> Result<PhysAddr, DramError> {
        let c = &self.config;
        if addr.row >= c.rows_per_bank {
            return Err(DramError::RowOutOfRange { row: addr.row, rows_per_bank: c.rows_per_bank });
        }
        if addr.channel >= c.channels
            || addr.rank >= c.ranks_per_channel
            || addr.bank >= c.banks_per_rank
        {
            return Err(DramError::BankOutOfRange {
                bank: addr.bank_id(c).index(),
                total_banks: c.total_banks(),
            });
        }
        let mut v = addr.row;
        v = v * c.ranks_per_channel as u64 + addr.rank as u64;
        v = v * c.banks_per_rank as u64 + addr.bank as u64;
        v = v * c.channels as u64 + addr.channel as u64;
        v = v * self.lines_per_row.divisor() + self.lines_per_row.rem(addr.column);
        Ok(PhysAddr::new(v * c.line_size_bytes))
    }

    /// Convenience: the (global bank, row) pair a physical address maps to.
    #[must_use]
    pub fn bank_and_row(&self, addr: PhysAddr) -> (BankId, RowId) {
        let d = self.decode(addr);
        (d.bank_id(&self.config), d.row)
    }

    /// Build the physical address of the first line of `row` in global `bank`.
    ///
    /// # Errors
    ///
    /// Returns an error if `bank` or `row` are out of range.
    pub fn address_of(&self, bank: BankId, row: RowId) -> Result<PhysAddr, DramError> {
        let c = &self.config;
        let total = c.total_banks();
        if bank.index() >= total {
            return Err(DramError::BankOutOfRange { bank: bank.index(), total_banks: total });
        }
        let index = bank.index() as u64;
        let channel = self.banks_per_channel.div(index) as usize;
        let within = self.banks_per_channel.rem(index);
        let rank = self.banks_per_rank.div(within) as usize;
        let bank_in_rank = self.banks_per_rank.rem(within) as usize;
        self.encode(&DramAddress { channel, rank, bank: bank_in_rank, row, column: 0 })
    }

    /// The channel global `bank` belongs to.
    #[inline]
    pub(crate) fn channel_of(&self, bank: BankId) -> usize {
        self.banks_per_channel.div(bank.index() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramConfig::default())
    }

    #[test]
    fn decode_encode_round_trip() {
        let m = mapper();
        for raw in [0u64, 64, 4096, 1 << 20, (1 << 34) + 8192, 0xdead_bee0] {
            let a = PhysAddr::new(raw).line_aligned(64);
            let d = m.decode(a);
            let back = m.encode(&d).unwrap();
            assert_eq!(m.decode(back), d, "raw = {raw:#x}");
        }
    }

    #[test]
    fn consecutive_lines_stay_within_one_row() {
        let m = mapper();
        let a = m.decode(PhysAddr::new(0));
        let b = m.decode(PhysAddr::new(64));
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn row_sized_regions_switch_channel_or_bank() {
        // An 8 KB contiguous region is exactly one DRAM row; the next region
        // lands in a different channel (or bank) per the interleaving order.
        let m = mapper();
        let cfg = DramConfig::default();
        let a = m.decode(PhysAddr::new(0));
        let b = m.decode(PhysAddr::new(cfg.row_size_bytes));
        assert_ne!((a.channel, a.bank, a.row), (b.channel, b.bank, b.row));
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    fn address_of_maps_back_to_same_bank_row() {
        let m = mapper();
        let bank = BankId::new(17);
        let row = 77_777;
        let addr = m.address_of(bank, row).unwrap();
        let (b, r) = m.bank_and_row(addr);
        assert_eq!(b, bank);
        assert_eq!(r, row);
    }

    #[test]
    fn address_of_rejects_bad_bank() {
        let m = mapper();
        let total = DramConfig::default().total_banks();
        assert!(m.address_of(BankId::new(total), 0).is_err());
    }

    #[test]
    fn encode_rejects_bad_row() {
        let m = mapper();
        let bad = DramAddress { channel: 0, rank: 0, bank: 0, row: u64::MAX, column: 0 };
        assert!(matches!(m.encode(&bad), Err(DramError::RowOutOfRange { .. })));
    }

    #[test]
    fn bank_id_is_dense_and_unique() {
        let cfg = DramConfig::default();
        let mut seen = std::collections::HashSet::new();
        for ch in 0..cfg.channels {
            for rk in 0..cfg.ranks_per_channel {
                for bk in 0..cfg.banks_per_rank {
                    let d = DramAddress { channel: ch, rank: rk, bank: bk, row: 0, column: 0 };
                    let id = d.bank_id(&cfg).index();
                    assert!(id < cfg.total_banks());
                    assert!(seen.insert(id), "duplicate bank id {id}");
                }
            }
        }
        assert_eq!(seen.len(), cfg.total_banks());
    }

    #[test]
    fn phys_addr_display_is_hex() {
        assert_eq!(PhysAddr::new(255).to_string(), "0xff");
    }
}
