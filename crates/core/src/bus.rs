//! The MBus: the Firefly's shared memory bus.
//!
//! Figure 4 of the paper fixes the timing this module reproduces:
//!
//! ```text
//! cycle 1   arbitration; winner places address + operation
//! cycle 2   write data driven (MWrite); all other caches probe tags
//! cycle 3   caches holding the line assert the wired-OR MShared
//! cycle 4   read data transferred — from memory, unless MShared was
//!           asserted, in which case the holding caches supply it and
//!           memory is inhibited
//! ```
//!
//! "There are only two operations, MRead and MWrite. Each requires four
//! 100 ns bus cycles." — one 4-byte transfer per 400 ns is the 10 MB/s
//! aggregate bandwidth quoted in §5. The paper's hardware arbitrates
//! with fixed priority ("the caches have fixed priority for access to
//! the MBus"), lowest [`PortId`] first; here the discipline is
//! pluggable ([`crate::arbiter`]) and the bus can optionally pipeline
//! two transactions at a two-cycle offset ([`BusMode::Split`]).
//!
//! This module owns the *mechanics*: requests, grants, phases, the event
//! log that the Figure 4 reproduction prints. Protocol glue (snooping and
//! state changes) lives in [`crate::system`].

use crate::addr::{LineId, PortId};
use crate::arbiter::{ArbiterKind, ArbiterPolicy, BusMode};
use crate::cache::LineData;
use crate::error::Error;
use crate::protocol::BusOp;
use crate::snapshot::{SnapReader, SnapWriter};
use crate::stats::BusStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Data carried by a bus transaction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Payload {
    /// No data (reads, invalidates).
    None,
    /// One word at a word offset within the line (write-throughs, updates).
    Word {
        /// Word offset within the line.
        offset: u8,
        /// The written value.
        value: u32,
    },
    /// A whole line (victim write-backs; one-word-line write-throughs).
    Line(LineData),
}

/// Where the read data of a transaction came from.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DataSource {
    /// No data returned (writes, invalidates).
    NotApplicable,
    /// Main memory supplied the data.
    Memory,
    /// A cache supplied the data; memory was inhibited.
    Cache(PortId),
}

impl Payload {
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        match self {
            Payload::None => w.u8(0),
            Payload::Word { offset, value } => {
                w.u8(1);
                w.u8(*offset);
                w.u32(*value);
            }
            Payload::Line(d) => {
                w.u8(2);
                d.save(w);
            }
        }
    }

    pub(crate) fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => Payload::None,
            1 => Payload::Word { offset: r.u8()?, value: r.u32()? },
            2 => Payload::Line(LineData::load(r)?),
            t => return Err(Error::SnapshotCorrupt(format!("invalid Payload tag {t}"))),
        })
    }
}

impl DataSource {
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        match self {
            DataSource::NotApplicable => w.u8(0),
            DataSource::Memory => w.u8(1),
            DataSource::Cache(p) => {
                w.u8(2);
                w.u8(p.index() as u8);
            }
        }
    }

    pub(crate) fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(match r.u8()? {
            0 => DataSource::NotApplicable,
            1 => DataSource::Memory,
            2 => DataSource::Cache(PortId::from_snap(r.u8()?)?),
            t => return Err(Error::SnapshotCorrupt(format!("invalid DataSource tag {t}"))),
        })
    }
}

/// An in-flight bus transaction.
#[derive(Clone, Debug)]
pub struct Transaction {
    /// The port that won arbitration.
    pub initiator: PortId,
    /// The operation.
    pub op: BusOp,
    /// The line addressed.
    pub line: LineId,
    /// Data driven by the initiator.
    pub payload: Payload,
    /// Cycles completed so far (1 after the arbitration cycle).
    pub cycles_done: u8,
    /// The wired-OR `MShared` response (valid after cycle 3).
    pub mshared: bool,
}

impl Transaction {
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.u8(self.initiator.index() as u8);
        w.u8(self.op.snap_tag());
        w.u32(self.line.raw());
        self.payload.save(w);
        w.u8(self.cycles_done);
        w.bool(self.mshared);
    }

    pub(crate) fn load(r: &mut SnapReader<'_>) -> Result<Self, Error> {
        Ok(Transaction {
            initiator: PortId::from_snap(r.u8()?)?,
            op: BusOp::from_snap_tag(r.u8()?)?,
            line: LineId::from_raw(r.u32()?),
            payload: Payload::load(r)?,
            cycles_done: r.u8()?,
            mshared: r.bool()?,
        })
    }
}

/// A completed transaction, as recorded in the bus event log.
///
/// Contains everything needed to draw the Figure 4 timing diagram.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TransactionRecord {
    /// Bus cycle in which arbitration for this transaction occurred.
    pub start_cycle: u64,
    /// The initiating port.
    pub initiator: PortId,
    /// The operation.
    pub op: BusOp,
    /// The line addressed.
    pub line: LineId,
    /// Whether `MShared` was asserted in cycle 3.
    pub mshared: bool,
    /// Who supplied read data in cycle 4.
    pub source: DataSource,
}

impl TransactionRecord {
    /// Renders this transaction as a per-cycle signal trace in the style
    /// of Figure 4 of the paper.
    pub fn timing_diagram(&self) -> String {
        let c = self.start_cycle;
        let mut out = String::new();
        out.push_str(&format!(
            "{} {} by {} (cycles {}..{})\n",
            self.op.mbus_name(),
            self.line,
            self.initiator,
            c,
            c + 3
        ));
        out.push_str(&format!(
            "  cycle {:>6}: arbitrate; {} drives address {}\n",
            c, self.initiator, self.line
        ));
        let data_note = if self.op.carries_data() { "initiator drives write data; " } else { "" };
        out.push_str(&format!(
            "  cycle {:>6}: {}other caches probe tag stores\n",
            c + 1,
            data_note
        ));
        out.push_str(&format!(
            "  cycle {:>6}: MShared {}\n",
            c + 2,
            if self.mshared { "ASSERTED" } else { "not asserted" }
        ));
        let xfer = match self.source {
            DataSource::NotApplicable => "no read data".to_string(),
            DataSource::Memory => "memory supplies read data".to_string(),
            DataSource::Cache(p) => format!("cache {p} supplies read data; memory inhibited"),
        };
        out.push_str(&format!("  cycle {:>6}: {xfer}\n", c + 3));
        out
    }
}

/// Renders a sequence of transactions as an ASCII waveform in the style
/// of Figure 4: one row per bus signal, one column per 100 ns cycle.
///
/// ```text
/// cycle    0123456789
/// op       MReaMWri
/// MADDR    A___A___
/// MDATA    ...R.W..
/// MSHARED  __*_____
/// ```
///
/// `A` marks the address cycle, `W`/`R` the write-data and read-data
/// cycles, `*` an asserted `MShared`.
pub fn waveform(records: &[TransactionRecord]) -> String {
    if records.is_empty() {
        return String::from("(no transactions)\n");
    }
    // The log is normally in start order, but callers may pass merged or
    // reordered records (e.g. reconstructed from an event stream), so the
    // window must span the min..max rather than trusting records[0].
    let start = records.iter().map(|r| r.start_cycle).min().expect("nonempty");
    let end = records.iter().map(|r| r.start_cycle + 4).max().expect("nonempty");
    let width = (end - start) as usize;
    let mut addr = vec![b'_'; width];
    let mut data = vec![b'.'; width];
    let mut shared = vec![b'_'; width];
    let mut ops = vec![b' '; width];
    for r in records {
        let o = (r.start_cycle - start) as usize;
        addr[o] = b'A';
        if r.op.carries_data() {
            data[o + 1] = b'W';
        }
        if r.mshared {
            shared[o + 2] = b'*';
        }
        if r.op.returns_data() {
            data[o + 3] = b'R';
        }
        let name = r.op.mbus_name().as_bytes();
        for (i, &c) in name.iter().take(4).enumerate() {
            ops[o + i] = c;
        }
    }
    let line = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let mut ruler = String::new();
    for c in 0..width {
        ruler.push(char::from_digit(((start as usize + c) % 10) as u32, 10).expect("digit"));
    }
    format!(
        "cycle    {ruler}\nop       {}\nMADDR    {}\nMDATA    {}\nMSHARED  {}\n",
        line(&ops),
        line(&addr),
        line(&data),
        line(&shared),
    )
}

/// In split-transaction mode a younger transaction's address phase may
/// start once every older transaction has cleared its address and
/// write-data cycles — an offset of two bus cycles, sustaining one
/// transaction per two cycles at saturation.
pub const SPLIT_OFFSET_CYCLES: u64 = 2;

/// The MBus: request lines, a pluggable arbitration policy, one (or, in
/// split mode, two pipelined) transaction(s) at a time, statistics, and
/// an optional event log.
///
/// # Examples
///
/// ```
/// use firefly_core::bus::{Bus, Payload};
/// use firefly_core::protocol::BusOp;
/// use firefly_core::{LineId, PortId};
///
/// let mut bus = Bus::new(4, false);
/// bus.request(PortId::new(2), 0);
/// bus.request(PortId::new(1), 0);
/// // Default fixed priority: the lower port wins arbitration.
/// assert_eq!(bus.arbitrate(0), Some(PortId::new(1)));
/// ```
#[derive(Debug)]
pub struct Bus {
    /// Per-port request lines; `Some(cycle)` holds the raise cycle.
    requests: Vec<Option<u64>>,
    /// In-flight transactions, oldest first. At most one in
    /// [`BusMode::Unified`], at most two in [`BusMode::Split`].
    slots: Vec<Transaction>,
    mode: BusMode,
    arbiter: Box<dyn ArbiterPolicy>,
    stats: BusStats,
    log: Option<Vec<TransactionRecord>>,
}

impl Clone for Bus {
    fn clone(&self) -> Self {
        Bus {
            requests: self.requests.clone(),
            slots: self.slots.clone(),
            mode: self.mode,
            arbiter: self.arbiter.clone_box(),
            stats: self.stats,
            log: self.log.clone(),
        }
    }
}

impl Bus {
    /// Creates a bus with `ports` request lines; `trace` enables the
    /// event log. Uses the paper's fixed-priority arbiter and the
    /// unified (serialized) bus.
    pub fn new(ports: usize, trace: bool) -> Self {
        Bus::with_config(ports, trace, ArbiterKind::FixedPriority, BusMode::Unified)
    }

    /// Creates a bus with an explicit arbitration policy and transaction
    /// mode.
    pub fn with_config(ports: usize, trace: bool, arbiter: ArbiterKind, mode: BusMode) -> Self {
        Bus {
            requests: vec![None; ports],
            slots: Vec::with_capacity(mode.max_in_flight()),
            mode,
            arbiter: arbiter.build(),
            stats: BusStats::default(),
            log: if trace { Some(Vec::new()) } else { None },
        }
    }

    /// Raises `port`'s bus request line at cycle `now`. Idempotent: a
    /// line that is already raised keeps its original raise cycle, so
    /// re-requesting cannot jump the FCFS/aging queue.
    pub fn request(&mut self, port: PortId, now: u64) {
        let slot = &mut self.requests[port.index()];
        if slot.is_none() {
            *slot = Some(now);
        }
    }

    /// Drops `port`'s request line.
    pub fn cancel_request(&mut self, port: PortId) {
        self.requests[port.index()] = None;
    }

    /// Whether any port is requesting.
    #[inline]
    pub fn has_requests(&self) -> bool {
        self.requests.iter().any(Option::is_some)
    }

    /// Whether any transaction is in flight.
    #[inline]
    pub fn is_busy(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The oldest in-flight transaction, if any.
    pub fn current(&self) -> Option<&Transaction> {
        self.slots.first()
    }

    /// All in-flight transactions, oldest first.
    pub fn slots(&self) -> &[Transaction] {
        &self.slots
    }

    /// How many transactions are on the wires.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// The configured transaction mode.
    pub fn mode(&self) -> BusMode {
        self.mode
    }

    /// The configured arbitration policy.
    pub fn arbiter_kind(&self) -> ArbiterKind {
        self.arbiter.kind()
    }

    /// The policy's worst-case grant delay bound, if it gives one (see
    /// [`ArbiterKind::grant_bound`]).
    pub fn grant_bound(&self) -> Option<u64> {
        self.arbiter.kind().grant_bound(self.requests.len())
    }

    /// Whether a new transaction may be granted this cycle: a slot is
    /// free and (split mode) every in-flight transaction has cleared its
    /// address and write-data phases.
    pub fn can_grant(&self) -> bool {
        self.slots.len() < self.mode.max_in_flight()
            && self.slots.iter().all(|t| u64::from(t.cycles_done) >= SPLIT_OFFSET_CYCLES)
    }

    /// Picks the winning requester under the configured policy without
    /// starting a transaction. Returns `None` when nobody is requesting.
    pub fn arbitrate(&self, now: u64) -> Option<PortId> {
        self.arbiter.pick(&self.requests, now)
    }

    /// Starts a transaction for `initiator`, clearing its request line.
    ///
    /// # Panics
    ///
    /// Panics if the bus cannot accept a grant this cycle (unified: a
    /// transaction is already in flight; split: both slots occupied or
    /// the younger transaction has not cleared its address/data phases).
    pub fn begin(&mut self, initiator: PortId, op: BusOp, line: LineId, payload: Payload) {
        assert!(self.can_grant(), "bus already busy");
        self.requests[initiator.index()] = None;
        self.arbiter.note_grant(initiator);
        match op {
            BusOp::Read => self.stats.reads += 1,
            BusOp::ReadOwned => self.stats.read_owned += 1,
            BusOp::Write => self.stats.writes += 1,
            BusOp::WriteBack => self.stats.write_backs += 1,
            BusOp::Update => self.stats.updates += 1,
            BusOp::Invalidate => self.stats.invalidates += 1,
            BusOp::Renew => self.stats.renewals += 1,
        }
        self.slots.push(Transaction {
            initiator,
            op,
            line,
            payload,
            cycles_done: 0,
            mshared: false,
        });
    }

    /// Advances every in-flight transaction by one cycle; returns the
    /// oldest transaction when its fourth cycle completes. The grant
    /// offset guarantees at most one completion per cycle.
    ///
    /// The caller (the system) performs each transaction's snoop in its
    /// cycle 2 and feeds the `MShared` result via
    /// [`set_mshared_slot`](Bus::set_mshared_slot) before it completes.
    pub fn tick(&mut self) -> Option<Transaction> {
        if self.slots.is_empty() {
            return None;
        }
        self.stats.busy_cycles += 1;
        for txn in &mut self.slots {
            txn.cycles_done += 1;
        }
        if u64::from(self.slots[0].cycles_done) == crate::BUS_CYCLES_PER_OP {
            debug_assert!(
                self.slots
                    .iter()
                    .skip(1)
                    .all(|t| u64::from(t.cycles_done) < crate::BUS_CYCLES_PER_OP),
                "grant offset must serialize completions"
            );
            return Some(self.slots.remove(0));
        }
        None
    }

    /// Guaranteed-busy cycles left: how many more [`tick`](Bus::tick)
    /// calls the bus will spend with a transaction on the wires, given
    /// no new grants. Zero when idle.
    #[inline]
    pub fn busy_remaining(&self) -> u64 {
        self.slots
            .iter()
            .map(|t| crate::BUS_CYCLES_PER_OP - u64::from(t.cycles_done))
            .max()
            .unwrap_or(0)
    }

    /// Accounts one elapsed bus cycle (busy or idle).
    pub fn count_cycle(&mut self) {
        self.stats.total_cycles += 1;
    }

    /// Accounts `n` elapsed idle cycles in one add — the batched form of
    /// `n` [`count_cycle`](Bus::count_cycle) calls, used by the
    /// event-driven engine when it skips an idle span.
    ///
    /// # Panics
    ///
    /// Panics if the total-cycle counter would overflow. Debug builds
    /// additionally assert the bus really is idle (no transaction in
    /// flight, no request lines raised).
    #[inline]
    pub fn add_idle_cycles(&mut self, n: u64) {
        debug_assert!(!self.is_busy() && !self.has_requests(), "add_idle_cycles on a non-idle bus");
        self.stats.total_cycles =
            self.stats.total_cycles.checked_add(n).expect("bus cycle counter overflow");
    }

    /// Sets the wired-OR `MShared` response for the oldest in-flight
    /// transaction.
    pub fn set_mshared(&mut self, mshared: bool) {
        self.set_mshared_slot(0, mshared);
    }

    /// Sets the wired-OR `MShared` response for the in-flight
    /// transaction in `slot` (0 = oldest).
    pub fn set_mshared_slot(&mut self, slot: usize, mshared: bool) {
        if let Some(txn) = self.slots.get_mut(slot) {
            txn.mshared = mshared;
            if mshared {
                self.stats.mshared_asserted += 1;
            }
        }
    }

    /// Records a completed transaction in the statistics and event log.
    pub fn record_completion(&mut self, txn: &Transaction, start_cycle: u64, source: DataSource) {
        match source {
            DataSource::Cache(_) => self.stats.cache_supplied += 1,
            DataSource::Memory => self.stats.memory_supplied += 1,
            DataSource::NotApplicable => {}
        }
        if let Some(log) = &mut self.log {
            log.push(TransactionRecord {
                start_cycle,
                initiator: txn.initiator,
                op: txn.op,
                line: txn.line,
                mshared: txn.mshared,
                source,
            });
        }
    }

    /// The bus statistics so far.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// The event log (empty slice when tracing is disabled).
    pub fn log(&self) -> &[TransactionRecord] {
        self.log.as_deref().unwrap_or(&[])
    }

    /// Clears the event log (tracing setting unchanged).
    pub fn clear_log(&mut self) {
        if let Some(log) = &mut self.log {
            log.clear();
        }
    }

    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.usize(self.requests.len());
        for &req in &self.requests {
            match req {
                None => w.bool(false),
                Some(raised) => {
                    w.bool(true);
                    w.u64(raised);
                }
            }
        }
        w.usize(self.slots.len());
        for txn in &self.slots {
            txn.save(w);
        }
        self.arbiter.save_state(w);
        self.stats.save(w);
        match &self.log {
            None => w.bool(false),
            Some(log) => {
                w.bool(true);
                w.usize(log.len());
                for rec in log {
                    w.u64(rec.start_cycle);
                    w.u8(rec.initiator.index() as u8);
                    w.u8(rec.op.snap_tag());
                    w.u32(rec.line.raw());
                    w.bool(rec.mshared);
                    rec.source.save(w);
                }
            }
        }
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        let ports = r.usize()?;
        if ports != self.requests.len() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {ports} bus ports, system has {}",
                self.requests.len()
            )));
        }
        for req in &mut self.requests {
            *req = if r.bool()? { Some(r.u64()?) } else { None };
        }
        let in_flight = r.usize()?;
        if in_flight > self.mode.max_in_flight() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {in_flight} in-flight transactions, {} mode allows {}",
                self.mode.name(),
                self.mode.max_in_flight()
            )));
        }
        self.slots.clear();
        for _ in 0..in_flight {
            self.slots.push(Transaction::load(r)?);
        }
        self.arbiter.load_state(r)?;
        self.stats = BusStats::load_snap(r)?;
        let traced = r.bool()?;
        if traced != self.log.is_some() {
            return Err(Error::SnapshotCorrupt(
                "snapshot bus-trace setting does not match the configuration".into(),
            ));
        }
        if let Some(log) = &mut self.log {
            let n = r.usize()?;
            log.clear();
            log.reserve(n);
            for _ in 0..n {
                log.push(TransactionRecord {
                    start_cycle: r.u64()?,
                    initiator: PortId::from_snap(r.u8()?)?,
                    op: BusOp::from_snap_tag(r.u8()?)?,
                    line: LineId::from_raw(r.u32()?),
                    mshared: r.bool()?,
                    source: DataSource::load(r)?,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::None => f.write_str("-"),
            Payload::Word { offset, value } => write!(f, "w[{offset}]={value:#x}"),
            Payload::Line(d) => write!(f, "line {:x?}", d.as_slice()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_priority_arbitration() {
        let mut bus = Bus::new(8, false);
        assert_eq!(bus.arbitrate(0), None);
        bus.request(PortId::new(5), 0);
        bus.request(PortId::new(3), 2);
        bus.request(PortId::new(7), 1);
        assert_eq!(bus.arbitrate(3), Some(PortId::new(3)));
    }

    #[test]
    fn fcfs_bus_grants_oldest_request() {
        let mut bus = Bus::with_config(8, false, ArbiterKind::Fcfs, BusMode::Unified);
        bus.request(PortId::new(5), 0);
        bus.request(PortId::new(3), 2);
        assert_eq!(bus.arbitrate(3), Some(PortId::new(5)));
        // Re-raising an already-raised line must not refresh its age.
        bus.request(PortId::new(5), 9);
        assert_eq!(bus.arbitrate(9), Some(PortId::new(5)));
    }

    #[test]
    fn split_mode_pipelines_at_two_cycle_offset() {
        let mut bus = Bus::with_config(4, false, ArbiterKind::FixedPriority, BusMode::Split);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(1), Payload::None);
        assert!(!bus.can_grant(), "younger slot must wait out the address/data phases");
        assert!(bus.tick().is_none());
        assert!(!bus.can_grant());
        assert!(bus.tick().is_none());
        assert!(bus.can_grant(), "offset reached: a second transaction may start");
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(2), Payload::None);
        assert_eq!(bus.in_flight(), 2);
        assert!(!bus.can_grant(), "both slots occupied");
        assert!(bus.tick().is_none());
        let first = bus.tick().expect("oldest completes after its 4 cycles");
        assert_eq!(first.initiator, PortId::new(0));
        assert_eq!(bus.busy_remaining(), 2);
        assert!(bus.tick().is_none());
        let second = bus.tick().expect("pipelined follower completes 2 cycles later");
        assert_eq!(second.initiator, PortId::new(1));
        assert_eq!(bus.stats().busy_cycles, 6, "6 busy cycles for 2 overlapped 4-cycle ops");
        assert!(!bus.is_busy());
        assert_eq!(bus.busy_remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn split_mode_rejects_grant_before_offset() {
        let mut bus = Bus::with_config(4, false, ArbiterKind::FixedPriority, BusMode::Split);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(1), Payload::None);
        bus.tick();
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(2), Payload::None);
    }

    #[test]
    fn transaction_takes_exactly_four_cycles() {
        let mut bus = Bus::new(2, false);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(9), Payload::None);
        assert!(bus.tick().is_none());
        assert!(bus.tick().is_none());
        assert!(bus.tick().is_none());
        let done = bus.tick().expect("completes on the fourth cycle");
        assert_eq!(done.cycles_done, 4);
        assert!(!bus.is_busy());
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn one_transaction_at_a_time() {
        let mut bus = Bus::new(2, false);
        bus.begin(PortId::new(0), BusOp::Read, LineId::from_raw(1), Payload::None);
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(2), Payload::None);
    }

    #[test]
    fn begin_clears_request_line() {
        let mut bus = Bus::new(2, false);
        bus.request(PortId::new(1), 0);
        bus.begin(
            PortId::new(1),
            BusOp::Write,
            LineId::from_raw(1),
            Payload::Word { offset: 0, value: 1 },
        );
        assert!(!bus.has_requests());
    }

    #[test]
    fn stats_count_op_kinds() {
        let mut bus = Bus::new(2, false);
        for (op, _) in [(BusOp::Read, ()), (BusOp::Write, ()), (BusOp::WriteBack, ())] {
            bus.begin(PortId::new(0), op, LineId::from_raw(1), Payload::None);
            while bus.tick().is_none() {}
        }
        assert_eq!(bus.stats().reads, 1);
        assert_eq!(bus.stats().writes, 1);
        assert_eq!(bus.stats().write_backs, 1);
        assert_eq!(bus.stats().busy_cycles, 12);
    }

    #[test]
    fn log_records_when_enabled() {
        let mut bus = Bus::new(2, true);
        bus.begin(PortId::new(1), BusOp::Read, LineId::from_raw(4), Payload::None);
        bus.set_mshared(true);
        let mut txn = None;
        while txn.is_none() {
            txn = bus.tick();
        }
        bus.record_completion(&txn.unwrap(), 10, DataSource::Cache(PortId::new(0)));
        let log = bus.log();
        assert_eq!(log.len(), 1);
        assert!(log[0].mshared);
        assert_eq!(log[0].source, DataSource::Cache(PortId::new(0)));
        let diagram = log[0].timing_diagram();
        assert!(diagram.contains("MRead"));
        assert!(diagram.contains("MShared ASSERTED"));
        assert!(diagram.contains("memory inhibited"));
    }

    #[test]
    fn log_disabled_is_empty() {
        let bus = Bus::new(2, false);
        assert!(bus.log().is_empty());
    }

    #[test]
    fn waveform_renders_figure4_signals() {
        let recs = [
            TransactionRecord {
                start_cycle: 0,
                initiator: PortId::new(0),
                op: BusOp::Read,
                line: LineId::from_raw(1),
                mshared: true,
                source: DataSource::Cache(PortId::new(1)),
            },
            TransactionRecord {
                start_cycle: 4,
                initiator: PortId::new(1),
                op: BusOp::Write,
                line: LineId::from_raw(1),
                mshared: false,
                source: DataSource::NotApplicable,
            },
        ];
        let w = waveform(&recs);
        let lines: Vec<&str> = w.lines().collect();
        assert_eq!(lines.len(), 5);
        let maddr = lines[2].strip_prefix("MADDR    ").unwrap();
        assert_eq!(&maddr[0..1], "A", "address in cycle 1");
        assert_eq!(&maddr[4..5], "A", "back-to-back second op");
        let mdata = lines[3].strip_prefix("MDATA    ").unwrap();
        assert_eq!(&mdata[3..4], "R", "read data in cycle 4");
        assert_eq!(&mdata[5..6], "W", "write data in cycle 2 of op 2");
        let mshared = lines[4].strip_prefix("MSHARED  ").unwrap();
        assert_eq!(&mshared[2..3], "*", "MShared in cycle 3");
        assert_eq!(&mshared[6..7], "_", "not asserted for op 2");
    }

    #[test]
    fn waveform_accepts_out_of_order_records() {
        // Regression: the window start used to be records[0].start_cycle,
        // so a record earlier than the first entry underflowed the column
        // offset (debug panic, wild index in release).
        let recs = [
            TransactionRecord {
                start_cycle: 8,
                initiator: PortId::new(1),
                op: BusOp::Write,
                line: LineId::from_raw(2),
                mshared: false,
                source: DataSource::NotApplicable,
            },
            TransactionRecord {
                start_cycle: 0,
                initiator: PortId::new(0),
                op: BusOp::Read,
                line: LineId::from_raw(1),
                mshared: true,
                source: DataSource::Memory,
            },
        ];
        let w = waveform(&recs);
        let sorted = [recs[1], recs[0]];
        assert_eq!(w, waveform(&sorted), "order must not matter");
        let maddr = w.lines().nth(2).unwrap().strip_prefix("MADDR    ").unwrap();
        assert_eq!(&maddr[0..1], "A");
        assert_eq!(&maddr[8..9], "A");
    }

    #[test]
    fn waveform_empty() {
        assert!(waveform(&[]).contains("no transactions"));
    }

    #[test]
    fn mwrite_diagram_mentions_write_data() {
        let rec = TransactionRecord {
            start_cycle: 0,
            initiator: PortId::new(0),
            op: BusOp::Write,
            line: LineId::from_raw(1),
            mshared: false,
            source: DataSource::NotApplicable,
        };
        let d = rec.timing_diagram();
        assert!(d.contains("MWrite"));
        assert!(d.contains("write data"));
        assert!(d.contains("not asserted"));
    }
}
