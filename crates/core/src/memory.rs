//! Main memory: master and slave storage modules behind the MBus.
//!
//! The original Firefly packaged main memory "as one master four-megabyte
//! module, and up to three slave modules of the same size"; the CVAX
//! version uses 32 MB modules up to 128 MB. The modules share one port on
//! the MBus and supply read data during cycle 4 of a transaction unless a
//! cache asserts `MShared` and supplies the data itself.
//!
//! Storage is sparse (page-granular) so a full 128 MB machine costs only
//! what the workload touches. Uninitialized memory reads as zero, which
//! keeps simulations deterministic.

use crate::addr::{Addr, LineId};
use crate::cache::LineData;
use crate::error::Error;
use crate::fault::EccInjector;
use crate::snapshot::{SnapReader, SnapWriter};
use std::collections::HashMap;
use std::fmt;

/// Words per allocation page of the sparse store (4 KB pages).
const PAGE_WORDS: usize = 1024;

/// The Firefly main-memory system.
///
/// # Examples
///
/// ```
/// use firefly_core::memory::Memory;
/// use firefly_core::Addr;
///
/// let mut mem = Memory::new(16 << 20);
/// let a = Addr::new(0x1000);
/// assert_eq!(mem.read_word(a), 0, "uninitialized memory reads as zero");
/// mem.write_word(a, 0xdead_beef);
/// assert_eq!(mem.read_word(a), 0xdead_beef);
/// ```
#[derive(Clone)]
pub struct Memory {
    bytes: u64,
    module_bytes: u64,
    pages: HashMap<u32, Box<[u32; PAGE_WORDS]>>,
    reads: u64,
    writes: u64,
    /// Per-module (reads, writes) — module 0 is the master.
    module_traffic: Vec<(u64, u64)>,
    /// Memory ECC fault model; `None` when injection is disabled.
    ecc: Option<EccInjector>,
}

impl Memory {
    /// Creates a memory of `bytes` bytes in 4 MB (MicroVAX-style)
    /// modules.
    pub fn new(bytes: u64) -> Self {
        Memory::with_modules(bytes, 4 << 20)
    }

    /// Creates a memory of `bytes` bytes in modules of `module_bytes`
    /// ("one master four-megabyte module, and up to three slave modules"
    /// on the original machine; 32 MB modules on the CVAX).
    ///
    /// # Panics
    ///
    /// Panics if `module_bytes` is zero.
    pub fn with_modules(bytes: u64, module_bytes: u64) -> Self {
        assert!(module_bytes > 0, "modules must have nonzero size");
        let modules = bytes.div_ceil(module_bytes).max(1) as usize;
        Memory {
            bytes,
            module_bytes,
            pages: HashMap::new(),
            reads: 0,
            writes: 0,
            module_traffic: vec![(0, 0); modules],
            ecc: None,
        }
    }

    /// Installs the memory-side ECC fault model (see [`crate::fault`]).
    /// A `None` injector (both ECC rates zero) leaves reads untouched.
    pub fn install_ecc(&mut self, ecc: Option<EccInjector>) {
        self.ecc = ecc;
    }

    /// Single-bit ECC events corrected in flight.
    pub fn ecc_corrected(&self) -> u64 {
        self.ecc.as_ref().map_or(0, EccInjector::corrected)
    }

    /// Double-bit ECC events detected but not correctable.
    pub fn ecc_uncorrected(&self) -> u64 {
        self.ecc.as_ref().map_or(0, EccInjector::uncorrected)
    }

    /// Scrubber rewrites performed after corrected events.
    pub fn ecc_scrubs(&self) -> u64 {
        self.ecc.as_ref().map_or(0, EccInjector::scrubs)
    }

    /// Takes the accumulated [`Error::EccUncorrectable`] records.
    pub fn drain_ecc_errors(&mut self) -> Vec<Error> {
        self.ecc.as_mut().map_or_else(Vec::new, EccInjector::drain_errors)
    }

    /// Number of storage modules.
    pub fn modules(&self) -> usize {
        self.module_traffic.len()
    }

    /// Which module services `addr` (module 0 is the master).
    pub fn module_of(&self, addr: Addr) -> usize {
        ((u64::from(addr.byte()) / self.module_bytes) as usize).min(self.modules() - 1)
    }

    /// Word (reads, writes) serviced by module `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn module_traffic(&self, i: usize) -> (u64, u64) {
        self.module_traffic[i]
    }

    /// Installed capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes
    }

    /// Whether `addr` falls within installed memory.
    pub fn contains(&self, addr: Addr) -> bool {
        u64::from(addr.byte()) < self.bytes
    }

    /// Validates that `addr` is installed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] when the address is beyond
    /// installed memory.
    pub fn check(&self, addr: Addr) -> Result<(), Error> {
        if self.contains(addr) {
            Ok(())
        } else {
            Err(Error::AddressOutOfRange { addr, memory_bytes: self.bytes })
        }
    }

    /// Reads the 32-bit word containing `addr`, filtered through the ECC
    /// fault model when one is installed.
    pub fn read_word(&mut self, addr: Addr) -> u32 {
        self.reads += 1;
        let module = self.module_of(addr);
        self.module_traffic[module].0 += 1;
        let w = addr.word_index();
        let word = match self.pages.get(&(w / PAGE_WORDS as u32)) {
            Some(page) => page[w as usize % PAGE_WORDS],
            None => 0,
        };
        match &mut self.ecc {
            Some(ecc) => ecc.apply(addr, word),
            None => word,
        }
    }

    /// Reads a word without counting it as bus traffic (for checkers and
    /// debug introspection).
    pub fn peek_word(&self, addr: Addr) -> u32 {
        let w = addr.word_index();
        match self.pages.get(&(w / PAGE_WORDS as u32)) {
            Some(page) => page[w as usize % PAGE_WORDS],
            None => 0,
        }
    }

    /// Writes the 32-bit word containing `addr`.
    pub fn write_word(&mut self, addr: Addr, value: u32) {
        self.writes += 1;
        let module = self.module_of(addr);
        self.module_traffic[module].1 += 1;
        let w = addr.word_index();
        let page =
            self.pages.entry(w / PAGE_WORDS as u32).or_insert_with(|| Box::new([0u32; PAGE_WORDS]));
        page[w as usize % PAGE_WORDS] = value;
    }

    /// Reads a whole cache line.
    ///
    /// Lines are size-aligned and pages are a power-of-two multiple of
    /// every line size, so the whole line lives in one page: the page
    /// map is probed once and the words copied out in a batch, with the
    /// traffic counters and per-word ECC draws applied in exactly the
    /// order the word-at-a-time path would have.
    pub fn read_line(&mut self, line: LineId, line_words: usize) -> LineData {
        let base = line.base_addr(line_words);
        let w0 = base.word_index();
        let slot = w0 as usize % PAGE_WORDS;
        if slot + line_words > PAGE_WORDS {
            // Unaligned straddle (impossible for real geometries; keep
            // the slow path for robustness).
            let mut data = LineData::zeroed(line_words);
            for i in 0..line_words {
                data.set(i, self.read_word(base.add_words(i as u32)));
            }
            return data;
        }
        self.reads += line_words as u64;
        let mut data = LineData::zeroed(line_words);
        let page = self.pages.get(&(w0 / PAGE_WORDS as u32));
        let (module_bytes, modules) = (self.module_bytes, self.module_traffic.len());
        for i in 0..line_words {
            let addr = base.add_words(i as u32);
            let module = ((u64::from(addr.byte()) / module_bytes) as usize).min(modules - 1);
            self.module_traffic[module].0 += 1;
            let word = page.map_or(0, |p| p[slot + i]);
            data.set(
                i,
                match &mut self.ecc {
                    Some(ecc) => ecc.apply(addr, word),
                    None => word,
                },
            );
        }
        data
    }

    /// Writes a whole cache line (batched like
    /// [`read_line`](Memory::read_line): one page-map probe per line).
    pub fn write_line(&mut self, line: LineId, data: &LineData) {
        let line_words = data.len();
        let base = line.base_addr(line_words);
        let w0 = base.word_index();
        let slot = w0 as usize % PAGE_WORDS;
        if slot + line_words > PAGE_WORDS {
            for i in 0..line_words {
                self.write_word(base.add_words(i as u32), data.get(i));
            }
            return;
        }
        self.writes += line_words as u64;
        let (module_bytes, modules) = (self.module_bytes, self.module_traffic.len());
        let page = self
            .pages
            .entry(w0 / PAGE_WORDS as u32)
            .or_insert_with(|| Box::new([0u32; PAGE_WORDS]));
        for i in 0..line_words {
            let addr = base.add_words(i as u32);
            let module = ((u64::from(addr.byte()) / module_bytes) as usize).min(modules - 1);
            self.module_traffic[module].1 += 1;
            page[slot + i] = data.get(i);
        }
    }

    /// Word reads serviced (for bandwidth accounting).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Word writes serviced.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of 4 KB pages actually materialized.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.u64(self.bytes);
        w.u64(self.module_bytes);
        w.u64(self.reads);
        w.u64(self.writes);
        w.usize(self.module_traffic.len());
        for &(r, wr) in &self.module_traffic {
            w.u64(r);
            w.u64(wr);
        }
        // Sparse image, pages sorted by index so the encoding is canonical
        // (save → restore → save must be byte-identical).
        let mut keys: Vec<u32> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            w.u32(k);
            // Bulk word batch: byte-identical to the per-word encoding.
            w.u32_words(&self.pages[&k][..]);
        }
        match &self.ecc {
            None => w.bool(false),
            Some(ecc) => {
                w.bool(true);
                ecc.save_state(w);
            }
        }
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), Error> {
        let (bytes, module_bytes) = (r.u64()?, r.u64()?);
        if bytes != self.bytes || module_bytes != self.module_bytes {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot memory geometry {bytes}/{module_bytes} does not match \
                 configured {}/{}",
                self.bytes, self.module_bytes
            )));
        }
        self.reads = r.u64()?;
        self.writes = r.u64()?;
        let modules = r.usize()?;
        if modules != self.module_traffic.len() {
            return Err(Error::SnapshotCorrupt(format!(
                "snapshot has {modules} memory modules, system has {}",
                self.module_traffic.len()
            )));
        }
        for t in &mut self.module_traffic {
            *t = (r.u64()?, r.u64()?);
        }
        let n_pages = r.usize()?;
        self.pages.clear();
        for _ in 0..n_pages {
            let key = r.u32()?;
            let mut page = Box::new([0u32; PAGE_WORDS]);
            r.u32_words_into(&mut page[..])?;
            if self.pages.insert(key, page).is_some() {
                return Err(Error::SnapshotCorrupt(format!("duplicate memory page {key}")));
            }
        }
        let has_ecc = r.bool()?;
        if has_ecc != self.ecc.is_some() {
            return Err(Error::SnapshotCorrupt(
                "snapshot ECC-injector presence does not match the fault plan".into(),
            ));
        }
        if let Some(ecc) = &mut self.ecc {
            ecc.load_state(r)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("capacity_mb", &(self.bytes >> 20))
            .field("resident_pages", &self.pages.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let mut m = Memory::new(1 << 20);
        assert_eq!(m.read_word(Addr::new(0xf000)), 0);
    }

    #[test]
    fn word_roundtrip_and_isolation() {
        let mut m = Memory::new(1 << 20);
        m.write_word(Addr::new(0x100), 7);
        m.write_word(Addr::new(0x104), 8);
        assert_eq!(m.read_word(Addr::new(0x100)), 7);
        assert_eq!(m.read_word(Addr::new(0x104)), 8);
        assert_eq!(m.read_word(Addr::new(0x108)), 0);
    }

    #[test]
    fn line_roundtrip_multiword() {
        let mut m = Memory::new(1 << 20);
        let line = LineId::containing(Addr::new(0x2000), 4);
        let mut d = LineData::zeroed(4);
        for i in 0..4 {
            d.set(i, (i as u32 + 1) * 11);
        }
        m.write_line(line, &d);
        assert_eq!(m.read_line(line, 4), d);
        assert_eq!(m.read_word(Addr::new(0x2004)), 22);
    }

    #[test]
    fn bounds_checking() {
        let m = Memory::new(16 << 20);
        assert!(m.check(Addr::new((16 << 20) - 4)).is_ok());
        assert!(matches!(m.check(Addr::new(16 << 20)), Err(Error::AddressOutOfRange { .. })));
    }

    #[test]
    fn sparse_residency() {
        let mut m = Memory::new(128 << 20);
        assert_eq!(m.resident_pages(), 0);
        m.write_word(Addr::new(0), 1);
        m.write_word(Addr::new(64 << 20), 1);
        assert_eq!(m.resident_pages(), 2, "only touched pages materialize");
    }

    #[test]
    fn modules_partition_the_address_space() {
        // A 16 MB MicroVAX memory: master + three 4 MB slaves.
        let m = Memory::new(16 << 20);
        assert_eq!(m.modules(), 4);
        assert_eq!(m.module_of(Addr::new(0)), 0);
        assert_eq!(m.module_of(Addr::new((4 << 20) - 4)), 0);
        assert_eq!(m.module_of(Addr::new(4 << 20)), 1);
        assert_eq!(m.module_of(Addr::new((16 << 20) - 4)), 3);
        // CVAX-style 32 MB modules.
        let m = Memory::with_modules(128 << 20, 32 << 20);
        assert_eq!(m.modules(), 4);
        assert_eq!(m.module_of(Addr::new(64 << 20)), 2);
    }

    #[test]
    fn module_traffic_attributed() {
        let mut m = Memory::new(16 << 20);
        m.write_word(Addr::new(0x100), 1); // master
        m.write_word(Addr::new(5 << 20), 2); // slave 1
        let _ = m.read_word(Addr::new(5 << 20));
        assert_eq!(m.module_traffic(0), (0, 1));
        assert_eq!(m.module_traffic(1), (1, 1));
        assert_eq!(m.module_traffic(2), (0, 0));
    }

    #[test]
    fn ecc_injection_hooks_into_reads() {
        use crate::fault::{EccInjector, FaultConfig, PPM};
        let mut m = Memory::new(1 << 20);
        m.write_word(Addr::new(0x40), 0x1234);
        let cfg = FaultConfig { seed: 1, ecc_single_ppm: PPM, ..FaultConfig::default() };
        m.install_ecc(EccInjector::from_config(&cfg));
        assert_eq!(m.read_word(Addr::new(0x40)), 0x1234, "single-bit events are corrected");
        assert_eq!(m.ecc_corrected(), 1);
        assert_eq!(m.ecc_scrubs(), 1);
        assert!(m.drain_ecc_errors().is_empty());

        let cfg = FaultConfig { seed: 1, ecc_double_ppm: PPM, ..FaultConfig::default() };
        m.install_ecc(EccInjector::from_config(&cfg));
        assert_ne!(m.read_word(Addr::new(0x40)), 0x1234, "double-bit events corrupt the word");
        assert_eq!(m.ecc_uncorrected(), 1);
        assert_eq!(m.drain_ecc_errors().len(), 1);
        assert_eq!(m.peek_word(Addr::new(0x40)), 0x1234, "the stored cell is untouched");
    }

    #[test]
    fn counters_track_traffic() {
        let mut m = Memory::new(1 << 20);
        m.write_word(Addr::new(0), 1);
        let _ = m.read_word(Addr::new(0));
        let _ = m.read_word(Addr::new(4));
        assert_eq!(m.write_count(), 1);
        assert_eq!(m.read_count(), 2);
    }
}
