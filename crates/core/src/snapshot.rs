//! Versioned, dependency-free binary snapshots of simulator state.
//!
//! The Firefly was designed to keep running: Topaz survives processor
//! removal, and the paper's measurements were gathered over long runs.
//! This module gives the *simulator* the same durability. A snapshot
//! captures the complete machine state — cache tags/state/data, the bus
//! arbiter and any in-flight transaction, the sparse memory image, every
//! fault-injector RNG stream, the statistics counters and latency
//! histograms — so that a run checkpointed at cycle C and resumed is
//! bit-identical to the uninterrupted run.
//!
//! # Format
//!
//! ```text
//! magic    "FFSN" (4 bytes)
//! version  u32 LE                     — see [`SNAPSHOT_VERSION`]
//! count    u32 LE                     — number of sections
//! section* name (len-prefixed UTF-8), payload length u64 LE, payload
//! crc      u32 LE                     — CRC-32 (IEEE) of everything above
//! ```
//!
//! All integers are little-endian. Section payloads are written with
//! [`SnapWriter`] and read back with [`SnapReader`]; each subsystem owns
//! the layout of its section. The format is self-contained — the vendored
//! `serde` facade serializes but cannot parse, so nothing here depends on
//! it.
//!
//! # Why the RNG streams are serialized
//!
//! Fault injection draws from per-site deterministic generators whose
//! *position* in the stream is part of the machine state: re-seeding on
//! restore would replay or skip fault draws and break resume-equivalence.
//! Snapshots therefore record the raw xoshiro256++ words of every site.

use crate::error::Error;
use std::fmt;

/// The codec version this build writes and the only one it reads.
///
/// Version 2 added the arbitration policy and bus mode to the config
/// section, raise-cycle request lines and pipelined transaction slots to
/// the bus section, and the per-transaction context queue to the system
/// section. Version 3 added the Tardis timestamp state: renewal counters
/// in the bus and cache statistics, per-slot `wts`/`rts` words in each
/// cache section, and per-CPU program timestamps plus the global
/// per-line timestamp map in the system section. Version 4 added the
/// partition-tolerance state: the network fault plan's partition field
/// became a tagged window list, RPC clients gained circuit breakers, a
/// failure detector, per-server epochs and hedging state, and RPC
/// servers gained an epoch, brownout watermark and ack-below ledger.
pub const SNAPSHOT_VERSION: u32 = 4;

/// The four magic bytes at the start of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FFSN";

/// Builds the CRC-32 (IEEE 802.3, reflected) slice-by-8 lookup tables
/// at compile time. `table[0]` is the classic bytewise table; `table[k]`
/// advances a byte's contribution past `k` further zero bytes, so eight
/// lookups fold in eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut table = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = table[k - 1][i];
            table[k][i] = table[0][(c & 0xff) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    table
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, as used for the snapshot trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

fn corrupt(msg: impl Into<String>) -> Error {
    Error::SnapshotCorrupt(msg.into())
}

/// A little-endian binary writer for snapshot section payloads.
///
/// # Examples
///
/// ```
/// use firefly_core::snapshot::{SnapReader, SnapWriter};
///
/// let mut w = SnapWriter::new();
/// w.u32(7);
/// w.str("hello");
/// let bytes = w.into_bytes();
/// let mut r = SnapReader::new(&bytes);
/// assert_eq!(r.u32().unwrap(), 7);
/// assert_eq!(r.str().unwrap(), "hello");
/// ```
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f64` as its raw bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a slice of `u32` words, little-endian, with no length
    /// prefix: byte-identical to calling [`u32`](SnapWriter::u32) once
    /// per word, but reserved and copied as one batch. Used for the
    /// sparse memory image, whose pages dominate snapshot size.
    pub fn u32_words(&mut self, words: &[u32]) {
        self.buf.reserve(words.len() * 4);
        for &w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A checked little-endian reader over a snapshot section payload.
///
/// Every accessor returns [`Error::SnapshotCorrupt`] on truncation or an
/// out-of-range encoded value — a corrupt snapshot never panics.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            corrupt(format!("truncated: wanted {n} bytes at offset {}", self.pos))
        })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`].
    pub fn usize(&mut self) -> Result<usize, Error> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("length exceeds usize"))
    }

    /// Reads a `bool` (rejecting any byte other than 0 or 1).
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b:#x}"))),
        }
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Fills `out` with little-endian `u32` words written by
    /// [`SnapWriter::u32_words`] (or an equivalent per-word sequence):
    /// one bounds check for the whole batch.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] if fewer than `4 * out.len()` bytes
    /// remain.
    pub fn u32_words_into(&mut self, out: &mut [u32]) -> Result<(), Error> {
        let raw = self.take(out.len() * 4)?;
        for (dst, src) in out.iter_mut().zip(raw.chunks_exact(4)) {
            *dst = u32::from_le_bytes(src.try_into().expect("4 bytes"));
        }
        Ok(())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, Error> {
        std::str::from_utf8(self.bytes()?).map_err(|_| corrupt("invalid UTF-8 string"))
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`Error::SnapshotCorrupt`] unless the payload was
    /// consumed exactly.
    pub fn expect_end(&self) -> Result<(), Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing bytes in section", self.remaining())))
        }
    }
}

/// Assembles a snapshot container out of named sections.
///
/// # Examples
///
/// ```
/// use firefly_core::snapshot::{SnapWriter, SnapshotBuilder, SnapshotFile};
///
/// let mut payload = SnapWriter::new();
/// payload.u64(42);
/// let mut b = SnapshotBuilder::new();
/// b.section("answer", payload.into_bytes());
/// let bytes = b.finish();
/// let file = SnapshotFile::parse(&bytes).unwrap();
/// assert_eq!(file.section("answer").unwrap().u64().unwrap(), 42);
/// ```
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SnapshotBuilder { sections: Vec::new() }
    }

    /// Appends a named section. Order is preserved and significant for
    /// byte-identity (restored machines must re-save identically).
    pub fn section(&mut self, name: &str, payload: Vec<u8>) {
        self.sections.push((name.to_string(), payload));
    }

    /// Serializes the container: magic, version, sections, CRC trailer.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

/// A parsed snapshot container: named sections over borrowed bytes.
pub struct SnapshotFile<'a> {
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> SnapshotFile<'a> {
    /// Parses and validates a snapshot container.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] on bad magic, truncation, or checksum
    /// mismatch; [`Error::SnapshotVersion`] when the header version is
    /// not [`SNAPSHOT_VERSION`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, Error> {
        if bytes.len() < 12 + 4 {
            return Err(corrupt(format!("{} bytes is too short for a snapshot", bytes.len())));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(corrupt("CRC mismatch"));
        }
        let mut r = SnapReader::new(body);
        let magic = r.take(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(corrupt(format!("bad magic {magic:02x?}")));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(Error::SnapshotVersion { found: version, supported: SNAPSHOT_VERSION });
        }
        let count = r.u32()?;
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name_len = r.usize()?;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| corrupt("section name is not UTF-8"))?;
            let payload_len = r.usize()?;
            let payload = r.take(payload_len)?;
            sections.push((name, payload));
        }
        r.expect_end()?;
        Ok(SnapshotFile { sections })
    }

    /// A reader over the named section's payload.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] when the section is absent.
    pub fn section(&self, name: &str) -> Result<SnapReader<'a>, Error> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, payload)| SnapReader::new(payload))
            .ok_or_else(|| corrupt(format!("missing section {name:?}")))
    }

    /// Whether a section with this name is present.
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| *n == name)
    }

    /// Iterates over `(name, payload length)` in file order — the hook
    /// the text debug dumper in `firefly-trace` walks.
    pub fn sections(&self) -> impl Iterator<Item = (&'a str, usize)> + '_ {
        self.sections.iter().map(|&(n, p)| (n, p.len()))
    }
}

impl fmt::Debug for SnapshotFile<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotFile")
            .field(
                "sections",
                &self.sections.iter().map(|&(n, p)| (n, p.len())).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = SnapWriter::new();
        w.u8(0xab);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.usize(17);
        w.bool(true);
        w.bool(false);
        w.f64(-0.25);
        w.bytes(&[1, 2, 3]);
        w.str("snapshot");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 17);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), -0.25);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "snapshot");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = SnapReader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(r.bool(), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn container_roundtrip_and_order() {
        let mut b = SnapshotBuilder::new();
        b.section("alpha", vec![1, 2, 3]);
        b.section("beta", vec![]);
        let bytes = b.finish();
        let file = SnapshotFile::parse(&bytes).unwrap();
        let names: Vec<_> = file.sections().collect();
        assert_eq!(names, vec![("alpha", 3), ("beta", 0)]);
        assert!(file.has_section("beta"));
        assert!(!file.has_section("gamma"));
        assert!(matches!(file.section("gamma"), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = SnapshotBuilder::new().finish();
        bytes[0] = b'X';
        // Fix up the CRC so the magic check itself is exercised.
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(SnapshotFile::parse(&bytes), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn version_skew_rejected() {
        let mut bytes = SnapshotBuilder::new().finish();
        bytes[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        match SnapshotFile::parse(&bytes) {
            Err(Error::SnapshotVersion { found, supported }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected SnapshotVersion, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_fails_the_crc() {
        let mut b = SnapshotBuilder::new();
        b.section("s", vec![0u8; 64]);
        let mut bytes = b.finish();
        bytes[20] ^= 0x10;
        assert!(matches!(SnapshotFile::parse(&bytes), Err(Error::SnapshotCorrupt(_))));
    }

    #[test]
    fn truncated_container_rejected() {
        let bytes = SnapshotBuilder::new().finish();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotFile::parse(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix must not parse"
            );
        }
    }

    #[test]
    fn crc32_known_answer() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    /// The slice-by-8 CRC equals the bytewise table loop on every length
    /// class and at every start offset modulo 8.
    #[test]
    fn crc32_matches_the_bytewise_loop() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut c = 0xffff_ffffu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
            }
            !c
        }
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xc3c3);
        let data: Vec<u8> = (0..4096 + 8).map(|_| rng.gen::<u32>() as u8).collect();
        for offset in 0..8 {
            let mut lens: Vec<usize> = (0..40).map(|_| rng.gen_range(0..=4096)).collect();
            lens.extend([0, 1, 7, 8, 9, 4096]);
            for len in lens {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), bytewise(slice), "length {len} at offset {offset}");
            }
        }
    }
}
