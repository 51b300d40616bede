//! Snapshot persistence: a versioned, length-prefixed, checksummed
//! binary container for [`crate::materialize::Materialization`] state,
//! written atomically — the durability layer that makes the serving
//! layer ([`crate::server`]) restartable without re-evaluation.
//!
//! No external dependencies: the codec is a hand-rolled little-endian
//! writer/reader pair, the checksum is FNV-1a 64.
//!
//! # File format (version 5)
//!
//! All integers are little-endian. The file is one self-delimiting
//! container:
//!
//! | offset        | bytes | contents                                      |
//! |---------------|-------|-----------------------------------------------|
//! | `0`           | 8     | magic `b"SPROPMAT"`                           |
//! | `8`           | 4     | format version (`u32`, currently 5)           |
//! | `12`          | 8     | total file length (`u64`, magic → checksum)   |
//! | `20`          | n     | payload (below)                               |
//! | `len - 8`     | 8     | checksum of bytes `[0, len - 8)` (`fnv1a64`,
//!                           eight-lane interleaved FNV-1a 64)             |
//!
//! The stored length makes any truncation a deterministic
//! [`PersistError::LengthMismatch`]; the trailing checksum makes any
//! byte corruption a deterministic [`PersistError::ChecksumMismatch`]
//! (every FNV-1a step is bijective and a byte belongs to exactly one
//! lane, so no single-byte change can collide — see `fnv1a64`'s docs). [`Materialization::from_bytes`](crate::materialize::Materialization::from_bytes)
//! verifies magic, version, length and checksum **before** parsing a
//! single payload byte — a corrupt file can never reach the decoder.
//!
//! ## Payload
//!
//! Nine sections, from the strategy tag (1 semi-naive, 2 parallel) to
//! the relations — rows, tombstones and justifications — specified
//! where they are written and parsed:
//! [`Materialization::to_bytes`](crate::materialize::Materialization::to_bytes).
//! A relation's row count is at most [`crate::storage::MAX_ROWS`], the
//! ceiling a relation's append enforces; a larger one is corrupt.
//! This module is the container around them: the framing above, the
//! `Enc`/`Dec` primitives, and the atomic write.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The 8-byte magic prefix of every snapshot file.
pub(crate) const MAGIC: [u8; 8] = *b"SPROPMAT";
/// The current format version. Bumped to 2 when the planner
/// configuration, per-rule body orders and the cardinality snapshot
/// joined the payload; to 3 when a storage-layout flag joined the
/// planner bytes; to 4 when the planner bytes shrank to the order tag;
/// to 5 when the payload shrank to what a restore reads (body
/// permutations, convergence profile, death-epoch tags and two constant
/// words dropped; watermarks, tombstone counts, relation epochs and
/// justification offsets worked out on decode) — so that an older file
/// is refused instead of mis-parsed.
pub(crate) const VERSION: u32 = 5;
/// Container overhead before the payload: magic + version + length.
const HEADER_LEN: usize = 8 + 4 + 8;
/// Trailing checksum bytes.
const CHECK_LEN: usize = 8;

/// Why a snapshot could not be written or restored.
///
/// Every restore failure is **clean**: the decoder verifies magic,
/// version, stored length and checksum before touching the payload, so
/// a truncated or corrupted file yields one of these — never a
/// successfully-restored-but-wrong store.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file is shorter than the fixed container framing.
    TooShort,
    /// The magic prefix is not a snapshot's.
    BadMagic,
    /// The format version is not supported (holds the version found).
    BadVersion(u32),
    /// The stored total length disagrees with the actual byte count
    /// (truncation, or trailing garbage).
    LengthMismatch {
        /// Length the header claims.
        stored: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The trailing checksum (eight-lane FNV-1a 64) does not match the
    /// content.
    ChecksumMismatch,
    /// The checksummed payload failed a structural validity check
    /// (possible only for files not produced by this encoder).
    Corrupt(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            PersistError::TooShort => write!(f, "snapshot file too short to be valid"),
            PersistError::BadMagic => write!(f, "not a materialization snapshot (bad magic)"),
            PersistError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            PersistError::LengthMismatch { stored, actual } => write!(
                f,
                "snapshot length mismatch: header says {stored} bytes, file has {actual}"
            ),
            PersistError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            PersistError::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Eight-lane interleaved FNV-1a 64 over `bytes`: lane `i` runs plain
/// FNV-1a over bytes `i, i+8, i+16, …`, and the lane states are folded
/// (xor, then one more FNV step each) into a single `u64`.
///
/// Why the lanes: plain FNV-1a is a serial dependency chain — one
/// multiply per byte — which costs tens of milliseconds on a
/// multi-megabyte snapshot. Eight independent chains pipeline.
///
/// Why it still guarantees single-byte detection: every FNV-1a step
/// (xor, then multiply by an odd prime) is a bijection on `u64`, so a
/// changed byte bijectively changes its own lane's final state while
/// the other seven lanes are untouched; the fold's per-lane steps are
/// bijections too, so the folded value must differ. "Corrupt one byte
/// at any offset" therefore remains a *guaranteed* checksum mismatch.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 8];
    // Distinct lane seeds: byte i of the length perturbs lane i, so
    // permuting whole 8-byte groups can't trivially swap lane states.
    for (i, b) in (bytes.len() as u64).to_le_bytes().iter().enumerate() {
        lanes[i] ^= u64::from(*b);
        lanes[i] = lanes[i].wrapping_mul(FNV_PRIME);
    }
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, &b) in lanes.iter_mut().zip(chunk) {
            *lane ^= u64::from(b);
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }
    for (lane, &b) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane ^= u64::from(b);
        *lane = lane.wrapping_mul(FNV_PRIME);
    }
    let mut h = FNV_OFFSET;
    for lane in lanes {
        h ^= lane;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Little-endian payload writer.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn reserve(&mut self, bytes: usize) {
        self.buf.reserve(bytes);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length-prefixed `u32` slice.
    pub(crate) fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        self.u32_run(vs);
    }

    /// Raw `u32` run, no length prefix (for counts implied by earlier
    /// fields, e.g. row data sized by `rows × arity`).
    pub(crate) fn u32_run(&mut self, vs: &[u32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Length-prefixed `u64` slice.
    pub(crate) fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Seals the payload into a complete snapshot file image: container
    /// header (magic, version, total length), payload, checksum.
    pub(crate) fn seal(self) -> Vec<u8> {
        let total = HEADER_LEN + self.buf.len() + CHECK_LEN;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(total as u64).to_le_bytes());
        out.extend_from_slice(&self.buf);
        let check = fnv1a64(&out);
        out.extend_from_slice(&check.to_le_bytes());
        debug_assert_eq!(out.len(), total);
        out
    }
}

/// Bounds-checked little-endian payload reader. Every read returns
/// [`PersistError::Corrupt`] on overrun instead of panicking, and
/// length-prefixed reads validate the prefix against the remaining
/// bytes **before** allocating.
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(PersistError::Corrupt("payload section overruns the file"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Bytes left in the payload (for pre-allocation bounds checks on
    /// counts that are implied rather than length-prefixed).
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| PersistError::Corrupt("count overflows usize"))
    }

    /// A count validated against the bytes actually left (`item_bytes`
    /// per item), so a bogus length can never trigger a huge allocation.
    pub(crate) fn count(&mut self, item_bytes: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        if n.checked_mul(item_bytes)
            .is_none_or(|b| b > self.buf.len() - self.pos)
        {
            return Err(PersistError::Corrupt("length prefix overruns the file"));
        }
        Ok(n)
    }

    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.count(4)?;
        self.u32_run(n)
    }

    /// `n` consecutive `u32`s, decoded in bulk from one bounds check
    /// (the restore fast path: row data and justification buffers are
    /// millions of these).
    pub(crate) fn u32_run(&mut self, n: usize) -> Result<Vec<u32>, PersistError> {
        let nbytes = n
            .checked_mul(4)
            .ok_or(PersistError::Corrupt("payload section overruns the file"))?;
        let raw = self.take(nbytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.count(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Asserts the payload was consumed exactly.
    pub(crate) fn finish(self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PersistError::Corrupt("trailing bytes after the payload"))
        }
    }
}

/// Verifies the container framing of a complete snapshot image — magic,
/// version, stored length, checksum, in that order — and returns a
/// reader positioned over the payload.
pub(crate) fn open(bytes: &[u8]) -> Result<Dec<'_>, PersistError> {
    if bytes.len() < HEADER_LEN + CHECK_LEN {
        return Err(PersistError::TooShort);
    }
    if bytes[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let stored = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if stored != bytes.len() as u64 {
        return Err(PersistError::LengthMismatch {
            stored,
            actual: bytes.len() as u64,
        });
    }
    let body = &bytes[..bytes.len() - CHECK_LEN];
    let check = u64::from_le_bytes(bytes[bytes.len() - CHECK_LEN..].try_into().unwrap());
    if fnv1a64(body) != check {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok(Dec {
        buf: body,
        pos: HEADER_LEN,
    })
}

/// Writes `bytes` to `path` **atomically**: the image goes to a
/// temporary file in the same directory, is flushed to disk, and is
/// `rename`d over the destination — so a crash mid-write leaves either
/// the previous snapshot or no file, never a torn one (POSIX rename is
/// atomic within a filesystem). The temporary name is unique per
/// writer (process id + a process-wide counter), so concurrent savers to
/// one destination each rename a complete image of their own instead of
/// tearing a shared `<path>.tmp`; the last rename wins.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static WRITERS: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        WRITERS.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp_name);
    let res = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if res.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    res
}

/// Reads a whole snapshot file.
pub(crate) fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    fs::File::open(path)?.read_to_end(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_round_trips_and_rejects_every_framing_fault() {
        let mut enc = Enc::default();
        enc.u32(7);
        enc.u64s(&[1, 2, 3]);
        let img = enc.seal();

        let mut dec = open(&img).expect("intact image opens");
        assert_eq!(dec.u32().unwrap(), 7);
        assert_eq!(dec.u64s().unwrap(), vec![1, 2, 3]);
        dec.finish().unwrap();

        // Truncation at every boundary: always a clean framing error.
        for cut in 0..img.len() {
            let err = open(&img[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::TooShort | PersistError::LengthMismatch { .. }
                ),
                "truncation at {cut} gave {err:?}"
            );
        }

        // Single-byte corruption at every offset: always detected.
        for off in 0..img.len() {
            let mut bad = img.clone();
            bad[off] ^= 0x5a;
            assert!(open(&bad).is_err(), "corruption at {off} not detected");
        }

        // Trailing garbage is a length mismatch, not silently ignored.
        let mut long = img.clone();
        long.push(0);
        assert!(matches!(
            open(&long).unwrap_err(),
            PersistError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn decoder_reads_are_bounds_checked() {
        let mut enc = Enc::default();
        enc.u8(1);
        let img = enc.seal();
        let mut dec = open(&img).unwrap();
        assert_eq!(dec.u8().unwrap(), 1);
        assert!(dec.u64().is_err(), "overrun must error, not panic");

        // A length prefix larger than the file cannot allocate.
        let mut enc = Enc::default();
        enc.u64(u64::MAX / 8);
        let img = enc.seal();
        let mut dec = open(&img).unwrap();
        assert!(dec.u64s().is_err());
    }

    #[test]
    fn atomic_write_replaces_or_preserves_never_tears() {
        let dir = std::env::temp_dir().join(format!("selprop-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");

        let mut enc = Enc::default();
        enc.u32(1);
        let first = enc.seal();
        write_atomic(&path, &first).unwrap();
        assert_eq!(read_file(&path).unwrap(), first);

        let mut enc = Enc::default();
        enc.u32(2);
        let second = enc.seal();
        write_atomic(&path, &second).unwrap();
        assert_eq!(read_file(&path).unwrap(), second);

        // A simulated crash mid-write (torn temp file never renamed)
        // leaves the previous snapshot intact and readable.
        fs::write(dir.join("snap.bin.0.0.tmp"), &first[..5]).unwrap();
        assert_eq!(read_file(&path).unwrap(), second);
        open(&read_file(&path).unwrap()).expect("previous snapshot still valid");

        // Completed writes leave no temp file behind, and two writers
        // to one destination never share a temp name.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "snap.bin" && n != "snap.bin.0.0.tmp")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::thread::scope(|s| {
            for img in [&first, &second] {
                let path = &path;
                s.spawn(move || {
                    for _ in 0..50 {
                        write_atomic(path, img).unwrap();
                    }
                });
            }
        });
        let last = read_file(&path).unwrap();
        assert!(last == first || last == second, "a concurrent save tore the file");

        let _ = fs::remove_dir_all(&dir);
    }
}
