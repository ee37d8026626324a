//! Durable snapshot I/O: a versioned, checksummed frame format and the
//! small store abstraction checkpoints are written through.
//!
//! The format is deliberately dumb — no schema evolution, no partial
//! reads — because its one job is to make corruption *detectable*:
//!
//! ```text
//! file  := magic "BCKP" · version u32 · section* · end-section
//! section := tag u32 · len u64 · payload[len] · crc64 u64
//! ```
//!
//! All integers little-endian. The CRC (ECMA-182 polynomial, as in
//! CRC-64/XZ) covers the tag, the length and the payload, so a bit flip
//! anywhere in a section — header included — fails verification. The
//! terminating section has tag [`END_TAG`] and an empty payload; a file
//! without it was truncated mid-write and is rejected as a whole. Readers
//! must treat *any* [`FrameError`] as "this file does not exist" and fall
//! back to an older checkpoint.
//!
//! Writes go through [`Store::write_atomic`]; the filesystem
//! implementation writes a temp file, fsyncs it, renames it over the
//! final name and fsyncs the directory, so a crash at any point leaves
//! either the old file or the new one — never a torn visible file. The
//! [`FailingStore`] test double deliberately breaks that promise (short
//! writes, failed renames, silent bit flips) to drive the recovery
//! proptests.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// File magic: "BCKP".
pub const MAGIC: [u8; 4] = *b"BCKP";
/// Current frame-format version.
pub const VERSION: u32 = 1;
/// Tag of the terminating empty section.
pub const END_TAG: u32 = 0xFFFF_FFFF;

/// CRC-64 with the ECMA-182 polynomial (the CRC-64/XZ generator),
/// bit-reflected, init and final xor `!0` — table-driven, one table
/// built on first use.
pub fn crc64(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42; // reflected ECMA-182
    static TABLE: std::sync::OnceLock<[u64; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u64; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        t
    });
    let mut crc = !0u64;
    for &b in bytes {
        crc = table[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Why a frame file failed verification. Every variant means the same
/// thing to a caller: discard this file and fall back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The version word is not one this reader understands.
    UnsupportedVersion(u32),
    /// The file ended inside a section (or before the header completed).
    Truncated,
    /// A section's CRC does not match its contents.
    CrcMismatch { tag: u32 },
    /// The terminating [`END_TAG`] section is missing.
    MissingEnd,
    /// A section payload failed structural decoding.
    Decode(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic (not a checkpoint file)"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Truncated => write!(f, "file truncated mid-section"),
            FrameError::CrcMismatch { tag } => write!(f, "CRC mismatch in section {tag:#x}"),
            FrameError::MissingEnd => write!(f, "missing end-of-file section"),
            FrameError::Decode(msg) => write!(f, "payload decode error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental writer for the frame format.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        FrameWriter { buf }
    }

    /// Appends one section. `tag` must not be [`END_TAG`].
    pub fn section(&mut self, tag: u32, payload: &[u8]) {
        assert_ne!(tag, END_TAG, "END_TAG is reserved for finish()");
        self.push_section(tag, payload);
    }

    fn push_section(&mut self, tag: u32, payload: &[u8]) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(payload);
        let crc = crc64(&self.buf[start..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Appends the terminating section and returns the finished file
    /// image.
    pub fn finish(mut self) -> Vec<u8> {
        self.push_section(END_TAG, &[]);
        self.buf
    }
}

/// Parses and verifies a frame file, returning `(tag, payload)` pairs in
/// file order (the [`END_TAG`] section is consumed, not returned).
pub fn parse_frames(bytes: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, FrameError> {
    if bytes.len() < 8 {
        return Err(if bytes.len() < 4 || bytes[..4] != MAGIC {
            FrameError::BadMagic
        } else {
            FrameError::Truncated
        });
    }
    if bytes[..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let mut sections = Vec::new();
    let mut at = 8usize;
    loop {
        if bytes.len() < at + 12 {
            return Err(if at == bytes.len() {
                FrameError::MissingEnd
            } else {
                FrameError::Truncated
            });
        }
        let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes")) as usize;
        let body_end = at + 12 + len;
        if bytes.len() < body_end + 8 {
            return Err(FrameError::Truncated);
        }
        let crc = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().expect("8 bytes"));
        if crc64(&bytes[at..body_end]) != crc {
            return Err(FrameError::CrcMismatch { tag });
        }
        if tag == END_TAG {
            // Anything after the end section is foreign garbage.
            if body_end + 8 != bytes.len() {
                return Err(FrameError::Decode("data after end section".into()));
            }
            return Ok(sections);
        }
        sections.push((tag, bytes[at + 12..body_end].to_vec()));
        at = body_end + 8;
    }
}

// ---------------------------------------------------------------------
// The payload codec.
// ---------------------------------------------------------------------

/// A value with one binary layout, written by [`put`](Wire::put) and
/// read back by [`get`](Wire::get): integers little-endian, `usize` as
/// `u64`, `f64` as its bits, `bool` as one byte (0 or 1), a sequence as
/// its length then its elements, a tuple or array as its elements in
/// order. Every snapshot image is a list of `Wire` values, so a type's
/// layout is written once and its decoder is its exact inverse.
pub trait Wire: Sized {
    /// The smallest encoding of a value in bytes. `Vec<T>::get` bounds a
    /// declared element count by the remaining payload over it
    /// ([`Cursor::seq_len`]), so a corrupt count fails instead of
    /// allocating; a value larger than any encoding would refuse valid
    /// images.
    const MIN_BYTES: usize;
    fn put(&self, buf: &mut Vec<u8>);
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError>;
}

macro_rules! wire_le {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
                Ok(<$ty>::from_le_bytes(c.take(Self::MIN_BYTES)?.try_into().expect("sized")))
            }
        }
    )*};
}

wire_le!(u8, u32, u64);

impl Wire for usize {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let v = u64::get(c)?;
        usize::try_from(v).map_err(|_| FrameError::Decode(format!("usize overflow: {v}")))
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        u64::get(c).map(f64::from_bits)
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(FrameError::Decode(format!("bad bool byte {b}"))),
        }
    }
}

/// A presence byte, then the value only when present. (A sim checkpoint
/// writes its optional indices fixed-width instead; see
/// `sim::checkpoint`.)
impl Wire for Option<usize> {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        bool::get(c)?.then(|| usize::get(c)).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        for v in self {
            v.put(buf);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let n = c.seq_len(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(c)?);
        }
        Ok(out)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        for v in self {
            v.put(buf);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::get(c)?;
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
                Ok(($($t::get(c)?,)+))
            }
        }
    };
}

wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);
wire_tuple!(A.0, B.1, C.2, D.3);

/// Writes `items` in the layout of a `Vec<T>` (their count, then each)
/// straight from the table that owns them, with no `Vec` built.
pub fn write_seq<T: Wire>(buf: &mut Vec<u8>, items: impl ExactSizeIterator<Item = T>) {
    items.len().put(buf);
    for v in items {
        v.put(buf);
    }
}

/// Cursor over a snapshot payload; every read fails cleanly (no panics)
/// so corrupt payloads surface as [`FrameError::Decode`].
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| FrameError::Decode("payload shorter than declared".into()))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// Declared element count for a sequence whose elements occupy at
    /// least `min_elem_bytes` each (the element type's
    /// [`Wire::MIN_BYTES`]) — bounds the count by the remaining payload
    /// so corrupt counts fail instead of allocating.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let n = usize::get(self)?;
        let remaining = self.bytes.len() - self.at;
        if min_elem_bytes > 0 && n > remaining / min_elem_bytes {
            return Err(FrameError::Decode(format!(
                "sequence length {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }

    pub fn expect_done(&self) -> Result<(), FrameError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::Decode("trailing bytes in payload".into()))
        }
    }
}

// ---------------------------------------------------------------------
// Stores.
// ---------------------------------------------------------------------

/// Where checkpoint files live. Names are flat (no directories); `list`
/// returns them unordered.
pub trait Store {
    /// Writes `bytes` under `name` such that, absent injected faults,
    /// readers see either the previous content or all of `bytes`.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    fn list(&self) -> io::Result<Vec<String>>;
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    fn remove(&mut self, name: &str) -> io::Result<()>;
}

impl<S: Store + ?Sized> Store for &mut S {
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).write_atomic(name, bytes)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        (**self).list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        (**self).read(name)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        (**self).remove(name)
    }
}

/// Filesystem store: temp file + fsync + rename + directory fsync.
#[derive(Debug, Clone)]
pub struct FsStore {
    dir: PathBuf,
}

impl FsStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FsStore { dir })
    }

    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

impl Store for FsStore {
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let fin = self.dir.join(name);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &fin)?;
        // Persist the rename itself. Directory fsync is not supported on
        // every platform; failure to open the dir is not fatal.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Ok(name) = entry.file_name().into_string() {
                if !name.starts_with('.') {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.dir.join(name))
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.dir.join(name))
    }
}

/// In-memory store for tests.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct mutable access for corruption tests.
    pub fn file_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        self.files.get_mut(name)
    }
}

impl Store for MemStore {
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.files
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }
}

/// SplitMix64 step for the fault-injection schedule (self-contained so
/// the test double has no dependencies).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a [`FailingStore`] did to one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Write passed through untouched.
    None,
    /// Only a seeded-length prefix reached the store under the real name
    /// (a torn, non-atomic write) and the call reported an error.
    ShortWrite { kept: usize },
    /// Nothing was written; the call reported an error (failed rename).
    RenameFailure,
    /// The full image was written with one bit flipped at a seeded
    /// offset and the call reported success (silent corruption).
    BitFlip { offset: usize },
}

/// A [`Store`] wrapper that deterministically injects write faults from
/// a seed: short writes that leave a torn file visible, rename failures
/// that lose the write entirely, and silent single-bit flips. Reads pass
/// through untouched — corruption happens on the way in, detection is
/// the reader's job.
pub struct FailingStore<S: Store> {
    inner: S,
    seed: u64,
    op: u64,
    /// Per-write fault probabilities in 1/256 units.
    p_short: u8,
    p_rename: u8,
    p_flip: u8,
    log: Vec<InjectedFault>,
}

impl<S: Store> FailingStore<S> {
    /// Wraps `inner`, deciding each write's fate from `seed` and the
    /// write ordinal. Probabilities are in 1/256 units and are applied
    /// in order (short write, then rename failure, then bit flip).
    pub fn new(inner: S, seed: u64, p_short: u8, p_rename: u8, p_flip: u8) -> Self {
        FailingStore {
            inner,
            seed,
            op: 0,
            p_short,
            p_rename,
            p_flip,
            log: Vec::new(),
        }
    }

    /// What happened to each write, in order.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: Store> Store for FailingStore<S> {
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let z = mix(self.seed ^ self.op.wrapping_mul(0x2545_F491_4F6C_DD1D));
        self.op += 1;
        let (roll, entropy) = ((z & 0xFF) as u16, z >> 8);
        let mut threshold = self.p_short as u16;
        if roll < threshold && !bytes.is_empty() {
            let kept = (entropy as usize) % bytes.len();
            self.log.push(InjectedFault::ShortWrite { kept });
            // A torn write becomes visible under the real name: the
            // inner store's atomicity is exactly what failed.
            self.inner.write_atomic(name, &bytes[..kept])?;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected short write",
            ));
        }
        threshold += self.p_rename as u16;
        if roll < threshold {
            self.log.push(InjectedFault::RenameFailure);
            return Err(io::Error::other("injected rename failure"));
        }
        threshold += self.p_flip as u16;
        if roll < threshold && !bytes.is_empty() {
            let offset = (entropy as usize) % (bytes.len() * 8);
            self.log.push(InjectedFault::BitFlip { offset });
            let mut corrupt = bytes.to_vec();
            corrupt[offset / 8] ^= 1 << (offset % 8);
            return self.inner.write_atomic(name, &corrupt);
        }
        self.log.push(InjectedFault::None);
        self.inner.write_atomic(name, bytes)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RetryCause;

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn frame_round_trip() {
        let mut w = FrameWriter::new();
        w.section(1, b"hello");
        w.section(2, &[]);
        w.section(7, &[0xAB; 300]);
        let bytes = w.finish();
        let sections = parse_frames(&bytes).expect("verifies");
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0], (1, b"hello".to_vec()));
        assert_eq!(sections[1], (2, Vec::new()));
        assert_eq!(sections[2].0, 7);
        assert_eq!(sections[2].1.len(), 300);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut w = FrameWriter::new();
        w.section(1, b"payload bytes");
        let bytes = w.finish();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                parse_frames(&corrupt).is_err(),
                "bit flip at {bit} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut w = FrameWriter::new();
        w.section(1, b"some payload");
        w.section(2, b"more payload");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            assert!(
                parse_frames(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        assert!(parse_frames(&bytes).is_ok());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = FrameWriter::new().finish();
        bytes.push(0);
        assert!(matches!(parse_frames(&bytes), Err(FrameError::Decode(_))));
    }

    #[test]
    fn cursor_round_trip_and_bounds() {
        let mut buf = Vec::new();
        42u64.put(&mut buf);
        1.5f64.put(&mut buf);
        true.put(&mut buf);
        b"xy".to_vec().put(&mut buf);
        let mut c = Cursor::new(&buf);
        assert_eq!(u64::get(&mut c).unwrap(), 42);
        assert_eq!(f64::get(&mut c).unwrap(), 1.5);
        assert!(bool::get(&mut c).unwrap());
        assert_eq!(Vec::<u8>::get(&mut c).unwrap(), b"xy");
        c.expect_done().unwrap();

        // A corrupt length must fail, not allocate.
        let mut bad = Vec::new();
        u64::MAX.put(&mut bad);
        assert!(Vec::<u8>::get(&mut Cursor::new(&bad)).is_err());
        assert!(Cursor::new(&bad).seq_len(8).is_err());
        // Neither a bool nor a retry cause reads an unknown byte.
        assert!(bool::get(&mut Cursor::new(&[2])).is_err());
        assert!(RetryCause::get(&mut Cursor::new(&[2])).is_err());
    }

    /// Encodes `v`, checks it decodes to itself with nothing left over,
    /// and returns its length.
    fn encoded_len<T: Wire + PartialEq + std::fmt::Debug>(v: T) -> usize {
        let mut buf = Vec::new();
        v.put(&mut buf);
        let mut c = Cursor::new(&buf);
        assert_eq!(T::get(&mut c).unwrap(), v);
        c.expect_done().unwrap();
        buf.len()
    }

    #[track_caller]
    fn fixed<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(encoded_len(v), T::MIN_BYTES);
    }

    #[track_caller]
    fn at_least<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert!(encoded_len(v) >= T::MIN_BYTES);
    }

    /// Every `Wire` impl a sequence holds: a `MIN_BYTES` above some
    /// encoding would make `seq_len` refuse a valid image.
    #[test]
    fn min_bytes_never_exceed_an_encoding() {
        fixed(7u8);
        fixed(true);
        fixed(u32::MAX);
        fixed(u64::MAX);
        fixed(usize::MAX);
        fixed(-0.5f64);
        fixed([1u64, 2, 3, 4]);
        fixed((1u32, 2u32, 3u32));
        fixed((1u64, 2usize, 3usize));
        fixed((1usize, 2.5f64, 3usize));
        fixed((1usize, 2usize, 3u32));
        fixed(RetryCause::Overload);
        fixed(RetryCause::Evacuation);
        at_least(None::<usize>);
        at_least(Some(3usize));
        at_least(Vec::<u64>::new());
        at_least(vec![vec![1usize, 2], vec![]]);
        let events = crate::journal::tests::one_of_each();
        let kinds: BTreeMap<&str, ()> = events.iter().map(|e| (e.kind(), ())).collect();
        assert_eq!(kinds.len(), 16, "one event of each variant");
        for event in events {
            at_least(event);
        }
    }

    #[test]
    fn mem_store_round_trip() {
        let mut s = MemStore::new();
        s.write_atomic("a", b"one").unwrap();
        s.write_atomic("b", b"two").unwrap();
        assert_eq!(s.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s.read("a").unwrap(), b"one");
        s.remove("a").unwrap();
        assert!(s.read("a").is_err());
    }

    #[test]
    fn fs_store_atomic_write_and_list() {
        let dir = std::env::temp_dir().join(format!("bursty-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = FsStore::open(&dir).unwrap();
        s.write_atomic("ckpt-1", b"alpha").unwrap();
        s.write_atomic("ckpt-1", b"beta").unwrap();
        assert_eq!(s.read("ckpt-1").unwrap(), b"beta");
        assert_eq!(s.list().unwrap(), vec!["ckpt-1".to_string()]);
        s.remove("ckpt-1").unwrap();
        assert!(s.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_store_faults_are_deterministic_and_detected() {
        let frame = {
            let mut w = FrameWriter::new();
            w.section(1, &[7u8; 128]);
            w.finish()
        };
        // High fault rates so every kind fires over 64 writes.
        let mut s = FailingStore::new(MemStore::new(), 0xBAD5EED, 64, 64, 64);
        for i in 0..64 {
            let _ = s.write_atomic(&format!("f{i:02}"), &frame);
        }
        let log = s.log().to_vec();
        assert!(log
            .iter()
            .any(|f| matches!(f, InjectedFault::ShortWrite { .. })));
        assert!(log
            .iter()
            .any(|f| matches!(f, InjectedFault::RenameFailure)));
        assert!(log
            .iter()
            .any(|f| matches!(f, InjectedFault::BitFlip { .. })));
        assert!(log.iter().any(|f| matches!(f, InjectedFault::None)));

        // Determinism: same seed, same schedule.
        let mut s2 = FailingStore::new(MemStore::new(), 0xBAD5EED, 64, 64, 64);
        for i in 0..64 {
            let _ = s2.write_atomic(&format!("f{i:02}"), &frame);
        }
        assert_eq!(log, s2.log());

        // Every file that verifies must be byte-identical to the
        // original; every faulted file must fail verification.
        let inner = s.inner();
        for (i, fault) in log.iter().enumerate() {
            let name = format!("f{i:02}");
            match fault {
                InjectedFault::None => assert_eq!(inner.read(&name).unwrap(), frame),
                InjectedFault::RenameFailure => assert!(inner.read(&name).is_err()),
                InjectedFault::ShortWrite { .. } | InjectedFault::BitFlip { .. } => {
                    let got = inner.read(&name).unwrap();
                    assert!(
                        parse_frames(&got).is_err(),
                        "corrupted file {name} still verifies"
                    );
                }
            }
        }
    }
}
