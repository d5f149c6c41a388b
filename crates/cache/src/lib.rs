//! Content-addressed on-disk artifact cache.
//!
//! Sprout's expensive products — synthesized link traces (minutes of
//! virtual time at 1 ms steps) and finished sweep cells — are pure
//! functions of their input configuration. This crate gives them a
//! shared persistence layer so a second `reproduce` run skips the work
//! entirely. (Forecast tables are not stored: a paper-scale build takes
//! ≈ 11 ms once per process and geometry, too little for a stored copy
//! to be worth its file and codec.)
//!
//! **The container.** One artifact is one file,
//! `<kind>-v<version>-<name hash>.bin`:
//!
//! ```text
//! magic "SPROUTA3" (8) | version u32 | key_len u32 | payload_len u64 | checksum u64
//! key bytes (key_len) | payload bytes (payload_len)
//! ```
//!
//! all little-endian, nothing after the payload. A load is one read into
//! one buffer, sized from the file's length; on that buffer it checks, in
//! order: the magic, the kind's version, the key length, the total length
//! (the header's against the file's), the stored key byte for byte, the
//! checksum — and hands the payload back in the same buffer, the header
//! and key drained from its front.
//!
//! * **Content addressing.** The file name carries a 64-bit hash of the
//!   container magic, the kind's name and the *full* key bytes (the
//!   serialized input configuration). The complete key is also stored
//!   inside the file and compared byte-for-byte on load, so a hash
//!   collision can never serve the wrong artifact. Seeding the name with
//!   the magic means a container-format change renames every file of
//!   every kind at once: files of an older format are never opened (dead
//!   weight until the directory is cleared, as after any version bump).
//! * **Integrity.** Every file carries the magic tag, the artifact
//!   kind's schema version, and a checksum over key and payload.
//!   Corrupt, truncated, or version-mismatched files are treated as
//!   misses; the caller rebuilds and the fresh store overwrites them.
//! * **Two hash functions, two jobs.** The *name hash* addresses: it
//!   reads a hundred-odd key bytes once per operation, and it is the
//!   byte-wise FNV-1a of [`fingerprint64`], which recorded keys and
//!   golden snapshots depend on and which therefore never changes. The
//!   *checksum* detects damage: it reads every payload byte of every
//!   load — megabytes for a long trace — so it walks 64-bit words with a
//!   full-width mix per step, in eight independent lanes (word k of the
//!   key goes to lane k mod 8, and so does word k of the payload) that
//!   fold into one state at the end: the multiplies of neighbouring words
//!   overlap instead of each waiting on the last (on a 2-core Xeon VM,
//!   ≈ 18 GB/s over a 3.4 KB entry, where one serial chain of the same
//!   step manages ≈ 3.7 and byte-serial FNV-1a 0.75). It is private to
//!   the container and versioned by the magic, so it is free to be
//!   whatever is fast and catches bit rot.
//! * **Quarantine.** A file that is *damaged* — bad magic, truncated,
//!   failed checksum — is additionally renamed aside to `<name>.corrupt`
//!   (and counted in [`CacheCounters::quarantined`]), so the evidence
//!   survives for post-mortems while the rebuilt entry takes the
//!   original name. Stale versions and key-hash collisions are healthy
//!   files that merely don't match; they stay put and read as plain
//!   misses.
//! * **Atomicity.** Stores write to a unique temp file and `rename` into
//!   place, so concurrent builders (threads or whole processes) racing
//!   on the same key are harmless — last writer wins with identical
//!   bytes, and readers never observe a partial file.
//! * **Configuration.** The cache root resolves, in order: programmatic
//!   override ([`set_dir`] / [`disable`]), the `SPROUT_CACHE_DIR`
//!   environment variable (empty, `0`, or `off` disables), then
//!   `./.sprout-cache` under the working directory (kept inside the
//!   checkout so CI can cache it and `git clean` can wipe it).
//!
//! Cached artifacts are byte-exact re-encodings of what the builder
//! produced (f32 bit patterns, integer timestamps), so results are
//! bit-identical whether the cache is cold, warm, or disabled.

#![warn(missing_docs)]

use std::io::{IoSlice, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic tag opening every cache file; names the container format
/// (header layout and checksum function) and seeds every file name.
const MAGIC: &[u8; 8] = b"SPROUTA3";

/// Header length: magic(8) + version(4) + key_len(4) + payload_len(8) +
/// checksum(8).
const HEADER_LEN: usize = 32;

/// FNV-1a 64-bit over one byte stream, continuing from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x100_0000_01b3);
    }
    state
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable 64-bit fingerprint of a byte string (FNV-1a, the same function
/// the cache uses for file addressing). Frozen: recorded artifact keys
/// depend on it.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Independent chains of the checksum: enough to keep the multiplier
/// busy while each chain waits on its own last product.
const LANES: usize = 8;

/// One step of the checksum: a full-width mix of `word` into `state`.
/// A bijection of the state for any word, and of the word for any state;
/// the fold brings the high half down, without which bit 63 of a word
/// never reaches the bits below it and some two-bit flips cancel.
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    let s = (state ^ word).wrapping_mul(0x100_0000_01b3);
    s ^ (s >> 32)
}

/// Mix `bytes` into the lanes as little-endian 64-bit words (a short
/// tail zero-padded), word k into lane k mod [`LANES`].
fn absorb(lanes: &mut [u64; LANES], bytes: &[u8]) {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(w));
        }
    }
    let rest = blocks.remainder();
    let mut words = rest.chunks_exact(8);
    let mut lane = 0;
    for w in &mut words {
        lanes[lane] = mix(lanes[lane], word(w));
        lane += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        lanes[lane] = mix(lanes[lane], u64::from_le_bytes(w));
    }
}

/// The entry checksum: key, then payload, each through the lanes of
/// [`absorb`] (every lane starts at the FNV offset basis); then the lanes,
/// in order, and both lengths through the same step into one state.
/// Each lane and the fold are chains of bijections, so a change confined
/// to one word always changes the result.
fn checksum(key: &[u8], payload: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    absorb(&mut lanes, key);
    absorb(&mut lanes, payload);
    let state = lanes.into_iter().fold(FNV_OFFSET, mix);
    mix(mix(state, key.len() as u64), payload.len() as u64)
}

/// Write `head` then `body` with one vectored write; whatever a short
/// write leaves over goes out the ordinary way.
fn write_both(w: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let written = w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)])?;
    w.write_all(head.get(written..).unwrap_or_default())?;
    w.write_all(
        body.get(written.saturating_sub(head.len())..)
            .unwrap_or_default(),
    )
}

/// How the cache root was overridden (None = no override in effect).
static OVERRIDE: Mutex<Option<RootOverride>> = Mutex::new(None);

/// Lock the override slot, recovering from poisoning. The slot holds a
/// plain `Option<RootOverride>` whose every mutation is a single
/// assignment, so a panic while the lock is held can never leave it in a
/// torn state — the poison flag carries no information here. Without
/// this, one panicking cell thread (watchdog timeouts, injected test
/// panics) would turn every later cache resolution in the process into a
/// `PoisonError` panic.
fn override_slot() -> std::sync::MutexGuard<'static, Option<RootOverride>> {
    OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Clone, Debug)]
enum RootOverride {
    Disabled,
    Dir(PathBuf),
}

/// Point the cache at an explicit directory (the `--cache-dir` flag).
/// Takes precedence over `SPROUT_CACHE_DIR` and the defaults.
pub fn set_dir(dir: impl Into<PathBuf>) {
    *override_slot() = Some(RootOverride::Dir(dir.into()));
}

/// Disable the cache entirely (the `--no-cache` flag): loads miss without
/// touching the filesystem and stores are dropped.
pub fn disable() {
    *override_slot() = Some(RootOverride::Disabled);
}

/// Clear any programmatic override, returning to environment/default
/// resolution (used by tests).
pub fn reset_override() {
    *override_slot() = None;
}

/// The directory artifacts are stored in, or `None` when the cache is
/// disabled. Resolved fresh on every call so overrides apply immediately.
pub fn resolved_dir() -> Option<PathBuf> {
    if let Some(over) = override_slot().clone() {
        return match over {
            RootOverride::Disabled => None,
            RootOverride::Dir(d) => Some(d),
        };
    }
    match std::env::var("SPROUT_CACHE_DIR") {
        Ok(v) if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => Some(PathBuf::from(".sprout-cache")),
    }
}

/// Monotonically increasing counters of one artifact kind's cache
/// traffic. Loads and stores attempted while the cache is disabled are
/// not counted (the kind is bypassed, not missing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Loads served from disk.
    pub hits: u64,
    /// Loads that found nothing usable (absent, corrupt, wrong version,
    /// key mismatch).
    pub misses: u64,
    /// Artifacts written to disk.
    pub stores: u64,
    /// Damaged files renamed aside to `*.corrupt`. Every quarantine is
    /// also a miss (the caller rebuilds either way).
    pub quarantined: u64,
}

impl CacheCounters {
    /// Component-wise difference against an earlier snapshot.
    pub fn since(self, earlier: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
            quarantined: self.quarantined - earlier.quarantined,
        }
    }
}

/// Where a damaged `path` is moved aside to.
fn corrupt_name(path: &std::path::Path) -> PathBuf {
    let mut aside = path.as_os_str().to_owned();
    aside.push(".corrupt");
    PathBuf::from(aside)
}

/// What a file-level load found. Only `Corrupt` triggers quarantine:
/// `Mismatch` files are healthy artifacts that legitimately don't serve
/// this key (stale schema version, key-hash collision).
enum LoadOutcome {
    /// No file under the key's name.
    Absent,
    /// A healthy file that doesn't match (version or key).
    Mismatch,
    /// A damaged file: bad magic, truncated, or failed checksum.
    Corrupt,
    /// The verified payload.
    Hit(Vec<u8>),
}

/// One kind of cached artifact (synthesized traces, sweep cells, …),
/// carrying its own schema version and traffic counters. Declare as a
/// `static`:
///
/// ```
/// use sprout_cache::ArtifactKind;
/// static TRACES: ArtifactKind = ArtifactKind::new("trace-synth", 1);
/// ```
///
/// Bump the version whenever the payload encoding *or* the semantics of
/// the builder change; old files then read as misses and are rebuilt.
#[derive(Debug)]
pub struct ArtifactKind {
    name: &'static str,
    version: u32,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
}

impl ArtifactKind {
    /// Declare an artifact kind. `name` must be filesystem-safe
    /// (lowercase words and dashes).
    pub const fn new(name: &'static str, version: u32) -> Self {
        ArtifactKind {
            name,
            version,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The kind's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current traffic counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters to zero (tests, bench runs).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.stores.store(0, Ordering::Relaxed);
        self.quarantined.store(0, Ordering::Relaxed);
    }

    /// File name of the artifact with `key`, in one allocation.
    fn file_name(&self, key: &[u8]) -> String {
        use std::fmt::Write as _;
        let hash = fnv1a(fnv1a(fnv1a(FNV_OFFSET, MAGIC), self.name.as_bytes()), key);
        // "-v", a u32's at most 10 digits, "-", 16 hex digits, ".bin".
        let mut name = String::with_capacity(self.name.len() + 33);
        let _ = write!(name, "{}-v{}-{hash:016x}.bin", self.name, self.version);
        name
    }

    /// File path an artifact with `key` lives at, under `dir`, in one
    /// allocation beside the name's.
    fn path_for(&self, dir: &std::path::Path, key: &[u8]) -> PathBuf {
        let name = self.file_name(key);
        let mut path = PathBuf::with_capacity(dir.as_os_str().len() + 1 + name.len());
        path.push(dir);
        path.push(name);
        path
    }

    /// Load the artifact stored under `key`. Returns the payload only if
    /// the file exists, parses, matches this kind's version, stores the
    /// identical key, and passes its checksum. `None` when the cache is
    /// disabled (uncounted) or on any miss (counted). A *damaged* file
    /// (bad magic, truncation, checksum failure) is quarantined — renamed
    /// aside to `*.corrupt` — before the miss is reported.
    pub fn load(&self, key: &[u8]) -> Option<Vec<u8>> {
        let dir = resolved_dir()?;
        match self.try_load(&dir, key) {
            LoadOutcome::Hit(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            LoadOutcome::Corrupt => {
                self.quarantine_path(&self.path_for(&dir, key));
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            LoadOutcome::Absent | LoadOutcome::Mismatch => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn try_load(&self, dir: &std::path::Path, key: &[u8]) -> LoadOutcome {
        let Ok(file) = std::fs::File::open(self.path_for(dir, key)) else {
            return LoadOutcome::Absent;
        };
        // One read of the whole file into one buffer sized from its
        // length (never zero-filled); `take` stops `read_to_end` at the
        // length, so no second read probes for the end of the file.
        let Ok(file_len) = file.metadata().map(|m| m.len()) else {
            return LoadOutcome::Corrupt;
        };
        let Ok(capacity) = usize::try_from(file_len) else {
            return LoadOutcome::Corrupt;
        };
        let mut entry = Vec::with_capacity(capacity);
        if file.take(file_len).read_to_end(&mut entry).is_err() {
            return LoadOutcome::Corrupt;
        }
        let Some(header) = entry.first_chunk::<HEADER_LEN>() else {
            return LoadOutcome::Corrupt; // shorter than its own header
        };
        if &header[0..8] != MAGIC {
            return LoadOutcome::Corrupt;
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != self.version {
            // A healthy file from another schema generation — stale, not
            // damaged. Leave it alone.
            return LoadOutcome::Mismatch;
        }
        let key_len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let payload_len = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let stored_checksum = u64::from_le_bytes(header[24..32].try_into().unwrap());
        if key_len != key.len() {
            // Hash collision with a different key: healthy file, wrong
            // occupant.
            return LoadOutcome::Mismatch;
        }
        // The header's lengths must account for exactly the bytes read,
        // and a sum that overflows is damage (both lengths are bytes this
        // process did not write).
        let claimed = payload_len
            .checked_add(key_len as u64)
            .and_then(|n| n.checked_add(HEADER_LEN as u64));
        if claimed != Some(entry.len() as u64) {
            return LoadOutcome::Corrupt; // truncated, or bytes after it
        }
        let (stored_key, payload) = entry[HEADER_LEN..].split_at(key_len);
        if stored_key != key {
            return LoadOutcome::Mismatch;
        }
        if checksum(key, payload) != stored_checksum {
            return LoadOutcome::Corrupt;
        }
        // The payload stays in the buffer it was read into: one memmove
        // drops the header and key from its front.
        entry.drain(..HEADER_LEN + key_len);
        LoadOutcome::Hit(entry)
    }

    /// Quarantine the entry stored under `key`: rename it aside to
    /// `*.corrupt` so a subsequent load misses (and a rebuild takes the
    /// original name) while the damaged bytes survive for inspection.
    /// For callers whose *payload decoding* fails after the file-level
    /// integrity checks passed — their corruption detector lives above
    /// this crate. Returns whether a file was actually moved aside.
    pub fn quarantine(&self, key: &[u8]) -> bool {
        let Some(dir) = resolved_dir() else {
            return false;
        };
        self.quarantine_path(&self.path_for(&dir, key))
    }

    /// Reclassify one already-counted hit as a miss: for callers whose
    /// payload *decoding* failed after [`Self::load`] reported success,
    /// so the traffic counters reflect what the caller actually got.
    pub fn demote_hit(&self) {
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn quarantine_path(&self, path: &std::path::Path) -> bool {
        if std::fs::rename(path, corrupt_name(path)).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            // Racing quarantiners: someone else already moved it. Either
            // way the original name is free.
            false
        }
    }

    /// Store `payload` under `key`, atomically (temp file + rename).
    /// Best-effort: a transient IO failure is retried once, and
    /// persistent failures (or a disabled cache) return `false` without
    /// error — the artifact simply is not persisted.
    pub fn store(&self, key: &[u8], payload: &[u8]) -> bool {
        self.try_store(key, payload) || self.try_store(key, payload)
    }

    fn try_store(&self, key: &[u8], payload: &[u8]) -> bool {
        let Some(dir) = resolved_dir() else {
            return false;
        };
        let name = self.file_name(key);
        // Unique temp name per storer: pid + a process-wide counter.
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let temp_path = dir.join(format!(
            ".tmp-{}-{}-{name}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        // Header and key in one buffer, the payload beside it: one
        // `writev` for the whole entry, and a long trace is not copied.
        let mut head = Vec::with_capacity(HEADER_LEN + key.len());
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&self.version.to_le_bytes());
        head.extend_from_slice(&(key.len() as u32).to_le_bytes());
        head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        head.extend_from_slice(&checksum(key, payload).to_le_bytes());
        head.extend_from_slice(key);
        let write = (|| -> std::io::Result<()> {
            let mut f = match std::fs::File::create(&temp_path) {
                // Only a cache directory's first store has to make it.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    std::fs::create_dir_all(&dir)?;
                    std::fs::File::create(&temp_path)?
                }
                created => created?,
            };
            write_both(&mut f, &head, payload)?;
            f.sync_all().ok(); // best-effort durability
            Ok(())
        })();
        if write.is_err() {
            let _ = std::fs::remove_file(&temp_path);
            return false;
        }
        match std::fs::rename(&temp_path, dir.join(name)) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                let _ = std::fs::remove_file(&temp_path);
                false
            }
        }
    }
}

/// The JSON text writers every crate shares: string literals and
/// numbers appended to a `String`, byte-stable for identical input (the
/// `*_sweep.json` artifacts are compared with `cmp`).
pub mod json {
    use std::fmt::Write as _;

    /// Append `s` as a JSON string literal, quotes included. Control
    /// characters are written in the one `\u00XX` form. Every byte that
    /// needs escaping is ASCII, so the runs between them are copied whole.
    #[inline]
    pub fn string(out: &mut String, s: &str) {
        out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                0..=0x1f => "\\u00",
                _ => continue,
            };
            out.push_str(&s[run..i]);
            out.push_str(escaped);
            if b < 0x20 {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// `s` as a JSON string literal (see [`string`]).
    pub fn quoted(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        string(&mut out, s);
        out
    }

    /// Append a float: Rust's shortest-round-trip `Display` (deterministic,
    /// so identical results give identical bytes), `null` when not finite.
    #[inline]
    pub fn number(out: &mut String, v: f64) {
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }

    /// Append an unsigned integer.
    #[inline]
    pub fn integer(out: &mut String, v: u64) {
        let _ = write!(out, "{v}");
    }
}

/// A little-endian byte encoder for building cache keys and payloads
/// with explicit, stable layouts.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with preallocated capacity.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// Append a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f32`'s raw bits.
    #[inline]
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// Append an `f64`'s raw bits (NaN payloads round-trip exactly).
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// Append a `bool` as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.buf.push(v as u8);
        self
    }

    /// Append a length-prefixed string.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// The accumulated bytes.
    #[inline]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A little-endian reader mirroring [`ByteWriter`]; every method returns
/// `None` on underrun so decoders degrade into cache misses.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Remaining unread bytes.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from raw bits.
    #[inline]
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; bytes other than 0/1 are a decode error.
    #[inline]
    pub fn bool(&mut self) -> Option<bool> {
        match self.take(1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a `u64` element count, rejecting one the rest of the buffer
    /// cannot hold at `min_elem_bytes` (≥ 1) per element — so a decoder
    /// may allocate for the count it was given: a damaged count that
    /// slipped past the file checksum is a decode error, not a
    /// 137 GB `Vec::with_capacity`.
    #[inline]
    pub fn count(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n <= self.remaining() / min_elem_bytes).then_some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Serialize tests that mutate the process-global override.
    static LOCK: Mutex<()> = Mutex::new(());

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "sprout-cache-test-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip_and_counters() {
        let _g = LOCK.lock().unwrap();
        set_dir(temp_dir("roundtrip"));
        static KIND: ArtifactKind = ArtifactKind::new("test-roundtrip", 1);
        KIND.reset_counters();
        assert_eq!(KIND.load(b"key"), None);
        assert!(KIND.store(b"key", b"payload bytes"));
        assert_eq!(KIND.load(b"key").as_deref(), Some(&b"payload bytes"[..]));
        assert_eq!(KIND.load(b"other"), None);
        let c = KIND.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 2, 1));
        reset_override();
    }

    #[test]
    fn a_short_vectored_write_loses_and_repeats_nothing() {
        /// Accepts at most `first` bytes of the vectored write.
        struct Stingy {
            first: usize,
            got: Vec<u8>,
        }
        impl Write for Stingy {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.got.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                let all: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
                let n = self.first.min(all.len());
                self.got.extend_from_slice(&all[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (head, body) = (&b"head+key"[..], &b"the payload"[..]);
        for first in 0..=head.len() + body.len() + 1 {
            let mut w = Stingy { first, got: vec![] };
            write_both(&mut w, head, body).unwrap();
            assert_eq!(w.got, [head, body].concat(), "first write took {first}");
        }
    }

    #[test]
    fn disabled_cache_bypasses_without_counting() {
        let _g = LOCK.lock().unwrap();
        disable();
        static KIND: ArtifactKind = ArtifactKind::new("test-disabled", 1);
        KIND.reset_counters();
        assert!(!KIND.store(b"k", b"v"));
        assert_eq!(KIND.load(b"k"), None);
        assert_eq!(KIND.counters(), CacheCounters::default());
        reset_override();
    }

    #[test]
    fn corrupt_file_is_quarantined_and_reads_as_a_miss() {
        let _g = LOCK.lock().unwrap();
        let dir = temp_dir("corrupt");
        set_dir(&dir);
        static KIND: ArtifactKind = ArtifactKind::new("test-corrupt", 1);
        KIND.reset_counters();
        assert!(KIND.store(b"k", b"good payload"));
        // Flip a payload byte on disk.
        let path = KIND.path_for(&dir, b"k");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(KIND.load(b"k"), None, "corrupt file must read as a miss");
        // The damaged bytes were moved aside, not destroyed.
        assert!(
            corrupt_name(&path).exists(),
            "the damaged file must be renamed to *.corrupt"
        );
        assert!(!path.exists(), "the original name must be freed");
        assert_eq!(KIND.counters().quarantined, 1);
        // A fresh store reclaims the original name.
        assert!(KIND.store(b"k", b"good payload"));
        assert_eq!(KIND.load(b"k").as_deref(), Some(&b"good payload"[..]));
        reset_override();
    }

    #[test]
    fn explicit_quarantine_frees_the_entry() {
        let _g = LOCK.lock().unwrap();
        let dir = temp_dir("quarantine");
        set_dir(&dir);
        static KIND: ArtifactKind = ArtifactKind::new("test-quarantine", 1);
        KIND.reset_counters();
        assert!(KIND.store(b"k", b"looks fine at the file level"));
        // A caller whose payload decode failed pushes the entry aside.
        assert!(KIND.quarantine(b"k"));
        assert_eq!(KIND.load(b"k"), None);
        assert!(
            !KIND.quarantine(b"k"),
            "already quarantined: nothing to move"
        );
        assert_eq!(KIND.counters().quarantined, 1);
        reset_override();
    }

    #[test]
    fn stale_version_is_not_quarantined() {
        let _g = LOCK.lock().unwrap();
        let dir = temp_dir("stale-not-quarantined");
        set_dir(&dir);
        static V1: ArtifactKind = ArtifactKind::new("test-stale", 1);
        static V2: ArtifactKind = ArtifactKind::new("test-stale", 2);
        V2.reset_counters();
        assert!(V1.store(b"k", b"v1 payload"));
        let v2_path = V2.path_for(&dir, b"k");
        std::fs::copy(V1.path_for(&dir, b"k"), &v2_path).unwrap();
        assert_eq!(V2.load(b"k"), None);
        assert!(
            v2_path.exists(),
            "a healthy file of another version is a plain miss, not corruption"
        );
        assert_eq!(V2.counters().quarantined, 0);
        reset_override();
    }

    #[test]
    fn version_bump_invalidates() {
        let _g = LOCK.lock().unwrap();
        let dir = temp_dir("version");
        set_dir(&dir);
        static V1: ArtifactKind = ArtifactKind::new("test-version", 1);
        static V2: ArtifactKind = ArtifactKind::new("test-version", 2);
        assert!(V1.store(b"k", b"v1 payload"));
        // Same kind name at version 2 hashes to a different file; even if
        // a v1 file is copied onto the v2 path, the header version check
        // rejects it.
        assert_eq!(V2.load(b"k"), None);
        let v1_path = V1.path_for(&dir, b"k");
        let v2_path = V2.path_for(&dir, b"k");
        std::fs::copy(&v1_path, &v2_path).unwrap();
        assert_eq!(V2.load(b"k"), None, "stale version must not load");
        reset_override();
    }

    #[test]
    fn truncated_file_is_a_miss() {
        let _g = LOCK.lock().unwrap();
        let dir = temp_dir("truncated");
        set_dir(&dir);
        static KIND: ArtifactKind = ArtifactKind::new("test-truncated", 1);
        assert!(KIND.store(b"k", b"0123456789"));
        let path = KIND.path_for(&dir, b"k");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(KIND.load(b"k"), None);
        reset_override();
    }

    #[test]
    fn env_and_override_resolution() {
        let _g = LOCK.lock().unwrap();
        reset_override();
        // Whatever the environment says, an explicit override wins.
        set_dir("/tmp/explicit-cache-dir");
        assert_eq!(
            resolved_dir(),
            Some(PathBuf::from("/tmp/explicit-cache-dir"))
        );
        disable();
        assert_eq!(resolved_dir(), None);
        reset_override();
        // With no override, resolution follows the environment: a
        // disabling SPROUT_CACHE_DIR (empty/0/off) yields None, anything
        // else (including unset → ./.sprout-cache) yields a directory.
        let env_disabled = matches!(
            std::env::var("SPROUT_CACHE_DIR").as_deref(),
            Ok("") | Ok("0") | Ok("off") | Ok("OFF") | Ok("Off")
        );
        assert_eq!(resolved_dir().is_none(), env_disabled);
    }

    #[test]
    fn byte_writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u32(7).u64(1 << 40).f32(1.5).str("hello");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.u64(), Some(1 << 40));
        assert_eq!(r.u32(), Some(1.5f32.to_bits()));
        assert_eq!(r.u32(), Some(5));
        assert_eq!(r.remaining(), 5);
        assert_eq!(r.u64(), None, "underrun returns None");
    }

    #[test]
    fn f64_and_bool_round_trip_exactly() {
        let mut w = ByteWriter::new();
        w.f64(f64::NAN).f64(-0.0).bool(true).bool(false);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.f64().map(f64::to_bits), Some(f64::NAN.to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.bool(), Some(false));
        assert_eq!(r.bool(), None);
        // Garbage bool bytes are decode errors, not values.
        let mut bad = ByteReader::new(&[7u8]);
        assert_eq!(bad.bool(), None);
    }

    #[test]
    fn counts_the_buffer_cannot_hold_are_decode_errors() {
        let mut w = ByteWriter::new();
        w.u64(3).u32(1).u32(2).u32(3);
        let bytes = w.finish();
        assert_eq!(ByteReader::new(&bytes).count(4), Some(3));
        assert_eq!(ByteReader::new(&bytes).count(5), None, "3 x 5 > 12 left");
        let mut huge = ByteWriter::new();
        huge.u64(u64::from(u32::MAX)).u64(u64::MAX);
        let huge = huge.finish();
        let mut r = ByteReader::new(&huge);
        assert_eq!(r.count(1), None);
        assert_eq!(r.count(1), None);
        assert_eq!(ByteReader::new(&[0; 7]).count(1), None, "underrun");
    }

    #[test]
    fn json_writers_escape_and_null_out_non_finite_numbers() {
        assert_eq!(
            json::quoted("a\"b\\c\nd\u{1}"),
            "\"a\\\"b\\\\c\\u000ad\\u0001\""
        );
        let mut out = String::new();
        json::number(&mut out, 0.1 + 0.2);
        out.push(',');
        json::number(&mut out, f64::NAN);
        out.push(',');
        json::number(&mut out, f64::NEG_INFINITY);
        out.push(',');
        json::integer(&mut out, u64::MAX);
        assert_eq!(out, "0.30000000000000004,null,null,18446744073709551615");
    }

    /// `json::string` as it was written char by char: the reference the
    /// run-copying writer must equal byte for byte.
    fn json_string_reference(s: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A char of one of the classes the JSON writer treats differently:
    /// a quote, a backslash, a control byte, printable ASCII, and two-,
    /// three- and four-byte UTF-8.
    fn json_test_char(class: u32, bits: u32) -> char {
        let pick = |lo: u32, hi: u32| char::from_u32(lo + bits % (hi - lo)).unwrap_or('\u{fffd}');
        match class {
            0 => '"',
            1 => '\\',
            2 => pick(0, 0x20),
            3 => pick(0x20, 0x7f),
            4 => pick(0x80, 0x800),
            5 => pick(0x800, 0x1_0000),
            _ => pick(0x1_0000, 0x11_0000),
        }
    }

    #[test]
    fn json_string_escapes_every_control_byte_as_the_reference_does() {
        let every: String = (0..0x80u8)
            .map(char::from)
            .chain(['é', '€', '😀'])
            .collect();
        assert_eq!(json::quoted(&every), json_string_reference(&every));
        for c in (0..0x20u8).map(char::from) {
            let s = format!("a{c}b{c}{c}");
            assert_eq!(
                json::quoted(&s),
                json_string_reference(&s),
                "{:#04x}",
                c as u32
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn json_string_equals_the_char_by_char_reference(
            chars in proptest::collection::vec((0u32..7, proptest::any::<u32>()), 0..48),
            prefix in 0usize..64,
        ) {
            let s: String = chars.iter().map(|&(class, bits)| json_test_char(class, bits)).collect();
            let mut out = "x".repeat(prefix);
            json::string(&mut out, &s);
            let reference = json_string_reference(&s);
            proptest::prop_assert_eq!(&out[prefix..], reference.as_str());
        }
    }

    #[test]
    fn fingerprint64_is_stable_and_input_sensitive() {
        assert_eq!(fingerprint64(b"abc"), fingerprint64(b"abc"));
        assert_ne!(fingerprint64(b"abc"), fingerprint64(b"abd"));
        // Frozen value: cell-result cache keys depend on this function.
        assert_eq!(fingerprint64(b""), FNV_OFFSET);
    }

    /// Poison the override mutex on purpose: lock it, then panic while
    /// the guard is held.
    fn poison_override_lock() {
        let _ = std::panic::catch_unwind(|| {
            let _guard = OVERRIDE
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("poisoning the override lock on purpose");
        });
    }

    #[test]
    fn poisoned_override_still_resolves() {
        let _g = LOCK.lock().unwrap();
        set_dir("/tmp/before-poison");
        poison_override_lock();
        // A long-running daemon keeps resolving and re-pointing the cache
        // after one worker thread panicked mid-configuration.
        assert_eq!(resolved_dir(), Some(PathBuf::from("/tmp/before-poison")));
        set_dir("/tmp/after-poison");
        assert_eq!(resolved_dir(), Some(PathBuf::from("/tmp/after-poison")));
        disable();
        assert_eq!(resolved_dir(), None);
        reset_override();
    }

    #[test]
    fn concurrent_stores_of_same_key_are_safe() {
        let _g = LOCK.lock().unwrap();
        set_dir(temp_dir("concurrent"));
        static KIND: ArtifactKind = ArtifactKind::new("test-concurrent", 1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..20 {
                        assert!(KIND.store(b"shared", b"identical payload"));
                        if let Some(p) = KIND.load(b"shared") {
                            assert_eq!(p, b"identical payload");
                        }
                    }
                });
            }
        });
        assert_eq!(
            KIND.load(b"shared").as_deref(),
            Some(&b"identical payload"[..])
        );
        assert_eq!(
            KIND.counters().quarantined,
            0,
            "a reader racing a writer sees the old file or the new one, never damage"
        );
        reset_override();
    }

    #[test]
    fn hostile_payload_length_is_quarantined_not_an_overflow() {
        // A well-formed header whose payload_len is u64::MAX: key_len +
        // payload_len must not be computed with a panicking add.
        let _g = LOCK.lock().unwrap();
        let dir = temp_dir("hostile-length");
        set_dir(&dir);
        static KIND: ArtifactKind = ArtifactKind::new("test-hostile-length", 1);
        KIND.reset_counters();
        assert!(KIND.store(b"key", b"payload"));
        let path = KIND.path_for(&dir, b"key");
        let mut bytes = std::fs::read(&path).unwrap();
        for claimed in [u64::MAX, u64::MAX - 2, 1 << 63] {
            bytes[16..24].copy_from_slice(&claimed.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(KIND.load(b"key"), None, "payload_len {claimed}");
            assert!(corrupt_name(&path).exists() && !path.exists());
        }
        assert_eq!(KIND.counters().quarantined, 3);
        reset_override();
    }

    #[test]
    fn the_checksum_is_pinned() {
        // The container format must not drift silently: a changed value
        // here means every stored file fails its check — change MAGIC too.
        // (Values from an independent implementation of the definition.)
        assert_eq!(checksum(b"", b""), 0xe9de_7319_26c9_2707);
        assert_eq!(
            checksum(b"the key", b"a payload that ends mid-word"),
            0x75aa_327c_e5e9_340d
        );
        // Word boundaries and the two streams are part of the value.
        assert_ne!(checksum(b"ab", b"c"), checksum(b"a", b"bc"));
        assert_ne!(checksum(b"", b"\0"), checksum(b"", b""));
        assert_ne!(checksum(b"", &[0; 8]), checksum(b"", &[0; 16]));
    }

    #[test]
    fn the_checksum_is_pinned_across_whole_lane_blocks() {
        // Both pins above end inside the first block of eight words; this
        // one runs the block loop (a 28-byte key, a 100-byte payload).
        // (Value from an independent implementation of the definition.)
        let payload: Vec<u8> = (0..100).collect();
        assert_eq!(checksum(&[b'k'; 28], &payload), 0x6499_bb7c_70f3_ed0e);
    }

    #[test]
    fn no_one_or_two_bit_flip_keeps_the_checksum() {
        // Exhaustive over a 128-byte entry (28-byte key, 100-byte
        // payload): 1024 single flips and 523 776 pairs.
        let original: Vec<u8> = (0..128u32).map(|i| (i * 37 + 11) as u8).collect();
        let sum = |e: &[u8]| checksum(&e[..28], &e[28..]);
        let good = sum(&original);
        let mut entry = original.clone();
        let bits = entry.len() * 8;
        for a in 0..bits {
            entry[a / 8] ^= 1 << (a % 8);
            assert_ne!(sum(&entry), good, "bit {a}");
            for b in a + 1..bits {
                entry[b / 8] ^= 1 << (b % 8);
                assert_ne!(sum(&entry), good, "bits {a} and {b}");
                entry[b / 8] ^= 1 << (b % 8);
            }
            entry[a / 8] ^= 1 << (a % 8);
        }
        assert_eq!(entry, original);
    }

    #[test]
    fn no_damaged_file_is_ever_a_hit() {
        // On disk, a small entry (7-byte key, 21-byte payload): every
        // 1-bit flip of the whole file, every 2-bit flip inside key +
        // payload, every truncation and every one-byte extension. Damage
        // to the payload or a length quarantines; a changed stored key (or
        // key length, or version) is the plain mismatch of a healthy file
        // that belongs to someone else.
        let _g = LOCK.lock().unwrap();
        let dir = temp_dir("damage");
        set_dir(&dir);
        static KIND: ArtifactKind = ArtifactKind::new("test-damage", 1);
        KIND.reset_counters();
        let (key, payload) = (&b"the key"[..], &b"twenty-one byte load."[..]);
        assert!(KIND.store(key, payload));
        let path = KIND.path_for(&dir, key);
        let aside = corrupt_name(&path);
        let good = std::fs::read(&path).unwrap();
        assert_eq!(good.len(), HEADER_LEN + key.len() + payload.len());

        // Load `bytes` from the entry's name; report whether it was
        // quarantined. Never a hit.
        let quarantined = |bytes: &[u8], what: &str| -> bool {
            std::fs::write(&path, bytes).unwrap();
            let before = KIND.counters();
            assert_eq!(KIND.load(key), None, "{what} must not be a hit");
            let c = KIND.counters().since(before);
            assert_eq!((c.hits, c.misses), (0, 1), "{what}");
            assert_eq!(aside.exists(), c.quarantined == 1, "{what}");
            assert_eq!(path.exists(), c.quarantined == 0, "{what}");
            let _ = std::fs::remove_file(&aside);
            c.quarantined == 1
        };
        let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);

        let key_bits = HEADER_LEN * 8..(HEADER_LEN + key.len()) * 8;
        // Version and key length say "another artifact", not "damage".
        let foreign_header_bits = 8 * 8..16 * 8;
        let mut bytes = good.clone();
        for a in 0..good.len() * 8 {
            flip(&mut bytes, a);
            let healthy_stranger = key_bits.contains(&a) || foreign_header_bits.contains(&a);
            assert_eq!(
                quarantined(&bytes, &format!("bit {a}")),
                !healthy_stranger,
                "bit {a}"
            );
            if a >= key_bits.start {
                for b in a + 1..good.len() * 8 {
                    flip(&mut bytes, b);
                    assert_eq!(
                        quarantined(&bytes, &format!("bits {a} and {b}")),
                        !key_bits.contains(&a),
                        "bits {a} and {b}"
                    );
                    flip(&mut bytes, b);
                }
            }
            flip(&mut bytes, a);
        }
        for cut in 0..good.len() {
            assert!(quarantined(&good[..cut], &format!("cut at {cut}")));
        }
        for extra in 0..=255u8 {
            let mut longer = good.clone();
            longer.push(extra);
            assert!(quarantined(&longer, &format!("extended by {extra:#04x}")));
        }
        // And the undamaged bytes still serve.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(KIND.load(key).as_deref(), Some(payload));
        reset_override();
    }

    /// A cache file as the parent commit's container wrote it: `SPROUTAC`
    /// magic, byte-wise FNV-1a checksum, name hash seeded with the kind's
    /// name only.
    fn parent_format_file(kind: &ArtifactKind, key: &[u8], payload: &[u8]) -> (String, Vec<u8>) {
        let hash = fnv1a(fnv1a(FNV_OFFSET, kind.name.as_bytes()), key);
        let name = format!("{}-v{}-{hash:016x}.bin", kind.name, kind.version);
        let mut bytes = b"SPROUTAC".to_vec();
        bytes.extend_from_slice(&kind.version.to_le_bytes());
        bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(fnv1a(FNV_OFFSET, key), payload).to_le_bytes());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(payload);
        (name, bytes)
    }

    #[test]
    fn parent_format_files_are_never_opened_and_old_magic_is_damage() {
        let _g = LOCK.lock().unwrap();
        let dir = temp_dir("old-format");
        set_dir(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        static KIND: ArtifactKind = ArtifactKind::new("test-old-format", 1);
        KIND.reset_counters();
        let (old_name, old_bytes) = parent_format_file(&KIND, b"k", b"an old payload");
        let new_path = KIND.path_for(&dir, b"k");
        assert_ne!(dir.join(&old_name), new_path, "the magic seeds the name");

        // A directory the parent wrote: a plain miss, nothing touched.
        std::fs::write(dir.join(&old_name), &old_bytes).unwrap();
        assert_eq!(KIND.load(b"k"), None);
        let c = KIND.counters();
        assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 0));
        let listing: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(listing, std::slice::from_ref(&old_name));
        assert_eq!(std::fs::read(dir.join(&old_name)).unwrap(), old_bytes);

        // The same bytes under a new-format name are not this format.
        std::fs::write(&new_path, &old_bytes).unwrap();
        assert_eq!(KIND.load(b"k"), None);
        assert_eq!(KIND.counters().quarantined, 1);
        assert!(corrupt_name(&new_path).exists() && !new_path.exists());
        // Storing beside the old file serves, and leaves it alone.
        assert!(KIND.store(b"k", b"a new payload"));
        assert_eq!(KIND.load(b"k").as_deref(), Some(&b"a new payload"[..]));
        assert_eq!(std::fs::read(dir.join(&old_name)).unwrap(), old_bytes);
        reset_override();
    }
}
