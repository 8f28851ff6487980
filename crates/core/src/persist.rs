//! Crash-safe persistence: snapshot/restore for detector and engine state.
//!
//! This module lets a long streaming run survive a process kill: every piece
//! of **canonical** node state — the sliding window, the per-neighbour
//! shared-knowledge sets, the quiet ledger, the liveness bookkeeping, the
//! fixed-point engine's per-neighbour `H` chains, and the centralized sink's
//! collected union — serializes to a [`wsn_json::JsonValue`] and back.
//! Derived state (spatial indexes, rank bounds, seed/support caches) is
//! deliberately *not* persisted: it is rebuilt cold on restore, and the
//! detectors' outputs are exact regardless of cache temperature (stale rank
//! bounds are still upper bounds; see [`crate::sufficient`]).
//!
//! # File format
//!
//! A snapshot file is two lines of text:
//!
//! ```text
//! {"format":"wsn-persist","kind":"checkpoint","version":3,"len":N,"checksum":C}
//! { ... payload JSON, exactly N bytes, FNV-1a 64 checksum C ... }
//! ```
//!
//! The header is written in the same compact JSON as the payload, so the
//! whole file stays greppable. `len` and `checksum` cover the payload bytes
//! only — a torn tail, a flipped bit, or a truncated file all fail
//! [`read_verified`] with a typed [`PersistError`] instead of silently
//! loading garbage.
//!
//! # Point tables
//!
//! A node holds one observation in many sets at once: its window, the
//! `shared_with` set of every neighbour that has it, and the `membership`
//! of every fixed-point chain that ranks it. Each node dump therefore
//! carries one point table, a closing `"table"` field written by
//! [`PointTable`]. Each distinct observation is one row,
//! `[origin, epoch, micros, f_1, …, f_k]`, and every point set in the dump
//! is a flat list `[row, hop, row, hop, …]` of references into it:
//!
//! ```text
//! {"kind":"detector", …,
//!  "window":{…,"points":[0,0,1,0,2,1]},
//!  "book":{…,"shared_with":[[4,[2,1]]],…},
//!  "engines":[[{"j":4,"membership":[0,0,1,0,2,1],…}]],
//!  "table":[[3,17,527000000,20.25],[3,18,558000000,19.5],[4,18,558000000,35.0]]}
//! ```
//!
//! Rows are deduplicated by the whole observation — key, timestamp and
//! feature bits — never by the key alone, so a same-key copy that differs
//! gets a row of its own and the encoding is lossless. Rows are numbered in
//! first-reference order over the dump's fixed traversal, so re-encoding a
//! restored node reproduces its dump byte for byte. On restore,
//! [`PointRows`] turns each distinct `(row, hop)` reference into one shared
//! point, as in the live node. It refuses, as [`PersistError::Schema`], an
//! out-of-range row, an odd-length reference list, a hop that overflows
//! [`HopCount`], a non-finite feature and rows of mixed feature counts.
//! Versions 1 and 2 wrote a full copy of a point per set; their files get
//! [`PersistError::Version`].
//!
//! # Atomicity contract
//!
//! [`write_atomic`] never exposes a half-written file under the target name:
//! the bytes go to a `*.tmp` sibling, the file is fsynced, then renamed over
//! the target, then the directory is fsynced. A crash before the rename
//! leaves the previous snapshot intact; a crash after it leaves the new one.
//! There is no third state.
//!
//! # Versioning contract — how to add a field
//!
//! Snapshots carry [`PERSIST_VERSION`] in the header. To add a field to a
//! payload: emit it in the `persist_snapshot` of the owning type, read it in
//! the matching `persist_restore`, and — if old snapshots must keep loading —
//! read it with a default instead of [`PersistError::Schema`]. For any
//! change that alters the *meaning* of existing fields, bump
//! [`PERSIST_VERSION`]; [`read_verified`] refuses other versions with
//! [`PersistError::Version`], which is the wanted behaviour for state whose
//! misinterpretation would silently corrupt a resumed run.
//!
//! # Crash-injection harness
//!
//! Tests (and the `crash_resume` CI binary) call [`arm_crash_point`] to make
//! the *n*-th pass through a named [`crash_point`] hook panic, simulating a
//! kill at exactly that boundary. The armed state is thread-local, so
//! parallel tests cannot trip each other's crashes.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use crate::experiment::ExperimentConfig;
use crate::sufficient::{FixedPointEngine, NeighborStateDump};
use wsn_data::window::{SlidingWindow, WindowConfig};
use wsn_data::{DataPoint, Epoch, HopCount, PointKey, PointSet, SensorId, Timestamp};
/// The document model every snapshot serializes to, re-exported from
/// `wsn-json` so callers holding dumps (every `persist_snapshot` return
/// value) can name the type without depending on the JSON crate directly.
pub use wsn_json::JsonValue;

/// The `format` discriminator every persisted file's header carries.
pub const PERSIST_FORMAT: &str = "wsn-persist";

/// The current on-disk format version (see the module docs for the
/// compatibility contract). Version 2 replaced the separate global and
/// semi-global node payloads with one `detector` payload that nests the
/// neighbour book; version 3 writes each observation once, in a per-dump
/// point table, and every point set as references into it.
pub const PERSIST_VERSION: u64 = 3;

/// Telemetry ([`wsn_obs`]): snapshots written and their total size.
pub(crate) static OBS_SNAPSHOTS_WRITTEN: wsn_obs::Counter =
    wsn_obs::Counter::new("persist.snapshots_written");
pub(crate) static OBS_SNAPSHOT_BYTES: wsn_obs::Counter =
    wsn_obs::Counter::new("persist.snapshot_bytes");

/// Errors of the persistence layer. Every failure to write, read, verify or
/// install persisted state is typed — a caller can distinguish "the disk
/// failed" from "the file is torn" from "this snapshot belongs to a
/// different experiment".
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(String),
    /// The file is torn, truncated, or fails its checksum — it must not be
    /// loaded.
    Corrupt(String),
    /// The file was written by an incompatible format version.
    Version {
        /// Version found in the file header.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The payload is well-formed JSON but missing or mistyping a field.
    Schema(String),
    /// The state is internally valid but belongs to a different experiment,
    /// node, or point in time than the one it is being restored into.
    Mismatch(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "persistence I/O error: {msg}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt persisted state: {msg}"),
            PersistError::Version { found, expected } => {
                write!(f, "unsupported snapshot version {found} (this build reads {expected})")
            }
            PersistError::Schema(msg) => write!(f, "malformed persisted state: {msg}"),
            PersistError::Mismatch(msg) => write!(f, "mismatched persisted state: {msg}"),
        }
    }
}

impl Error for PersistError {}

/// FNV-1a, 64-bit: the dependency-free checksum guarding every snapshot
/// payload and journal row. Not cryptographic — it detects torn writes and
/// bit rot, which is all the crash model needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A stable fingerprint of an experiment configuration, stamped into every
/// checkpoint and journal row so state from a different experiment is
/// refused (not silently loaded) on resume.
pub fn config_hash(config: &ExperimentConfig) -> u64 {
    fnv1a64(format!("{config:?}").as_bytes())
}

// ---------------------------------------------------------------------------
// Crash-injection harness
// ---------------------------------------------------------------------------

/// Prefix of the panic message an armed [`crash_point`] fires with, so tests
/// can tell an injected kill from a genuine bug.
pub const CRASH_MARKER: &str = "injected crash at ";

thread_local! {
    /// The armed crash, if any: `(hook name, hits remaining)`.
    static ARMED_CRASH: RefCell<Option<(String, u32)>> = const { RefCell::new(None) };
}

/// Arms the crash harness: the `nth_hit`-th pass (1-based) through the
/// [`crash_point`] named `name` on **this thread** will panic with
/// [`CRASH_MARKER`]. Arming replaces any previously armed crash.
///
/// # Panics
///
/// Panics if `nth_hit` is zero.
pub fn arm_crash_point(name: &str, nth_hit: u32) {
    assert!(nth_hit >= 1, "nth_hit is 1-based");
    ARMED_CRASH.with(|cell| *cell.borrow_mut() = Some((name.to_string(), nth_hit)));
}

/// Disarms any armed crash point on this thread.
pub fn disarm_crash_points() {
    ARMED_CRASH.with(|cell| *cell.borrow_mut() = None);
}

/// A named kill site. No-op unless [`arm_crash_point`] armed this name on
/// this thread; then the armed hit count is decremented and, on reaching
/// zero, the process "dies" (panics with [`CRASH_MARKER`] — callers
/// simulating a kill catch the unwind or let the process abort).
///
/// Compiled-in sites: `persist.before_write`, `persist.before_rename`,
/// `persist.after_rename` (inside [`write_atomic`]) and
/// `persist.after_checkpoint` (after a streaming checkpoint completes).
pub fn crash_point(name: &str) {
    let fire = ARMED_CRASH.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some((armed, remaining)) if armed == name => {
                *remaining -= 1;
                if *remaining == 0 {
                    *slot = None;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    });
    if fire {
        panic!("{CRASH_MARKER}{name}");
    }
}

// ---------------------------------------------------------------------------
// Atomic file I/O
// ---------------------------------------------------------------------------

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> PersistError {
    PersistError::Io(format!("{what} {}: {e}", path.display()))
}

/// Writes `payload` under `path` atomically: tmp-file sibling → fsync →
/// rename → directory fsync. Returns the number of bytes written. `kind`
/// names the payload schema in the header (`"checkpoint"`, …) and is
/// checked back by readers.
///
/// # Errors
///
/// Returns [`PersistError::Io`] if any filesystem step fails; on error the
/// target file is either absent or still the previous complete version.
pub fn write_atomic(path: &Path, kind: &str, payload: &JsonValue) -> Result<u64, PersistError> {
    crash_point("persist.before_write");
    let payload_text = payload.to_compact_string();
    let header = JsonValue::Object(vec![
        ("format".into(), JsonValue::from(PERSIST_FORMAT)),
        ("kind".into(), JsonValue::from(kind)),
        ("version".into(), JsonValue::from(PERSIST_VERSION)),
        ("len".into(), JsonValue::from(payload_text.len() as u64)),
        ("checksum".into(), JsonValue::from(fnv1a64(payload_text.as_bytes()))),
    ])
    .to_compact_string();
    let file_name = path
        .file_name()
        .ok_or_else(|| PersistError::Io(format!("{} has no file name", path.display())))?;
    let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
    {
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("cannot create", &tmp, &e))?;
        file.write_all(header.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.write_all(payload_text.as_bytes()))
            .and_then(|()| file.write_all(b"\n"))
            .map_err(|e| io_err("cannot write", &tmp, &e))?;
        file.sync_all().map_err(|e| io_err("cannot fsync", &tmp, &e))?;
    }
    crash_point("persist.before_rename");
    fs::rename(&tmp, path).map_err(|e| io_err("cannot rename into", path, &e))?;
    if let Some(dir) = path.parent() {
        // Make the rename itself durable. Directory fsync is best-effort:
        // some filesystems refuse to open directories for writing.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    crash_point("persist.after_rename");
    Ok((header.len() + payload_text.len() + 2) as u64)
}

/// Reads a file written by [`write_atomic`], verifying the header before a
/// single payload byte is interpreted: format tag, version, declared length,
/// checksum. Returns the header's `kind` and the parsed payload.
///
/// # Errors
///
/// [`PersistError::Io`] if the file cannot be read,
/// [`PersistError::Corrupt`] for a torn/truncated/bit-rotted file,
/// [`PersistError::Version`] for an incompatible format version.
pub fn read_verified(path: &Path) -> Result<(String, JsonValue), PersistError> {
    let file = fs::read(path).map_err(|e| io_err("cannot read", path, &e))?;
    let newline = file
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| PersistError::Corrupt("missing header line".into()))?;
    let (header_line, bytes) = (&file[..newline], &file[newline + 1..]);
    let header = std::str::from_utf8(header_line)
        .map_err(|e| PersistError::Corrupt(format!("header is not UTF-8: {e}")))
        .and_then(|line| {
            JsonValue::parse(line)
                .map_err(|e| PersistError::Corrupt(format!("unreadable header: {e}")))
        })?;
    let corrupt = |e: PersistError| PersistError::Corrupt(format!("bad header: {e}"));
    if str_field(&header, "format").map_err(corrupt)? != PERSIST_FORMAT {
        return Err(PersistError::Corrupt("not a wsn-persist file".into()));
    }
    let version = u64_field(&header, "version").map_err(corrupt)?;
    if version != PERSIST_VERSION {
        return Err(PersistError::Version { found: version, expected: PERSIST_VERSION });
    }
    let kind = str_field(&header, "kind").map_err(corrupt)?.to_string();
    let len = u64_field(&header, "len").map_err(corrupt)? as usize;
    if bytes.len() < len {
        return Err(PersistError::Corrupt(format!(
            "torn write: payload holds {} of {len} declared bytes",
            bytes.len()
        )));
    }
    let payload_bytes = &bytes[..len];
    let expected = u64_field(&header, "checksum").map_err(corrupt)?;
    let actual = fnv1a64(payload_bytes);
    if actual != expected {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch: header declares {expected}, payload hashes to {actual}"
        )));
    }
    let payload_text = std::str::from_utf8(payload_bytes)
        .map_err(|e| PersistError::Corrupt(format!("payload is not UTF-8: {e}")))?;
    let payload = JsonValue::parse(payload_text)
        .map_err(|e| PersistError::Corrupt(format!("unparsable payload: {e}")))?;
    Ok((kind, payload))
}

// ---------------------------------------------------------------------------
// Field accessors (decode side)
// ---------------------------------------------------------------------------
// The scalar accessors are `pub`: external persistence layers composing
// their own payloads around the snapshot dumps (e.g. `wsn-fleet`'s
// per-tenant checkpoints, `wsn-bench`'s sweep journal) parse with the same
// typed [`PersistError::Schema`] errors this module produces.

/// Looks up `key` in an object payload, as a typed [`PersistError::Schema`].
pub fn field<'v>(value: &'v JsonValue, key: &str) -> Result<&'v JsonValue, PersistError> {
    value.get(key).ok_or_else(|| PersistError::Schema(format!("missing field \"{key}\"")))
}

/// Reads `key` as an unsigned integer.
pub fn u64_field(value: &JsonValue, key: &str) -> Result<u64, PersistError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| PersistError::Schema(format!("field \"{key}\" is not an unsigned integer")))
}

pub(crate) fn u32_field(value: &JsonValue, key: &str) -> Result<u32, PersistError> {
    u32::try_from(u64_field(value, key)?)
        .map_err(|_| PersistError::Schema(format!("field \"{key}\" overflows u32")))
}

/// Reads `key` as a `usize`.
pub fn usize_field(value: &JsonValue, key: &str) -> Result<usize, PersistError> {
    usize::try_from(u64_field(value, key)?)
        .map_err(|_| PersistError::Schema(format!("field \"{key}\" overflows usize")))
}

/// Reads `key` as a number.
pub fn f64_field(value: &JsonValue, key: &str) -> Result<f64, PersistError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| PersistError::Schema(format!("field \"{key}\" is not a number")))
}

/// Reads `key` as a boolean.
pub fn bool_field(value: &JsonValue, key: &str) -> Result<bool, PersistError> {
    match field(value, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(PersistError::Schema(format!("field \"{key}\" is not a boolean"))),
    }
}

/// Reads `key` as a string slice.
pub fn str_field<'v>(value: &'v JsonValue, key: &str) -> Result<&'v str, PersistError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| PersistError::Schema(format!("field \"{key}\" is not a string")))
}

/// Reads `key` as an array slice.
pub fn array_field<'v>(value: &'v JsonValue, key: &str) -> Result<&'v [JsonValue], PersistError> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| PersistError::Schema(format!("field \"{key}\" is not an array")))
}

pub(crate) fn opt_u64_field(value: &JsonValue, key: &str) -> Result<Option<u64>, PersistError> {
    match field(value, key)? {
        JsonValue::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| PersistError::Schema(format!("field \"{key}\" is not null or u64"))),
    }
}

pub(crate) fn opt_f64_field(value: &JsonValue, key: &str) -> Result<Option<f64>, PersistError> {
    match field(value, key)? {
        JsonValue::Null => Ok(None),
        v => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| PersistError::Schema(format!("field \"{key}\" is not null or number"))),
    }
}

pub(crate) fn opt_u64_to_json(value: Option<u64>) -> JsonValue {
    match value {
        Some(v) => JsonValue::from(v),
        None => JsonValue::Null,
    }
}

pub(crate) fn opt_f64_to_json(value: Option<f64>) -> JsonValue {
    match value {
        Some(v) => JsonValue::Number(v),
        None => JsonValue::Null,
    }
}

/// Verifies a payload's embedded `kind` discriminator.
pub fn expect_kind(value: &JsonValue, kind: &str) -> Result<(), PersistError> {
    let found = str_field(value, "kind")?;
    if found != kind {
        return Err(PersistError::Mismatch(format!(
            "expected a \"{kind}\" payload, found \"{found}\""
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Point table
// ---------------------------------------------------------------------------

/// The encode side of one dump's point table (see the module docs). Every
/// distinct observation the dump references is written once, as a row;
/// every point set becomes a flat `[row, hop, …]` reference list. Rows are
/// deduplicated by the whole observation — key, timestamp and feature bits
/// — and numbered in first-reference order, so encoding one state in one
/// traversal order always yields the same dump.
#[derive(Default)]
pub struct PointTable {
    rows: Vec<Arc<DataPoint>>,
    /// The first row of each observation key.
    first_row: HashMap<PointKey, u32>,
}

impl PointTable {
    /// An empty table.
    pub fn new() -> Self {
        PointTable::default()
    }

    /// The row of `point`'s observation, appended if the table lacks it.
    fn row(&mut self, point: &Arc<DataPoint>) -> u32 {
        let fresh =
            u32::try_from(self.rows.len()).expect("a dump holds fewer than 2^32 observations");
        let first = *self.first_row.entry(point.key).or_insert(fresh);
        if first != fresh {
            // A same-key copy that differs from the first row is rare, so
            // later rows of its key are found by a scan.
            let later = self.rows[first as usize..]
                .iter()
                .position(|row| row.key == point.key && same_observation(row, point));
            if let Some(offset) = later {
                return first + offset as u32;
            }
        }
        self.rows.push(Arc::clone(point));
        fresh
    }

    /// References to `points`, in iteration order, as `[row, hop, …]`.
    pub(crate) fn refs<'p>(
        &mut self,
        points: impl IntoIterator<Item = &'p Arc<DataPoint>>,
    ) -> JsonValue {
        let points = points.into_iter();
        let mut refs = Vec::with_capacity(2 * points.size_hint().0);
        for point in points {
            refs.push(JsonValue::from(self.row(point)));
            refs.push(JsonValue::from(u32::from(point.hop)));
        }
        JsonValue::Array(refs)
    }

    /// References to a point set's points, in ascending key order.
    pub(crate) fn set(&mut self, set: &PointSet) -> JsonValue {
        self.refs(set.iter_arcs())
    }

    /// A `SensorId → PointSet` map as `[[id, [row, hop, …]], …]`.
    pub(crate) fn sets_by_id(&mut self, map: &BTreeMap<SensorId, PointSet>) -> JsonValue {
        JsonValue::Array(
            map.iter()
                .map(|(id, set)| JsonValue::Array(vec![JsonValue::from(id.raw()), self.set(set)]))
                .collect(),
        )
    }

    /// The `"table"` field that closes a dump object: one row
    /// `[origin, epoch, micros, f_1, …, f_k]` per observation, in row order.
    pub fn into_field(self) -> (String, JsonValue) {
        let rows = self
            .rows
            .iter()
            .map(|p| {
                let mut row = Vec::with_capacity(3 + p.features.len());
                row.push(JsonValue::from(p.key.origin.raw()));
                row.push(JsonValue::from(p.key.epoch.raw()));
                row.push(JsonValue::from(p.timestamp.as_micros()));
                row.extend(p.features.iter().map(|&f| JsonValue::Number(f)));
                JsonValue::Array(row)
            })
            .collect();
        ("table".into(), JsonValue::Array(rows))
    }
}

/// Whether two copies record the same observation: same key (the caller's
/// lookup), timestamp and feature bits. The hop is not part of it.
fn same_observation(a: &Arc<DataPoint>, b: &Arc<DataPoint>) -> bool {
    Arc::ptr_eq(a, b)
        || (a.timestamp == b.timestamp
            && a.features.len() == b.features.len()
            && a.features.iter().zip(&b.features).all(|(x, y)| x.to_bits() == y.to_bits()))
}

/// The decode side of a dump's point table: the parsed rows, and one
/// shared handle per `(row, hop)` reference, so every set of a restored
/// dump that references one copy of a point shares one allocation, as the
/// sets of a live node do.
pub struct PointRows {
    rows: Vec<DataPoint>,
    handles: HashMap<(usize, HopCount), Arc<DataPoint>>,
}

impl PointRows {
    /// Parses the `"table"` field of a dump written with
    /// [`PointTable::into_field`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] for a missing table, a row that is not
    /// `[origin, epoch, micros, f_1, …]`, a non-finite feature, or rows
    /// of different feature counts: every point of one node meets every
    /// other in a distance computation, so a mixed table would only fail
    /// later, as a panic.
    pub fn of(dump: &JsonValue) -> Result<Self, PersistError> {
        let malformed =
            || PersistError::Schema("point table row is not [origin, epoch, micros, f…]".into());
        let entries = array_field(dump, "table")?;
        let mut rows: Vec<DataPoint> = Vec::with_capacity(entries.len());
        for entry in entries {
            let cells = entry.as_array().filter(|cells| cells.len() >= 3).ok_or_else(malformed)?;
            let origin = cells[0].as_u64().and_then(|v| u32::try_from(v).ok());
            let (Some(origin), Some(epoch), Some(micros)) =
                (origin, cells[1].as_u64(), cells[2].as_u64())
            else {
                return Err(malformed());
            };
            let features = cells[3..]
                .iter()
                .map(|f| {
                    f.as_f64()
                        .ok_or_else(|| PersistError::Schema("point feature is not a number".into()))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            if let Some(first) = rows.first().filter(|p| p.dimension() != features.len()) {
                return Err(PersistError::Schema(format!(
                    "point table mixes {}- and {}-feature rows",
                    first.dimension(),
                    features.len()
                )));
            }
            let point = DataPoint::new(
                SensorId(origin),
                Epoch(epoch),
                Timestamp::from_micros(micros),
                features,
            )
            .map_err(|e| PersistError::Schema(format!("invalid point: {e}")))?;
            rows.push(point);
        }
        Ok(PointRows { rows, handles: HashMap::new() })
    }

    /// Resolves a `[row, hop, …]` reference list, in order.
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] for a list of odd length, a row outside the
    /// table, or a hop that overflows [`HopCount`].
    pub(crate) fn points(&mut self, refs: &JsonValue) -> Result<Vec<Arc<DataPoint>>, PersistError> {
        let cells = refs
            .as_array()
            .ok_or_else(|| PersistError::Schema("point references are not an array".into()))?;
        if cells.len() % 2 != 0 {
            return Err(PersistError::Schema(format!(
                "point reference list has odd length {}",
                cells.len()
            )));
        }
        cells.chunks_exact(2).map(|pair| self.point(&pair[0], &pair[1])).collect()
    }

    fn point(&mut self, row: &JsonValue, hop: &JsonValue) -> Result<Arc<DataPoint>, PersistError> {
        let not_integer =
            || PersistError::Schema("point reference is not a pair of unsigned integers".into());
        let (row, hop) =
            (row.as_u64().ok_or_else(not_integer)?, hop.as_u64().ok_or_else(not_integer)?);
        let index =
            usize::try_from(row).ok().filter(|&r| r < self.rows.len()).ok_or_else(|| {
                PersistError::Schema(format!(
                    "point reference row {row} lies outside the {}-row table",
                    self.rows.len()
                ))
            })?;
        let hop = HopCount::try_from(hop)
            .map_err(|_| PersistError::Schema(format!("hop count {hop} overflows")))?;
        let rows = &self.rows;
        let handle =
            self.handles.entry((index, hop)).or_insert_with(|| Arc::new(rows[index].with_hop(hop)));
        Ok(Arc::clone(handle))
    }

    /// Resolves a reference list into a point set.
    ///
    /// # Errors
    ///
    /// As [`PointRows::points`], and [`PersistError::Schema`] for a list
    /// that references one observation key twice: a set holds one copy.
    pub(crate) fn set(&mut self, refs: &JsonValue) -> Result<PointSet, PersistError> {
        let mut set = PointSet::new();
        for point in self.points(refs)? {
            let key = point.key;
            if !set.insert_arc(point) {
                return Err(PersistError::Schema(format!("point set references {key} twice")));
            }
        }
        Ok(set)
    }

    /// Resolves a [`PointTable::sets_by_id`] map.
    pub(crate) fn sets_by_id(
        &mut self,
        value: &JsonValue,
    ) -> Result<BTreeMap<SensorId, PointSet>, PersistError> {
        let entries = value
            .as_array()
            .ok_or_else(|| PersistError::Schema("per-neighbour set map is not an array".into()))?;
        let mut map = BTreeMap::new();
        for entry in entries {
            match entry.as_array() {
                Some([id, set]) => {
                    let id = id
                        .as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| PersistError::Schema("map key is not a sensor id".into()))?;
                    map.insert(SensorId(id), self.set(set)?);
                }
                _ => return Err(PersistError::Schema("map entry is not an [id, set] pair".into())),
            }
        }
        Ok(map)
    }
}

// ---------------------------------------------------------------------------
// Scalar codecs
// ---------------------------------------------------------------------------

pub(crate) fn key_to_json(key: &PointKey) -> JsonValue {
    JsonValue::Array(vec![JsonValue::from(key.origin.raw()), JsonValue::from(key.epoch.raw())])
}

pub(crate) fn key_from_json(value: &JsonValue) -> Result<PointKey, PersistError> {
    match value.as_array() {
        Some([o, e]) => Ok(PointKey {
            origin: SensorId(
                o.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| PersistError::Schema("point key origin is not a u32".into()))?,
            ),
            epoch: Epoch(
                e.as_u64()
                    .ok_or_else(|| PersistError::Schema("point key epoch is not a u64".into()))?,
            ),
        }),
        _ => Err(PersistError::Schema("point key is not a two-element array".into())),
    }
}

/// A `SensorId → V` map whose values encode as `width` integers, as
/// `[[id, v_1, …, v_width], …]`.
pub(crate) fn rows_by_id_to_json<V>(
    map: &BTreeMap<SensorId, V>,
    row: impl Fn(&V) -> Vec<u64>,
) -> JsonValue {
    JsonValue::Array(
        map.iter()
            .map(|(id, v)| {
                let cells = std::iter::once(u64::from(id.raw())).chain(row(v));
                JsonValue::Array(cells.map(JsonValue::from).collect())
            })
            .collect(),
    )
}

pub(crate) fn rows_by_id_from_json<V>(
    value: &JsonValue,
    width: usize,
    build: impl Fn(&[u64]) -> V,
) -> Result<BTreeMap<SensorId, V>, PersistError> {
    let malformed =
        || PersistError::Schema(format!("map entry is not an [id, {width} integers] row"));
    let entries = value
        .as_array()
        .ok_or_else(|| PersistError::Schema("id-keyed map is not an array".into()))?;
    let mut map = BTreeMap::new();
    for entry in entries {
        let cells = entry
            .as_array()
            .filter(|cells| cells.len() == width + 1)
            .and_then(|cells| cells.iter().map(JsonValue::as_u64).collect::<Option<Vec<u64>>>())
            .ok_or_else(malformed)?;
        let id = u32::try_from(cells[0])
            .map_err(|_| PersistError::Schema("map key is not a sensor id".into()))?;
        map.insert(SensorId(id), build(&cells[1..]));
    }
    Ok(map)
}

pub(crate) fn ids_to_json(ids: impl Iterator<Item = SensorId>) -> JsonValue {
    JsonValue::Array(ids.map(|id| JsonValue::from(id.raw())).collect())
}

pub(crate) fn ids_from_json(value: &JsonValue) -> Result<Vec<SensorId>, PersistError> {
    value
        .as_array()
        .ok_or_else(|| PersistError::Schema("id list is not an array".into()))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|raw| u32::try_from(raw).ok())
                .map(SensorId)
                .ok_or_else(|| PersistError::Schema("id list entry is not a sensor id".into()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Window and engine codecs
// ---------------------------------------------------------------------------

/// Serializes a sliding window: configuration, clock, revision, and its
/// contents as references into `table`.
pub fn snapshot_window(window: &SlidingWindow, table: &mut PointTable) -> JsonValue {
    JsonValue::Object(vec![
        ("length_micros".into(), JsonValue::from(window.config().length_micros)),
        ("now".into(), JsonValue::from(window.now().as_micros())),
        ("revision".into(), JsonValue::from(window.revision())),
        ("points".into(), table.set(window.contents())),
    ])
}

/// Rebuilds a sliding window from [`snapshot_window`] output, resolving its
/// contents against the dump's `rows`.
///
/// # Errors
///
/// [`PersistError::Schema`] for missing/mistyped fields or references and
/// [`PersistError::Corrupt`] for internally inconsistent state (a point
/// behind the window's own cutoff).
pub fn restore_window(
    value: &JsonValue,
    rows: &mut PointRows,
) -> Result<SlidingWindow, PersistError> {
    let config = WindowConfig::from_micros(u64_field(value, "length_micros")?)
        .map_err(|e| PersistError::Schema(format!("invalid window config: {e}")))?;
    SlidingWindow::from_parts(
        config,
        rows.set(field(value, "points")?)?,
        Timestamp::from_micros(u64_field(value, "now")?),
        u64_field(value, "revision")?,
    )
    .map_err(|e| PersistError::Corrupt(format!("inconsistent window state: {e}")))
}

/// The per-neighbour `H` chains of one engine, canonical core only (see
/// [`FixedPointEngine::export_neighbor_states`]).
pub(crate) fn engine_to_json(engine: &FixedPointEngine, table: &mut PointTable) -> JsonValue {
    JsonValue::Array(
        engine
            .export_neighbor_states()
            .into_iter()
            .map(|dump| {
                JsonValue::Object(vec![
                    ("j".into(), JsonValue::from(dump.neighbor.raw())),
                    ("membership".into(), table.set(&dump.membership)),
                    ("synced_at".into(), opt_u64_to_json(dump.synced_at)),
                    ("seed_at".into(), opt_u64_to_json(dump.seed_at)),
                    (
                        "unrecorded".into(),
                        JsonValue::Array(dump.unrecorded.iter().map(key_to_json).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

pub(crate) fn engine_dumps_from_json(
    value: &JsonValue,
    rows: &mut PointRows,
) -> Result<Vec<NeighborStateDump>, PersistError> {
    value
        .as_array()
        .ok_or_else(|| PersistError::Schema("engine state is not an array".into()))?
        .iter()
        .map(|entry| {
            Ok(NeighborStateDump {
                neighbor: SensorId(u32_field(entry, "j")?),
                membership: rows.set(field(entry, "membership")?)?,
                synced_at: opt_u64_field(entry, "synced_at")?,
                seed_at: opt_u64_field(entry, "seed_at")?,
                unrecorded: array_field(entry, "unrecorded")?
                    .iter()
                    .map(key_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(origin: u32, epoch: u64, secs: u64, hop: u16, v: f64) -> DataPoint {
        let mut p =
            DataPoint::new(SensorId(origin), Epoch(epoch), Timestamp::from_secs(secs), vec![v])
                .unwrap();
        p.hop = hop;
        p
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// Encodes `sets` into one table and decodes them back, through text.
    fn round_trip(sets: &[&PointSet]) -> (JsonValue, Vec<PointSet>) {
        let mut table = PointTable::new();
        let refs: Vec<JsonValue> = sets.iter().map(|set| table.set(set)).collect();
        let dump =
            JsonValue::Object(vec![("sets".into(), JsonValue::Array(refs)), table.into_field()]);
        let dump = JsonValue::parse(&dump.to_compact_string()).unwrap();
        let mut rows = PointRows::of(&dump).unwrap();
        let sets = array_field(&dump, "sets").unwrap();
        let back = sets.iter().map(|refs| rows.set(refs).unwrap()).collect();
        (dump, back)
    }

    /// Decodes the reference list `refs` against the table `table`: the
    /// error of whichever part fails first.
    fn decode_error(table: &str, refs: &str) -> PersistError {
        let dump = JsonValue::parse(&format!("{{\"table\":{table}}}")).unwrap();
        let refs = JsonValue::parse(refs).unwrap();
        match PointRows::of(&dump) {
            Ok(mut rows) => rows.set(&refs).unwrap_err(),
            Err(e) => e,
        }
    }

    #[test]
    fn point_sets_round_trip_exactly_through_the_table() {
        let a: PointSet =
            vec![pt(1, 0, 1, 0, 1.0), pt(2, 9, 2, 3, -2.5), pt(7, u64::MAX - 3, 1234, 5, -17.25)]
                .into_iter()
                .collect();
        let b: PointSet = vec![pt(2, 9, 2, 1, -2.5), pt(3, 4, 5, 0, 0.5)].into_iter().collect();
        let (_, back) = round_trip(&[&a, &b, &PointSet::new()]);
        assert_eq!(back, vec![a, b, PointSet::new()]);
        assert_eq!(back[0].get(&pt(7, u64::MAX - 3, 0, 0, 0.0).key).unwrap().hop, 5);
    }

    #[test]
    fn rows_are_deduplicated_by_the_whole_observation() {
        let first: PointSet = vec![pt(1, 0, 1, 0, 1.0), pt(2, 0, 1, 0, 2.0)].into_iter().collect();
        // The same observations at other hops, and a same-key copy of (2, 0)
        // whose features differ: only the latter needs a row of its own.
        let second: PointSet = vec![pt(1, 0, 1, 2, 1.0), pt(2, 0, 1, 1, 2.5)].into_iter().collect();
        let third: PointSet = vec![pt(2, 0, 1, 0, 2.0)].into_iter().collect();
        let (dump, back) = round_trip(&[&first, &second, &third]);
        let table = array_field(&dump, "table").unwrap();
        assert_eq!(table.len(), 3, "one row per distinct observation: {dump:?}");
        let refs = |i: usize| array_field(&dump, "sets").unwrap()[i].clone();
        let ints = |v: &[u64]| JsonValue::Array(v.iter().map(|&x| JsonValue::from(x)).collect());
        assert_eq!(refs(0), ints(&[0, 0, 1, 0]));
        assert_eq!(refs(1), ints(&[0, 2, 2, 1]));
        assert_eq!(refs(2), ints(&[1, 0]));
        assert_eq!(back, vec![first, second, third]);
    }

    #[test]
    fn restored_references_share_one_allocation_per_row_and_hop() {
        let window: PointSet = vec![pt(1, 0, 1, 1, 1.0), pt(2, 0, 1, 0, 2.0)].into_iter().collect();
        let shared: PointSet = vec![pt(1, 0, 1, 1, 1.0)].into_iter().collect();
        let other_hop: PointSet = vec![pt(1, 0, 1, 2, 1.0)].into_iter().collect();
        let (_, back) = round_trip(&[&window, &shared, &other_hop]);
        let key = pt(1, 0, 0, 0, 0.0).key;
        let handle = |i: usize| back[i].get_arc(&key).unwrap();
        assert!(Arc::ptr_eq(handle(0), handle(1)), "one copy, one allocation");
        assert!(!Arc::ptr_eq(handle(0), handle(2)), "another hop is another copy");
    }

    #[test]
    fn malformed_tables_and_references_are_typed_schema_errors() {
        let table = "[[1,0,1000000,1.5],[2,0,1000000,2.5]]";
        for (table, refs, what) in [
            (table, "[0,0,2,0]", "out-of-range row"),
            (table, "[0,0,1]", "odd-length list"),
            (table, "[0,65536]", "hop overflow"),
            (table, "[0,-1]", "negative hop"),
            (table, "[0,0,0,1]", "one key twice"),
            (table, "{}", "references not an array"),
            ("[[1,0,1000000,1e999]]", "[0,0]", "non-finite feature"),
            ("[[1,0,1000000,null]]", "[0,0]", "null feature"),
            ("[[1,0,1000000,1.5],[2,0,1000000,2.5,0.5]]", "[0,0]", "mixed dimensionality"),
            ("[[1,0]]", "[0,0]", "short row"),
            ("[[4294967296,0,1,1.5]]", "[0,0]", "origin overflow"),
            ("{}", "[]", "table not an array"),
        ] {
            let error = decode_error(table, refs);
            assert!(matches!(error, PersistError::Schema(_)), "{what}: {error:?}");
        }
        let missing = PointRows::of(&JsonValue::Object(Vec::new()));
        assert!(matches!(missing, Err(PersistError::Schema(_))));
    }

    #[test]
    fn windows_round_trip_through_snapshot_and_restore() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(50).unwrap());
        w.insert(pt(1, 0, 5, 0, 1.0));
        w.insert(pt(2, 0, 9, 1, 2.0));
        w.advance_to(Timestamp::from_secs(30));
        let mut table = PointTable::new();
        let snapshot = snapshot_window(&w, &mut table);
        let dump = JsonValue::Object(vec![("window".into(), snapshot), table.into_field()]);
        let mut rows = PointRows::of(&dump).unwrap();
        let restored = restore_window(field(&dump, "window").unwrap(), &mut rows).unwrap();
        assert_eq!(restored, w);
        assert_eq!(restored.revision(), w.revision());
    }

    #[test]
    fn atomic_write_and_read_verify_round_trip() {
        let dir = std::env::temp_dir().join(format!("wsn-persist-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        let payload = JsonValue::Object(vec![
            ("kind".into(), JsonValue::from("demo")),
            ("seed".into(), JsonValue::from(u64::MAX)),
        ]);
        let bytes = write_atomic(&path, "demo", &payload).unwrap();
        assert!(bytes > 0);
        let (kind, back) = read_verified(&path).unwrap();
        assert_eq!(kind, "demo");
        assert_eq!(back, payload);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_and_corrupted_files_are_refused_with_typed_errors() {
        let dir = std::env::temp_dir().join(format!("wsn-persist-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let payload = JsonValue::Object(vec![("x".into(), JsonValue::from(42u64))]);
        write_atomic(&path, "demo", &payload).unwrap();
        let full = fs::read_to_string(&path).unwrap();

        // Truncated payload (torn write).
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert!(matches!(read_verified(&path), Err(PersistError::Corrupt(_))));

        // Flipped payload byte (checksum).
        let flipped = full.replace("42", "43");
        assert_ne!(flipped, full);
        fs::write(&path, flipped).unwrap();
        assert!(matches!(read_verified(&path), Err(PersistError::Corrupt(_))));

        // Wrong version tag.
        let stale = PERSIST_VERSION - 1;
        let versioned = full
            .replace(&format!("\"version\":{PERSIST_VERSION}"), &format!("\"version\":{stale}"));
        assert_ne!(versioned, full);
        fs::write(&path, versioned).unwrap();
        assert_eq!(
            read_verified(&path),
            Err(PersistError::Version { found: stale, expected: PERSIST_VERSION })
        );

        // Not a persist file at all.
        fs::write(&path, "{\"rows\": []}\n").unwrap();
        assert!(matches!(read_verified(&path), Err(PersistError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_points_fire_on_the_armed_hit_only() {
        disarm_crash_points();
        crash_point("persist.test_site"); // unarmed: no-op
        arm_crash_point("persist.test_site", 2);
        crash_point("persist.other_site"); // wrong site: no-op
        crash_point("persist.test_site"); // first hit: survives
        let result = std::panic::catch_unwind(|| crash_point("persist.test_site"));
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(CRASH_MARKER), "panic message was {msg:?}");
        // The armed crash is consumed.
        crash_point("persist.test_site");
    }

    #[test]
    fn config_hash_separates_configurations() {
        let a = ExperimentConfig::small();
        let mut b = a.clone();
        b.sim_seed += 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        assert_eq!(config_hash(&a), config_hash(&a.clone()));
    }
}
