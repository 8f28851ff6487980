//! Seeded mutation suite for snapshot restore: whatever a damaged tenant
//! checkpoint holds, restoring it either fails with a typed
//! [`PersistError`] or yields a tenant that slides on and snapshots again.
//! It never panics.
//!
//! Two inputs, both steady-state tenants (windows full, evictions under
//! way): the `fleetload` tenant (a 3×3 grid, Global-NN) and the same grid
//! under semi-global NN with `d = 2`. Two mutation levels:
//!
//! * **Values** (256 cases per input): one value of the payload tree is
//!   replaced by `u64::MAX`, 0, −1, `f64::MAX`, `null` or `[]`; or an
//!   integer is shifted by +1 or scaled ×10⁶; or an array element is
//!   dropped or duplicated. The mutated payload goes to
//!   [`TenantRuntime::restore`].
//! * **Bytes** (96 cases per input): the shard checkpoint file holding the
//!   tenant's record gets bit flips, a truncation or a splice. Half the
//!   cases mutate the payload only and recompute the record header's length
//!   and checksum, so the payload decoder is reached and not only the
//!   checksum; the file goes to [`DetectorFleet::resume_from`].
//!
//! An accepted case slides 4 more epochs and re-snapshots.

mod mutate;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use wsn_bench::fleetload::{epoch_batch, tenant_spec};
use wsn_core::experiment::{AlgorithmConfig, RankingChoice};
use wsn_core::persist::{self, JsonValue, PersistError};
use wsn_data::rng::SeededRng;
use wsn_fleet::{DetectorFleet, TenantId, TenantRuntime, TenantSpec};

const SEED: u64 = 0x5EED_0016;
/// Epochs before the snapshot: the `w = 8` windows are full and sliding.
const WARMUP_EPOCHS: u64 = 11;
/// Epochs an accepted restore must slide on.
const LATER_EPOCHS: u64 = 4;
const VALUE_CASES: usize = 256;
const BYTE_CASES: usize = 96;

/// What one case came to.
#[derive(Default, Debug)]
struct Tally {
    accepted: usize,
    refused: usize,
    panics: Vec<String>,
}

impl Tally {
    fn assert_clean(&self, what: &str) {
        assert!(self.panics.is_empty(), "{what}: {} panics: {:#?}", self.panics.len(), self);
        assert!(
            self.accepted > 0 && self.refused > 0,
            "{what}: one outcome never occurs: {self:?}"
        );
    }
}

fn global_spec() -> TenantSpec {
    tenant_spec()
}

fn semi_global_spec() -> TenantSpec {
    let ranking = RankingChoice::Nn;
    TenantSpec {
        algorithm: AlgorithmConfig::SemiGlobal { ranking, hop_diameter: 2 },
        ..tenant_spec()
    }
}

/// Feeds epochs `epochs` of the workload stream to `runtime` and slides.
fn feed(runtime: &mut TenantRuntime, epochs: std::ops::Range<u64>) {
    for epoch in epochs {
        runtime.ingest(epoch_batch(7, epoch));
    }
    runtime.run_due(true);
}

fn steady_state(spec: &TenantSpec) -> TenantRuntime {
    let mut runtime = TenantRuntime::new(spec.clone()).unwrap();
    feed(&mut runtime, 0..WARMUP_EPOCHS);
    runtime
}

/// Restores `payload` into a fresh tenant; an accepted one slides on and
/// snapshots again. Returns the restore's refusal, if any.
fn restore_and_continue(spec: &TenantSpec, payload: &JsonValue) -> Result<(), PersistError> {
    let mut runtime = TenantRuntime::new(spec.clone()).unwrap();
    runtime.restore(payload)?;
    feed(&mut runtime, WARMUP_EPOCHS..WARMUP_EPOCHS + LATER_EPOCHS);
    std::hint::black_box(runtime.snapshot_payload());
    Ok(())
}

/// Runs `case`, recording its outcome. Any panic is a failure of the suite.
fn record(tally: &mut Tally, label: String, case: impl FnOnce() -> Result<(), PersistError>) {
    match catch_unwind(AssertUnwindSafe(case)) {
        Ok(Ok(())) => tally.accepted += 1,
        Ok(Err(_)) => tally.refused += 1,
        Err(payload) => tally.panics.push(format!("{label}: {}", mutate::panic_message(&*payload))),
    }
}

// ---------------------------------------------------------------------------
// Value-level mutations
// ---------------------------------------------------------------------------

/// One value-level mutation of `payload`, chosen by `rng`, and its label.
fn mutate_value(rng: &mut SeededRng, payload: &JsonValue) -> (JsonValue, String) {
    let mut all = Vec::new();
    mutate::paths(payload, &mut Vec::new(), &mut all);
    let mut mutated = payload.clone();
    loop {
        let path = &all[rng.gen_index(all.len())];
        let node = mutate::at_mut(&mut mutated, path);
        let kind = rng.gen_index(10);
        let label = format!("{kind} at {path:?}");
        match (kind, &mut *node) {
            (0, _) => *node = JsonValue::from(u64::MAX),
            (1, _) => *node = JsonValue::from(0u64),
            (2, _) => *node = JsonValue::from(-1i64),
            (3, _) => *node = JsonValue::Number(f64::MAX),
            (4, _) => *node = JsonValue::Null,
            (5, _) => *node = JsonValue::Array(Vec::new()),
            (6, JsonValue::Int(i)) => *i += 1,
            (7, JsonValue::Int(i)) => *i *= 1_000_000,
            (8, JsonValue::Array(items)) if !items.is_empty() => {
                items.remove(rng.gen_index(items.len()));
            }
            (9, JsonValue::Array(items)) if !items.is_empty() => {
                let i = rng.gen_index(items.len());
                items.insert(i, items[i].clone());
            }
            _ => continue,
        }
        return (mutated, label);
    }
}

fn value_mutations(spec: &TenantSpec, seed: u64) -> Tally {
    let payload = steady_state(spec).snapshot_payload();
    restore_and_continue(spec, &payload).expect("the intact payload restores");
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for case in 0..VALUE_CASES {
        let (mutated, label) = mutate_value(&mut rng, &payload);
        record(&mut tally, format!("case {case}, {label}"), || {
            restore_and_continue(spec, &mutated)
        });
    }
    tally
}

#[test]
fn value_mutations_of_a_global_snapshot_never_panic() {
    value_mutations(&global_spec(), SEED).assert_clean("global, values");
}

#[test]
fn value_mutations_of_a_semi_global_snapshot_never_panic() {
    value_mutations(&semi_global_spec(), SEED + 1).assert_clean("semi-global, values");
}

// ---------------------------------------------------------------------------
// Byte-level mutations
// ---------------------------------------------------------------------------

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-mutate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One byte-level mutation of `bytes`: bit flips (anywhere, or the low
/// bit of digits, which keeps the JSON well-formed), a truncation or a
/// splice.
fn mutate_bytes(rng: &mut SeededRng, bytes: &[u8]) -> (Vec<u8>, String) {
    let mut out = bytes.to_vec();
    let label = match rng.gen_index(4) {
        0 => mutate::flip_bits(rng, &mut out),
        1 => {
            let digits: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_ascii_digit()).collect();
            let at = digits[rng.gen_index(digits.len())];
            out[at] ^= 1;
            format!("digit flip at {at}")
        }
        2 => mutate::truncate(rng, &mut out),
        _ => mutate::splice(rng, &mut out),
    };
    (out, label)
}

fn byte_mutations(spec: &TenantSpec, seed: u64, tag: &str) -> Tally {
    let (dir, resnapshots) = (scratch_dir(tag), scratch_dir(&format!("{tag}-again")));
    let mut live = DetectorFleet::sequential();
    live.add_tenant(TenantId(0), spec.clone()).unwrap();
    live.checkpoint_every_epochs(1, &dir);
    for epoch in 0..WARMUP_EPOCHS {
        live.ingest(TenantId(0), epoch_batch(7, epoch)).unwrap();
        live.step().unwrap();
    }
    let path = live.checkpoint_path(&dir, TenantId(0));
    let original = std::fs::read(&path).unwrap();
    // The shard header line, the record header line and the payload line.
    let lines: Vec<&[u8]> = original.split(|&b| b == b'\n').collect();
    let (shard_header, record_header, payload) = (lines[0], lines[1], lines[2]);
    let kind = persist::str_field(
        &JsonValue::parse(std::str::from_utf8(record_header).unwrap()).unwrap(),
        "kind",
    )
    .unwrap()
    .to_string();

    let mut rng = SeededRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for case in 0..BYTE_CASES {
        let recompute = case % 2 == 0;
        let (file, label) = if recompute {
            let (payload, label) = mutate_bytes(&mut rng, payload);
            let mut file = shard_header.to_vec();
            file.push(b'\n');
            file.extend(persist::frame_record(&kind, 0, &payload));
            (file, format!("payload {label}, header fixed"))
        } else {
            mutate_bytes(&mut rng, &original)
        };
        std::fs::write(&path, &file).unwrap();
        record(&mut tally, format!("case {case}, {label}"), || {
            resume_and_continue(spec, &dir, &resnapshots)
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&resnapshots);
    tally
}

/// Resumes a one-tenant fleet from `dir`; a restored tenant slides on,
/// checkpointing into `resnapshots`.
fn resume_and_continue(
    spec: &TenantSpec,
    dir: &Path,
    resnapshots: &Path,
) -> Result<(), PersistError> {
    let mut fleet = DetectorFleet::sequential();
    fleet.add_tenant(TenantId(0), spec.clone()).unwrap();
    let report = fleet.resume_from(dir);
    if let Some((_, error)) = report.failed.into_iter().next() {
        return Err(error);
    }
    fleet.checkpoint_every_epochs(1, resnapshots);
    for epoch in WARMUP_EPOCHS..WARMUP_EPOCHS + LATER_EPOCHS {
        fleet.ingest(TenantId(0), epoch_batch(7, epoch)).unwrap();
        fleet.step().unwrap();
    }
    fleet.flush().unwrap();
    Ok(())
}

#[test]
fn byte_mutations_of_a_global_checkpoint_never_panic() {
    byte_mutations(&global_spec(), SEED + 2, "global").assert_clean("global, bytes");
}

#[test]
fn byte_mutations_of_a_semi_global_checkpoint_never_panic() {
    byte_mutations(&semi_global_spec(), SEED + 3, "semi").assert_clean("semi-global, bytes");
}

// ---------------------------------------------------------------------------
// The point table of a real tenant
// ---------------------------------------------------------------------------

/// In a steady-state fleetload tenant, every node dump writes each distinct
/// observation as exactly one row, and references every row it writes.
#[test]
fn each_observation_is_one_row_per_node_dump() {
    let payload = steady_state(&global_spec()).snapshot_payload();
    for entry in persist::array_field(&payload, "nodes").unwrap() {
        let dump = &entry.as_array().unwrap()[1];
        let table = persist::array_field(dump, "table").unwrap();
        let mut rows: Vec<String> = table.iter().map(JsonValue::to_compact_string).collect();
        rows.sort();
        rows.dedup();
        assert_eq!(rows.len(), table.len(), "a repeated row in {}", dump.to_compact_string());

        let mut referenced = vec![false; table.len()];
        let mut mark = |refs: &JsonValue| {
            for pair in refs.as_array().unwrap().chunks(2) {
                referenced[pair[0].as_u64().unwrap() as usize] = true;
            }
        };
        let window = persist::field(dump, "window").unwrap();
        mark(persist::field(window, "points").unwrap());
        let book = persist::field(dump, "book").unwrap();
        for pair in persist::array_field(book, "shared_with").unwrap() {
            mark(&pair.as_array().unwrap()[1]);
        }
        assert!(referenced.iter().all(|&r| r), "every row is referenced");
        let window_points = persist::array_field(window, "points").unwrap().len() / 2;
        assert_eq!(table.len(), window_points, "the window holds every observation once");
    }
}
