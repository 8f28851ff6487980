//! Seeded mutation suite for journal open: whatever a damaged sweep journal
//! holds, [`SweepJournal::open`] and `json_check` read it under one rule.
//! Neither panics, and on every case:
//!
//! * if `json_check` accepts the file, `open` loads the same rows and
//!   truncates nothing;
//! * if `open` refuses it with a typed [`PersistError`], `json_check`
//!   refuses it too;
//! * a tail that `open` truncates is refused by `json_check`, and the
//!   truncated file passes it (unless nothing is left);
//! * after `open` accepts, appending a row at `next_cell()` succeeds and
//!   the file then passes `json_check`.
//!
//! The input is the first 8 rows of the archived `results/journal.jsonl`,
//! written to a temp dir. Two mutation levels:
//!
//! * **Values** (256 cases): one value of one row is replaced by
//!   `u64::MAX`, 0, −1, `1e999`, `null`, `[]` or `""`; or an integer is
//!   shifted by +1 or scaled ×10⁶; or a field is removed; or a row is
//!   dropped, duplicated or swapped with the next.
//! * **Bytes** (128 cases): bit flips, a truncation, a splice, an inserted
//!   blank line, or CRLF line endings.

mod mutate;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use wsn_bench::check::check_file;
use wsn_bench::journal::{JournalRow, SweepJournal};
use wsn_data::rng::SeededRng;
use wsn_json::JsonValue;

const SEED: u64 = 0x5EED_10A1;
const ROWS: usize = 8;
const VALUE_CASES: usize = 256;
const BYTE_CASES: usize = 128;
/// Stands in for `1e999`, which no `JsonValue` emits (the emitter writes
/// a non-finite number as `null`); replaced in the text after emitting.
const INFINITE: &str = "1e999 goes here";

/// What the cases came to.
#[derive(Default, Debug)]
struct Tally {
    /// `json_check` accepted and `open` loaded every row.
    accepted: usize,
    /// `open` truncated a torn tail, which `json_check` refused.
    truncated: usize,
    /// Both refused.
    refused: usize,
    /// Panics and broken properties.
    failures: Vec<String>,
}

impl Tally {
    fn assert_clean(&self, what: &str) {
        eprintln!(
            "{what}: {} accepted, {} truncated, {} refused, {} failures",
            self.accepted,
            self.truncated,
            self.refused,
            self.failures.len()
        );
        assert!(self.failures.is_empty(), "{what}: {:#?}", self.failures);
        assert!(
            self.accepted > 0 && self.truncated > 0 && self.refused > 0,
            "{what}: one outcome never occurs: {self:?}"
        );
    }
}

enum Outcome {
    Accepted,
    Truncated,
    Refused,
}

fn archived_rows() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/journal.jsonl");
    let text = std::fs::read_to_string(path).expect("the archived journal is committed");
    text.lines().take(ROWS).map(str::to_string).collect()
}

fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-journal-mutate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal.jsonl")
}

/// The rows of `text`, each line read on its own.
fn rows_line_by_line(text: &str) -> Option<Vec<JournalRow>> {
    text.lines().map(|line| JournalRow::from_json(&JsonValue::parse(line).ok()?).ok()).collect()
}

/// Writes `bytes` as the journal at `path`, runs `json_check` and `open`
/// on it, and appends a row after an accepted open. `Err` names the
/// property the case broke.
fn judge(path: &Path, bytes: &[u8], template: &JournalRow) -> Result<Outcome, String> {
    std::fs::write(path, bytes).unwrap();
    let name = path.to_string_lossy();
    let checked = check_file(&name);
    let opened = SweepJournal::open(path);
    let left = std::fs::read(path).unwrap();
    let mut journal = match opened {
        Err(e) if checked.is_ok() => {
            return Err(format!("open refused ({e}), json_check accepted"))
        }
        Err(_) => return Ok(Outcome::Refused),
        Ok(journal) => journal,
    };
    let truncated = left.len() < bytes.len();
    match &checked {
        Ok(_) if truncated => return Err("json_check accepted, open truncated".into()),
        Ok(_) => {
            let text = std::str::from_utf8(bytes).expect("an accepted journal is UTF-8");
            if rows_line_by_line(text).as_deref() != Some(journal.rows()) {
                return Err("json_check accepted, open loaded other rows".into());
            }
        }
        Err(e) if !truncated && !bytes.is_empty() => {
            return Err(format!("json_check refused ({e}), open loaded the file whole"));
        }
        Err(_) => {}
    }
    if truncated && !left.is_empty() {
        check_file(&name).map_err(|e| format!("the truncated file fails json_check: {e}"))?;
    }
    let row = JournalRow { cell: journal.next_cell(), ..template.clone() };
    journal.append(row).map_err(|e| format!("an append after open failed: {e}"))?;
    check_file(&name).map_err(|e| format!("after an append: {e}"))?;
    Ok(if truncated { Outcome::Truncated } else { Outcome::Accepted })
}

/// Runs one case, recording its outcome; a panic or a broken property is
/// a failure of the suite.
fn record(tally: &mut Tally, label: String, case: impl FnOnce() -> Result<Outcome, String>) {
    match catch_unwind(AssertUnwindSafe(case)) {
        Ok(Ok(Outcome::Accepted)) => tally.accepted += 1,
        Ok(Ok(Outcome::Truncated)) => tally.truncated += 1,
        Ok(Ok(Outcome::Refused)) => tally.refused += 1,
        Ok(Err(broken)) => tally.failures.push(format!("{label}: {broken}")),
        Err(payload) => {
            tally.failures.push(format!("{label}: panic: {}", mutate::panic_message(&*payload)))
        }
    }
}

// ---------------------------------------------------------------------------
// Value-level mutations
// ---------------------------------------------------------------------------

/// One value-level mutation of `rows`, chosen by `rng`: the journal text
/// and its label.
fn mutate_values(rng: &mut SeededRng, rows: &[JsonValue]) -> (String, String) {
    let mut rows = rows.to_vec();
    let label = loop {
        let r = rng.gen_index(rows.len());
        let kind = rng.gen_index(13);
        if kind >= 10 {
            match kind {
                10 => {
                    rows.remove(r);
                    break format!("row {r} dropped");
                }
                11 => {
                    rows.insert(r, rows[r].clone());
                    break format!("row {r} duplicated");
                }
                _ if r + 1 < rows.len() => {
                    rows.swap(r, r + 1);
                    break format!("rows {r} and {} swapped", r + 1);
                }
                _ => continue,
            }
        }
        let mut all = vec![Vec::new()];
        mutate::paths(&rows[r], &mut Vec::new(), &mut all);
        let path = &all[rng.gen_index(all.len())];
        let node = mutate::at_mut(&mut rows[r], path);
        match (kind, &mut *node) {
            (0, _) => *node = JsonValue::from(u64::MAX),
            (1, _) => *node = JsonValue::from(0u64),
            (2, _) => *node = JsonValue::from(-1i64),
            (3, _) => *node = JsonValue::from(INFINITE),
            (4, _) => *node = JsonValue::Null,
            (5, _) => *node = JsonValue::Array(Vec::new()),
            (6, _) => *node = JsonValue::from(""),
            (7, JsonValue::Int(i)) => *i += 1,
            (8, JsonValue::Int(i)) => *i *= 1_000_000,
            (9, JsonValue::Object(pairs)) if !pairs.is_empty() => {
                pairs.remove(rng.gen_index(pairs.len()));
            }
            _ => continue,
        }
        break format!("row {r}: mutation {kind} at {path:?}");
    };
    let infinite = format!("\"{INFINITE}\"");
    let text =
        rows.iter().map(|row| row.to_compact_string().replace(&infinite, "1e999") + "\n").collect();
    (text, label)
}

#[test]
fn value_mutations_of_a_journal_never_panic_and_open_agrees_with_json_check() {
    let lines = archived_rows();
    let rows: Vec<JsonValue> = lines.iter().map(|l| JsonValue::parse(l).unwrap()).collect();
    let template = JournalRow::from_json(&rows[0]).unwrap();
    let path = scratch_file("values");
    let intact: String = lines.iter().map(|l| format!("{l}\n")).collect();
    assert!(matches!(judge(&path, intact.as_bytes(), &template), Ok(Outcome::Accepted)));

    let mut rng = SeededRng::seed_from_u64(SEED);
    let mut tally = Tally::default();
    for case in 0..VALUE_CASES {
        let (text, label) = mutate_values(&mut rng, &rows);
        record(&mut tally, format!("case {case}, {label}"), || {
            judge(&path, text.as_bytes(), &template)
        });
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    tally.assert_clean("values");
}

// ---------------------------------------------------------------------------
// Byte-level mutations
// ---------------------------------------------------------------------------

/// One byte-level mutation of `bytes`, chosen by `rng`, and its label.
fn mutate_bytes(rng: &mut SeededRng, bytes: &[u8]) -> (Vec<u8>, String) {
    let mut out = bytes.to_vec();
    let label = match rng.gen_index(5) {
        0 => mutate::flip_bits(rng, &mut out),
        1 => mutate::truncate(rng, &mut out),
        2 => mutate::splice(rng, &mut out),
        3 => {
            let starts: Vec<usize> = std::iter::once(0)
                .chain((0..out.len()).filter(|&i| out[i] == b'\n').map(|i| i + 1))
                .collect();
            let at = starts[rng.gen_index(starts.len())];
            out.insert(at, b'\n');
            format!("blank line inserted at {at}")
        }
        _ => {
            let every = rng.gen_bool(0.5);
            let newlines: Vec<usize> = (0..out.len()).filter(|&i| out[i] == b'\n').collect();
            let chosen = newlines[rng.gen_index(newlines.len())];
            for &at in newlines.iter().rev().filter(|&&at| every || at == chosen) {
                out.insert(at, b'\r');
            }
            if every {
                "CRLF line endings".to_string()
            } else {
                format!("CRLF ending at {chosen}")
            }
        }
    };
    (out, label)
}

#[test]
fn byte_mutations_of_a_journal_never_panic_and_open_agrees_with_json_check() {
    let lines = archived_rows();
    let template = JournalRow::from_json(&JsonValue::parse(&lines[0]).unwrap()).unwrap();
    let intact: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let path = scratch_file("bytes");

    let mut rng = SeededRng::seed_from_u64(SEED + 1);
    let mut tally = Tally::default();
    for case in 0..BYTE_CASES {
        let (bytes, label) = mutate_bytes(&mut rng, intact.as_bytes());
        record(&mut tally, format!("case {case}, {label}"), || judge(&path, &bytes, &template));
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    tally.assert_clean("bytes");
}
