//! Shared validators for the JSON artifacts this repository commits or
//! emits in CI: figure reports (`rows`), persistence snapshots and fleet
//! shard files (wsn-persist header line, see [`wsn_core::persist`]) and
//! sweep journals (JSONL rows, read under the journal's own rule,
//! [`ParsedJournal::parse`]).
//!
//! The `json_check` binary is a thin dispatcher over [`check_file`]; the
//! validators live here so the unit tests can exercise every rejection
//! path without spawning a process.

use crate::journal::ParsedJournal;
use wsn_core::persist;
use wsn_json::JsonValue;

/// Reads and validates one JSON artifact. Returns a one-line success
/// summary, or a message naming the first violation.
pub fn check_file(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read file: {e}"))?;
    check_text(path, &text)
}

/// Validates JSON text against whichever schema its shape declares:
/// a `wsn-persist` header line → persistence snapshot (or, with a
/// `records` count, a multi-record file such as a fleet shard), a first
/// line with a
/// `cell` key → sweep journal (JSONL), a `rows` key → figure report.
/// `path` only labels error messages.
pub fn check_text(path: &str, text: &str) -> Result<String, String> {
    // The persistence formats are line-oriented (header + payload lines,
    // or one row per line), so they dispatch on the first line before the
    // whole text is parsed as a single document.
    let first_line = text.split('\n').next().unwrap_or("");
    if let Ok(header) = JsonValue::parse(first_line) {
        if header.get("format").and_then(|f| f.as_str()) == Some("wsn-persist") {
            return check_snapshot(path, text, header.get("records").is_some());
        }
        if matches!(header, JsonValue::Object(_)) && header.get("cell").is_some() {
            return check_journal(path, text);
        }
    }
    let value = JsonValue::parse(text).map_err(|e| format!("{path}: {e}"))?;
    if !matches!(value, JsonValue::Object(_)) {
        return Err(format!("{path}: top-level value is not an object"));
    }
    let rows = value.get("rows").ok_or_else(|| format!("{path}: object has no \"rows\" key"))?;
    let entries = rows.as_array().ok_or_else(|| format!("{path}: \"rows\" is not an array"))?;
    if entries.is_empty() {
        return Err(format!("{path}: \"rows\" array is empty"));
    }
    Ok(format!("{path}: valid JSON, {} entries, {} bytes", entries.len(), text.len()))
}

/// Persistence files are validated exactly as a loader would before
/// trusting a byte of payload, under the one rule
/// [`persist::verify_payload`] every loader runs: version, kind, declared
/// length (a shorter payload is a torn write) and FNV-1a checksum; then
/// the payload must parse and every point table in it decode
/// ([`persist::PointRows`]). A multi-record file (a fleet shard) is read as
/// [`persist::read_records`] reads it, and every record must pass.
fn check_snapshot(path: &str, text: &str, records: bool) -> Result<String, String> {
    let file = text.as_bytes();
    if !records {
        let (kind, payload) = persist::verify_file(file).map_err(|e| format!("{path}: {e}"))?;
        check_payload(payload).map_err(|e| format!("{path}: {e}"))?;
        return Ok(format!(
            "{path}: valid wsn-persist {kind} snapshot v{}, {} payload bytes",
            persist::PERSIST_VERSION,
            payload.len()
        ));
    }
    let read = persist::read_records(file).map_err(|e| format!("{path}: {e}"))?;
    for (id, record) in &read.records {
        record
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(_, payload)| check_payload(payload))
            .map_err(|e| format!("{path}: record {id}: {e}"))?;
    }
    if let Some(damage) = read.damage {
        return Err(format!("{path}: {damage}"));
    }
    let kind = persist::str_field(&read.header, "kind").unwrap_or("");
    Ok(format!(
        "{path}: valid wsn-persist {kind} file v{}, {} records, {} bytes",
        persist::PERSIST_VERSION,
        read.records.len(),
        file.len()
    ))
}

/// A verified payload must parse, and every point table in it decode.
fn check_payload(payload: &[u8]) -> Result<(), persist::PersistError> {
    let payload = persist::parse_payload(payload)?;
    check_point_tables(&payload)
        .map_err(|e| persist::PersistError::Schema(format!("bad point table: {e}")))
}

/// Every object of a snapshot payload that carries a point table (each
/// node dump, a fleet tenant's sink window) must decode it.
fn check_point_tables(value: &JsonValue) -> Result<(), persist::PersistError> {
    match value {
        JsonValue::Object(pairs) => {
            if value.get("table").is_some() {
                persist::PointRows::of(value)?;
            }
            pairs.iter().try_for_each(|(_, v)| check_point_tables(v))
        }
        JsonValue::Array(items) => items.iter().try_for_each(check_point_tables),
        _ => Ok(()),
    }
}

/// Sweep journals must hold at least one row, and every line must be a
/// valid row under the journal's one rule ([`ParsedJournal::parse`], the
/// parse [`crate::SweepJournal::open`] loads with). A torn tail, which
/// `open` would truncate, is refused here: this check never writes.
fn check_journal(path: &str, text: &str) -> Result<String, String> {
    let parsed = ParsedJournal::parse(text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(why) = parsed.torn_tail {
        return Err(format!(
            "{path}: torn tail after {} valid rows: the trailing line is not a valid row: {why}",
            parsed.rows.len()
        ));
    }
    if parsed.rows.is_empty() {
        return Err(format!("{path}: journal holds no rows"));
    }
    Ok(format!("{path}: valid sweep journal, {} rows, {} bytes", parsed.rows.len(), text.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_figure_reports_pass_and_empty_ones_fail() {
        check_text("f.json", r#"{ "rows": [ { "x": 1 } ] }"#).unwrap();
        assert!(check_text("f.json", r#"{ "rows": [] }"#).unwrap_err().contains("empty"));
    }

    fn snapshot_doc() -> String {
        snapshot_with(r#"{"x":1,"nodes":[[0,{"table":[[0,1,2,1.5],[1,1,2,2.5]]}]]}"#)
    }

    fn snapshot_with(payload: &str) -> String {
        format!(
            "{{\"format\":\"wsn-persist\",\"kind\":\"checkpoint\",\"version\":{},\"len\":{},\"checksum\":{}}}\n{payload}\n",
            persist::PERSIST_VERSION,
            payload.len(),
            persist::fnv1a64(payload.as_bytes()),
        )
    }

    fn journal_doc() -> String {
        let row = |cell: u64| {
            format!(
                r#"{{"cell":{cell},"config_hash":17,"seed":{cell},"label":"Global-NN","toolchain":{{"version":"0.1.0","os":"linux","arch":"x86_64"}},"metrics":{{"tx_per_node_per_round":0.5,"rx_per_node_per_round":0.25,"total_energy_min":1.0,"total_energy_avg":1.5,"total_energy_max":2.0,"accuracy":1.0,"mean_recall":1.0,"label_precision":1.0,"label_recall":0.5,"estimates_agree":true,"quiescent":true,"data_points_sent":10,"packets_sent":20,"traffic_imbalance":1.25}}}}"#
            )
        };
        format!("{}\n{}\n", row(0), row(1))
    }

    #[test]
    fn valid_snapshots_and_journals_pass() {
        let summary = check_text("s.json", &snapshot_doc()).unwrap();
        assert!(summary.contains("checkpoint"), "summary was {summary:?}");
        let summary = check_text("j.jsonl", &journal_doc()).unwrap();
        assert!(summary.contains("2 rows"), "summary was {summary:?}");
    }

    #[test]
    fn torn_and_corrupt_snapshots_are_rejected() {
        let doc = snapshot_doc();
        let torn = &doc[..doc.len() - 4];
        assert!(check_text("s.json", torn).unwrap_err().contains("torn"));
        let rotted = doc.replace(r#""x":1"#, r#""x":2"#);
        assert!(check_text("s.json", &rotted).unwrap_err().contains("checksum"));
        let future = doc.replace(
            &format!("\"version\":{}", persist::PERSIST_VERSION),
            &format!("\"version\":{}", persist::PERSIST_VERSION + 1),
        );
        assert!(check_text("s.json", &future).unwrap_err().contains("version"));
        let untagged = doc.replace(&format!("\"version\":{},", persist::PERSIST_VERSION), "");
        assert!(check_text("s.json", &untagged).unwrap_err().contains("missing field \"version\""));
        let mixed = snapshot_with(r#"{"nodes":[[0,{"table":[[0,1,2,1.5],[1,1,2,2.5,0.5]]}]]}"#);
        assert!(check_text("s.json", &mixed).unwrap_err().contains("point table"));
    }

    /// A fleet shard file holding one record per payload, ids 0, 1, ….
    fn shard_doc(payloads: &[&str]) -> String {
        let mut doc = format!(
            "{{\"format\":\"wsn-persist\",\"kind\":\"fleet-shard\",\"version\":{},\"shard\":0,\"shards\":2,\"records\":{}}}\n",
            persist::PERSIST_VERSION,
            payloads.len()
        );
        for (id, payload) in (0u64..).zip(payloads) {
            let record = persist::frame_record("fleet-tenant", id, payload.as_bytes());
            doc.push_str(std::str::from_utf8(&record).unwrap());
        }
        doc
    }

    #[test]
    fn shard_files_are_checked_record_by_record() {
        let table = r#"{"nodes":[[0,{"table":[[0,1,2,1.5],[1,1,2,2.5]]}]]}"#;
        let doc = shard_doc(&[table, r#"{"x":1}"#]);
        let summary = check_text("shard-0.json", &doc).unwrap();
        let expected = format!("fleet-shard file v{}, 2 records", persist::PERSIST_VERSION);
        assert!(summary.contains(&expected), "summary was {summary:?}");

        let rotted = doc.replace(r#""x":1"#, r#""x":2"#);
        let error = check_text("shard-0.json", &rotted).unwrap_err();
        assert!(error.contains("record 1") && error.contains("checksum"), "{error}");
        let torn = &doc[..doc.len() - 3];
        assert!(check_text("shard-0.json", torn).unwrap_err().contains("torn"));
        let recounted = doc.replace(r#""records":2"#, r#""records":3"#);
        assert!(check_text("shard-0.json", &recounted).unwrap_err().contains("declares 3"));
        let mixed = shard_doc(&[r#"{"nodes":[[0,{"table":[[0,1,2,1.5],[1,1,2,2.5,0.5]]}]]}"#]);
        let error = check_text("shard-0.json", &mixed).unwrap_err();
        assert!(error.contains("record 0") && error.contains("point table"), "{error}");
    }

    #[test]
    fn journal_rejections_fire() {
        let out_of_order = journal_doc().replace(r#""cell":1"#, r#""cell":0"#);
        assert!(check_text("j.jsonl", &out_of_order).unwrap_err().contains("does not follow"));
        let nan_metric = journal_doc().replace(r#""accuracy":1.0"#, r#""accuracy":"oops""#);
        assert!(check_text("j.jsonl", &nan_metric).unwrap_err().contains("\"accuracy\""));
        let unlabelled = journal_doc().replace(r#""label":"Global-NN","#, "");
        assert!(check_text("j.jsonl", &unlabelled).unwrap_err().contains("label"));
        let doc = journal_doc();
        let half_row = &doc[..doc.len() - 30];
        assert!(check_text("j.jsonl", half_row).unwrap_err().contains("torn tail"));
    }

    #[test]
    fn unknown_shapes_are_rejected() {
        assert!(check_text("x.json", "[1, 2]").unwrap_err().contains("not an object"));
        assert!(check_text("x.json", r#"{ "other": 1 }"#).unwrap_err().contains("no \"rows\" key"));
    }
}
