//! Shared validators for the JSON artifacts this repository commits or
//! emits in CI: figure reports (`rows`), persistence snapshots
//! (wsn-persist header line, see [`wsn_core::persist`]) and sweep journals
//! (JSONL rows, read under the journal's own rule,
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
/// a `wsn-persist` header line → persistence snapshot, a first line with a
/// `cell` key → sweep journal (JSONL), a `rows` key → figure report.
/// `path` only labels error messages.
pub fn check_text(path: &str, text: &str) -> Result<String, String> {
    // The persistence formats are line-oriented (header + payload lines,
    // or one row per line), so they dispatch on the first line before the
    // whole text is parsed as a single document.
    let first_line = text.split('\n').next().unwrap_or("");
    if let Ok(header) = JsonValue::parse(first_line) {
        if header.get("format").and_then(|f| f.as_str()) == Some("wsn-persist") {
            return check_snapshot(path, text);
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

/// Persistence snapshots are validated exactly as a loader would before
/// trusting a byte of payload: header format and version tag, declared
/// length (a shorter payload is a torn write), FNV-1a checksum, the payload
/// parsing at all, and every point table in it decoding
/// ([`persist::PointRows`]).
fn check_snapshot(path: &str, text: &str) -> Result<String, String> {
    let (header_line, body) =
        text.split_once('\n').ok_or_else(|| format!("{path}: missing snapshot header line"))?;
    let header = JsonValue::parse(header_line)
        .map_err(|e| format!("{path}: unreadable snapshot header: {e}"))?;
    let version = header
        .get("version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("{path}: snapshot header has no version tag"))?;
    if version != persist::PERSIST_VERSION {
        return Err(format!(
            "{path}: snapshot format version is {version}, this binary reads {}",
            persist::PERSIST_VERSION
        ));
    }
    let kind = header.get("kind").and_then(|k| k.as_str()).unwrap_or("");
    if kind.is_empty() {
        return Err(format!("{path}: snapshot header has an empty or missing kind"));
    }
    let len = header
        .get("len")
        .and_then(|l| l.as_u64())
        .ok_or_else(|| format!("{path}: snapshot header has no len field"))? as usize;
    let bytes = body.as_bytes();
    if bytes.len() < len {
        return Err(format!(
            "{path}: torn snapshot: payload holds {} of {len} declared bytes",
            bytes.len()
        ));
    }
    let declared = header
        .get("checksum")
        .and_then(|c| c.as_u64())
        .ok_or_else(|| format!("{path}: snapshot header has no checksum field"))?;
    let actual = persist::fnv1a64(&bytes[..len]);
    if actual != declared {
        return Err(format!(
            "{path}: snapshot checksum mismatch: header declares {declared}, payload hashes to {actual}"
        ));
    }
    let payload = std::str::from_utf8(&bytes[..len])
        .map_err(|e| format!("{path}: snapshot payload is not UTF-8: {e}"))?;
    let payload = JsonValue::parse(payload)
        .map_err(|e| format!("{path}: unparsable snapshot payload: {e}"))?;
    check_point_tables(&payload).map_err(|e| format!("{path}: bad point table: {e}"))?;
    Ok(format!("{path}: valid wsn-persist {kind} snapshot v{version}, {len} payload bytes"))
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
        assert!(check_text("s.json", &untagged).unwrap_err().contains("version tag"));
        let mixed = snapshot_with(r#"{"nodes":[[0,{"table":[[0,1,2,1.5],[1,1,2,2.5,0.5]]}]]}"#);
        assert!(check_text("s.json", &mixed).unwrap_err().contains("point table"));
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
