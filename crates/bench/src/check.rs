//! Shared validators for the JSON artifacts this repository commits or
//! emits in CI: figure reports (`rows`), benchmark suites (`results`),
//! telemetry sidecars (`kind: "telemetry"`, see [`crate::telemetry`]),
//! persistence snapshots (wsn-persist header line, see
//! [`wsn_core::persist`]) and sweep journals (JSONL rows, see
//! [`crate::journal`]).
//!
//! The `json_check` binary is a thin dispatcher over [`check_file`]; the
//! validators live here so the schemas share the finite/non-empty helpers
//! and the unit tests can exercise every rejection path without spawning a
//! process.

use crate::json::JsonValue;
use wsn_core::persist;

/// Reads and validates one JSON artifact. Returns a one-line success
/// summary, or a message naming the first violation.
pub fn check_file(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read file: {e}"))?;
    check_text(path, &text)
}

/// Validates JSON text against whichever schema its shape declares:
/// a `wsn-persist` header line → persistence snapshot, a first line with a
/// `cell` key → sweep journal (JSONL), `kind == "telemetry"` → telemetry
/// sidecar, a `rows` key → figure report, a `results` key → benchmark
/// suite. `path` only labels error messages.
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
    if value.get("kind").and_then(|k| k.as_str()) == Some("telemetry") {
        return check_telemetry(path, &value).map(|entries| {
            format!("{path}: valid telemetry, {entries} entries, {} bytes", text.len())
        });
    }
    if value.get("kind").and_then(|k| k.as_str()) == Some("fleet") {
        return check_fleet(path, &value)
            .map(|rows| format!("{path}: valid fleet report, {rows} rows, {} bytes", text.len()));
    }
    let data = value
        .get("rows")
        .or_else(|| value.get("results"))
        .ok_or_else(|| format!("{path}: object has neither a \"rows\" nor a \"results\" key"))?;
    let entries = non_empty_array(path, "rows/results", data)?;
    if value.get("results").is_some() {
        check_bench_results(path, entries)?;
    }
    Ok(format!("{path}: valid JSON, {} entries, {} bytes", entries.len(), text.len()))
}

/// Benchmark-suite entries carry group labels and median timings; a run that
/// produced NaN/infinite timings or lost its group labels is as useless as
/// an empty one.
fn check_bench_results(path: &str, entries: &[JsonValue]) -> Result<(), String> {
    for (index, entry) in entries.iter().enumerate() {
        let group = entry.get("group").and_then(|g| g.as_str()).unwrap_or("");
        if group.is_empty() {
            return Err(format!("{path}: results[{index}] has an empty or missing group"));
        }
        let median =
            finite_number(path, &format!("results[{index}].median_ns"), entry.get("median_ns"))?;
        if median <= 0.0 {
            return Err(format!(
                "{path}: results[{index}] ({group}) has a non-positive median_ns ({median})"
            ));
        }
    }
    Ok(())
}

/// Fleet throughput reports (`kind: "fleet"`, written by the `fig_fleet`
/// binary) must hold at least one row, each with positive tenant, shard and
/// slide counts and a finite, positive tenant-slides-per-second figure —
/// a zero or NaN throughput means the timed loop never ran. Returns the row
/// count.
fn check_fleet(path: &str, value: &JsonValue) -> Result<usize, String> {
    let rows = non_empty_array(path, "rows", value.get("rows").unwrap_or(&JsonValue::Null))?;
    for (index, row) in rows.iter().enumerate() {
        for field in ["tenants", "shards", "slides", "tenant_slides_per_sec"] {
            let n = finite_number(path, &format!("rows[{index}].{field}"), row.get(field))?;
            if n <= 0.0 {
                return Err(format!("{path}: rows[{index}].{field} is not positive ({n})"));
            }
        }
        // 0 is legal (checkpoints off); absent or negative is not.
        finite_nonneg(
            path,
            &format!("rows[{index}].checkpoint_every"),
            row.get("checkpoint_every"),
        )?;
    }
    Ok(rows.len())
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

/// Sweep journals must hold at least one complete row, with strictly
/// increasing cell indices (append order), intact provenance and finite
/// metrics — NaN in an archived row poisons every average recomputed from
/// it.
fn check_journal(path: &str, text: &str) -> Result<String, String> {
    let mut rows = 0usize;
    let mut previous: Option<f64> = None;
    for (index, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let row = JsonValue::parse(line)
            .map_err(|e| format!("{path}: journal line {index} is unparsable: {e}"))?;
        let cell = finite_nonneg(path, &format!("rows[{index}].cell"), row.get("cell"))?;
        if previous.is_some_and(|p| p >= cell) {
            return Err(format!(
                "{path}: journal cell indices are not strictly increasing at line {index}"
            ));
        }
        previous = Some(cell);
        finite_nonneg(path, &format!("rows[{index}].config_hash"), row.get("config_hash"))?;
        finite_nonneg(path, &format!("rows[{index}].seed"), row.get("seed"))?;
        if row.get("label").and_then(|l| l.as_str()).unwrap_or("").is_empty() {
            return Err(format!("{path}: rows[{index}] has an empty or missing label"));
        }
        let metrics = object_entries(path, &format!("rows[{index}].metrics"), row.get("metrics"))?;
        if metrics.is_empty() {
            return Err(format!("{path}: rows[{index}].metrics is empty"));
        }
        for (name, value) in metrics {
            if !matches!(value, JsonValue::Bool(_)) {
                finite_number(path, &format!("rows[{index}].metrics.{name}"), Some(value))?;
            }
        }
        rows += 1;
    }
    if rows == 0 {
        return Err(format!("{path}: journal holds no rows"));
    }
    Ok(format!("{path}: valid sweep journal, {rows} rows, {} bytes", text.len()))
}

/// Telemetry sidecars must prove the instrumented run actually recorded
/// something: non-empty counter registry and span list, every value finite
/// and non-negative, histogram bucket bounds strictly increasing. Returns
/// the total entry count (counters + gauges + histograms + spans).
fn check_telemetry(path: &str, value: &JsonValue) -> Result<usize, String> {
    let label = value.get("label").and_then(|l| l.as_str()).unwrap_or("");
    if label.is_empty() {
        return Err(format!("{path}: telemetry document has an empty or missing label"));
    }
    finite_nonneg(path, "wall_ns", value.get("wall_ns"))?;

    let counters = object_entries(path, "counters", value.get("counters"))?;
    if counters.is_empty() {
        return Err(format!("{path}: \"counters\" object is empty — nothing was recorded"));
    }
    for (name, v) in counters {
        finite_nonneg(path, &format!("counters.{name}"), Some(v))?;
    }

    // Gauges may legitimately be absent from a run that records none.
    let gauges = object_entries(path, "gauges", value.get("gauges"))?;
    for (name, v) in gauges {
        finite_nonneg(path, &format!("gauges.{name}"), Some(v))?;
    }

    let histograms = object_entries(path, "histograms", value.get("histograms"))?;
    for (name, h) in histograms {
        check_histogram(path, name, h)?;
    }

    let spans = non_empty_array(path, "spans", value.get("spans").unwrap_or(&JsonValue::Null))?;
    for (index, span) in spans.iter().enumerate() {
        check_span(path, index, span)?;
    }

    Ok(counters.len() + gauges.len() + histograms.len() + spans.len())
}

fn check_histogram(path: &str, name: &str, h: &JsonValue) -> Result<(), String> {
    let bounds = h
        .get("bounds")
        .and_then(|b| b.as_array())
        .ok_or_else(|| format!("{path}: histograms.{name} has no bounds array"))?;
    let counts = h
        .get("counts")
        .and_then(|c| c.as_array())
        .ok_or_else(|| format!("{path}: histograms.{name} has no counts array"))?;
    if bounds.len() != counts.len() {
        return Err(format!(
            "{path}: histograms.{name} has {} bounds but {} counts",
            bounds.len(),
            counts.len()
        ));
    }
    let mut previous: Option<f64> = None;
    for (index, bound) in bounds.iter().enumerate() {
        let b = finite_nonneg(path, &format!("histograms.{name}.bounds[{index}]"), Some(bound))?;
        if previous.is_some_and(|p| p >= b) {
            return Err(format!(
                "{path}: histograms.{name} bucket bounds are not strictly increasing at [{index}]"
            ));
        }
        previous = Some(b);
    }
    let mut bucket_total = 0.0;
    for (index, count) in counts.iter().enumerate() {
        bucket_total +=
            finite_nonneg(path, &format!("histograms.{name}.counts[{index}]"), Some(count))?;
    }
    let count = finite_nonneg(path, &format!("histograms.{name}.count"), h.get("count"))?;
    finite_nonneg(path, &format!("histograms.{name}.sum"), h.get("sum"))?;
    if bucket_total != count {
        return Err(format!(
            "{path}: histograms.{name} bucket counts sum to {bucket_total} but count is {count}"
        ));
    }
    Ok(())
}

fn check_span(path: &str, index: usize, span: &JsonValue) -> Result<(), String> {
    let span_path = span.get("path").and_then(|p| p.as_str()).unwrap_or("");
    if span_path.is_empty() {
        return Err(format!("{path}: spans[{index}] has an empty or missing path"));
    }
    let count = finite_nonneg(path, &format!("spans[{index}].count"), span.get("count"))?;
    if count < 1.0 {
        return Err(format!("{path}: spans[{index}] ({span_path}) has a zero count"));
    }
    let total = finite_nonneg(path, &format!("spans[{index}].total_ns"), span.get("total_ns"))?;
    let min = finite_nonneg(path, &format!("spans[{index}].min_ns"), span.get("min_ns"))?;
    let max = finite_nonneg(path, &format!("spans[{index}].max_ns"), span.get("max_ns"))?;
    if min > max || max > total {
        return Err(format!(
            "{path}: spans[{index}] ({span_path}) has inconsistent timings \
             (min {min}, max {max}, total {total})"
        ));
    }
    Ok(())
}

/// Shared helper: the value must be a finite, non-negative number.
fn finite_nonneg(path: &str, what: &str, value: Option<&JsonValue>) -> Result<f64, String> {
    let n = finite_number(path, what, value)?;
    if n < 0.0 {
        return Err(format!("{path}: {what} is negative ({n})"));
    }
    Ok(n)
}

/// Shared helper: the value must be a finite number.
fn finite_number(path: &str, what: &str, value: Option<&JsonValue>) -> Result<f64, String> {
    let n = value
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("{path}: {what} is missing or not a number"))?;
    if !n.is_finite() {
        return Err(format!("{path}: {what} is not finite ({n})"));
    }
    Ok(n)
}

/// Shared helper: the value must be a non-empty array.
fn non_empty_array<'v>(
    path: &str,
    what: &str,
    value: &'v JsonValue,
) -> Result<&'v [JsonValue], String> {
    let entries = value.as_array().ok_or_else(|| format!("{path}: \"{what}\" is not an array"))?;
    if entries.is_empty() {
        return Err(format!("{path}: \"{what}\" array is empty"));
    }
    Ok(entries)
}

/// Shared helper: the value must be an object; returns its entries.
fn object_entries<'v>(
    path: &str,
    what: &str,
    value: Option<&'v JsonValue>,
) -> Result<&'v [(String, JsonValue)], String> {
    match value {
        Some(JsonValue::Object(pairs)) => Ok(pairs),
        _ => Err(format!("{path}: \"{what}\" is missing or not an object")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry_doc() -> String {
        r#"{
            "kind": "telemetry",
            "label": "smoke",
            "wall_ns": 1000,
            "counters": { "engine.calls": 3 },
            "gauges": {},
            "histograms": {
                "sim.queue_depth": { "bounds": [0, 1, 3], "counts": [1, 1, 1], "count": 3, "sum": 4 }
            },
            "spans": [
                { "path": "slide", "count": 2, "total_ns": 10, "min_ns": 3, "max_ns": 7 }
            ]
        }"#
        .to_string()
    }

    #[test]
    fn valid_documents_of_all_three_schemas_pass() {
        check_text("t.json", &telemetry_doc()).unwrap();
        check_text("f.json", r#"{ "rows": [ { "x": 1 } ] }"#).unwrap();
        check_text("b.json", r#"{ "results": [ { "group": "g", "median_ns": 1.5 } ] }"#).unwrap();
    }

    #[test]
    fn bench_rejections_still_fire() {
        let empty = r#"{ "results": [] }"#;
        assert!(check_text("b.json", empty).unwrap_err().contains("empty"));
        let no_group = r#"{ "results": [ { "median_ns": 1.0 } ] }"#;
        assert!(check_text("b.json", no_group).unwrap_err().contains("group"));
        let bad_median = r#"{ "results": [ { "group": "g", "median_ns": 0.0 } ] }"#;
        assert!(check_text("b.json", bad_median).unwrap_err().contains("median_ns"));
    }

    #[test]
    fn telemetry_requires_non_empty_counters_and_spans() {
        let no_counters = telemetry_doc().replace(r#"{ "engine.calls": 3 }"#, "{}");
        assert!(check_text("t.json", &no_counters).unwrap_err().contains("counters"));
        let no_spans = telemetry_doc().replace(
            r#"{ "path": "slide", "count": 2, "total_ns": 10, "min_ns": 3, "max_ns": 7 }"#,
            "",
        );
        assert!(check_text("t.json", &no_spans).unwrap_err().contains("spans"));
    }

    #[test]
    fn telemetry_rejects_negative_and_inconsistent_values() {
        let negative = telemetry_doc().replace(r#""engine.calls": 3"#, r#""engine.calls": -1"#);
        assert!(check_text("t.json", &negative).unwrap_err().contains("negative"));
        let bad_span = telemetry_doc().replace(r#""min_ns": 3"#, r#""min_ns": 9"#);
        assert!(check_text("t.json", &bad_span).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn histogram_bounds_must_increase_and_counts_must_reconcile() {
        let flat_bounds = telemetry_doc().replace("[0, 1, 3]", "[0, 1, 1]");
        assert!(check_text("t.json", &flat_bounds).unwrap_err().contains("strictly increasing"));
        let bad_total = telemetry_doc().replace(r#""count": 3"#, r#""count": 5"#);
        assert!(check_text("t.json", &bad_total).unwrap_err().contains("sum to"));
        let ragged = telemetry_doc().replace("[1, 1, 1]", "[1, 1]");
        assert!(check_text("t.json", &ragged).unwrap_err().contains("bounds but"));
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
                r#"{{"cell":{cell},"config_hash":17,"seed":{cell},"label":"Global-NN","toolchain":{{"version":"0.1.0","os":"linux","arch":"x86_64"}},"metrics":{{"accuracy":1.0,"quiescent":true}}}}"#
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
        assert!(check_text("j.jsonl", &out_of_order).unwrap_err().contains("strictly increasing"));
        let nan_metric = journal_doc().replace(r#""accuracy":1.0"#, r#""accuracy":"oops""#);
        assert!(check_text("j.jsonl", &nan_metric).unwrap_err().contains("metrics.accuracy"));
        let unlabelled = journal_doc().replace(r#""label":"Global-NN","#, "");
        assert!(check_text("j.jsonl", &unlabelled).unwrap_err().contains("label"));
        let doc = journal_doc();
        let half_row = &doc[..doc.len() - 30];
        assert!(check_text("j.jsonl", half_row).unwrap_err().contains("unparsable"));
    }

    fn fleet_doc() -> String {
        r#"{
            "kind": "fleet",
            "label": "fig_fleet",
            "rows": [
                { "tenants": 1000, "shards": 8, "epochs": 8, "slides": 8000,
                  "checkpoint_every": 4, "elapsed_ms": 1200.5,
                  "tenant_slides_per_sec": 6664.0 }
            ]
        }"#
        .to_string()
    }

    #[test]
    fn valid_fleet_reports_pass_and_rejections_fire() {
        let summary = check_text("fl.json", &fleet_doc()).unwrap();
        assert!(summary.contains("fleet report"), "summary was {summary:?}");
        let zero_rate = fleet_doc()
            .replace(r#""tenant_slides_per_sec": 6664.0"#, r#""tenant_slides_per_sec": 0"#);
        assert!(check_text("fl.json", &zero_rate).unwrap_err().contains("tenant_slides_per_sec"));
        let no_tenants = fleet_doc().replace(r#""tenants": 1000,"#, "");
        assert!(check_text("fl.json", &no_tenants).unwrap_err().contains("tenants"));
        let no_policy = fleet_doc().replace(r#""checkpoint_every": 4,"#, "");
        assert!(check_text("fl.json", &no_policy).unwrap_err().contains("checkpoint_every"));
        let empty = fleet_doc().replace(
            r#"{ "tenants": 1000, "shards": 8, "epochs": 8, "slides": 8000,
                  "checkpoint_every": 4, "elapsed_ms": 1200.5,
                  "tenant_slides_per_sec": 6664.0 }"#,
            "",
        );
        assert!(check_text("fl.json", &empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn unknown_shapes_are_rejected() {
        assert!(check_text("x.json", "[1, 2]").unwrap_err().contains("not an object"));
        assert!(check_text("x.json", r#"{ "other": 1 }"#)
            .unwrap_err()
            .contains("neither a \"rows\" nor a \"results\""));
    }
}
