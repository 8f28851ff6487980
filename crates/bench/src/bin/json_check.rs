//! CI helper: validates that a figure report, persistence snapshot or
//! sweep journal is well-formed.
//!
//! All the actual validation lives in `wsn_bench::check`, which dispatches
//! on the document's shape: a `wsn-persist` header line selects the
//! snapshot schema (version, length, checksum, point tables; a fleet shard
//! file's every record), a first line
//! with a `cell` key the journal rule that `SweepJournal::open` loads with
//! (a torn tail is refused, never truncated), a `rows` key the figure
//! schema. Exits non-zero on any violation, so `ci.sh` can gate on the
//! binaries actually producing usable output rather than just exiting
//! zero.

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: json_check <file.json> [more.json ...]");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for path in &paths {
        match wsn_bench::check::check_file(path) {
            Ok(message) => println!("{message}"),
            Err(message) => {
                eprintln!("json_check: {message}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
