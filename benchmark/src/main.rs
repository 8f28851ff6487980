//! The repository benchmark.
//!
//! One process runs one named workload, measures it for `--seconds`, checks
//! that its outputs are correct, and prints every metric by name and unit.
//! The last line of standard output is one JSON object:
//!
//! ```text
//! {"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":0.01,"unit":"s"},...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! telemetry compiled out. With `--trace 1` (a binary built with the
//! `telemetry` feature) they are the per-layer ones: `wsn-obs` spans and
//! counters the program already records, plus outside timings of layer entry
//! points taken from here. See `README.md` for the workloads, the metric
//! definitions and the layer budget.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```

mod fleet;
mod layers;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use wsn_json::JsonValue;

/// The end-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("ms_per_slide", "ms"), ("peak_rss_mb", "MB"), ("accuracy", "ratio")];

/// The per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the layer is not on the workload's path). The first five are
/// the simulated outcome: exact, they repeat bit for bit for a seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("agreement_rate", "ratio"),
    ("tx_mj_per_node_per_slide", "mJ"),
    ("packets_per_node_per_slide", "count"),
    ("points_per_node_per_slide", "count"),
    ("bytes_per_node_per_slide", "B"),
    ("data.trace_gen_ms", "ms"),
    ("netsim.topology_build_ms", "ms"),
    ("netsim.partition_build_ms", "ms"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.sim_self_ms_per_slide", "ms"),
    ("netsim.region_epochs", "count"),
    ("netsim.region_outbox_routed", "count"),
    ("netsim.region_barrier_stall_ms", "ms"),
    ("netsim.region_imbalance_pct", "%"),
    ("core.detect_ms", "ms"),
    ("core.detect_calls", "count"),
    ("core.fixed_point_ms", "ms"),
    ("core.fixed_point_calls", "count"),
    ("core.ns_per_fixed_point_call", "ns"),
    ("core.engine.chain_fast_ratio", "ratio"),
    ("core.engine.rescans_unrecorded", "count"),
    ("core.engine.desync_rebuilds", "count"),
    ("core.engine.cold_builds", "count"),
    ("core.engine.support_miss_ratio", "ratio"),
    ("core.engine.seed_reuse_ratio", "ratio"),
    ("core.ledger.quiet_hit_ratio", "ratio"),
    ("core.detector.broadcasts", "count"),
    ("core.detector.points_broadcast", "count"),
    ("core.detector.broadcast_bytes", "B"),
    ("core.stream.collect_ms_per_slide", "ms"),
    ("core.stream.evaluate_ms_per_slide", "ms"),
    ("core.stream.tail_ms", "ms"),
    ("core.stream.driver_other_ms", "ms"),
    ("core.persist.serialize_us_per_tenant", "us"),
    ("core.persist.write_us_per_tenant", "us"),
    ("core.persist.snapshot_bytes_per_tenant", "B"),
    ("fleet.ingest_ms_per_epoch", "ms"),
    ("fleet.step_ms_per_epoch", "ms"),
    ("fleet.fill_epoch_ms", "ms"),
    ("fleet.shard_imbalance", "count"),
    ("fleet.snapshot_bytes", "B"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// The six workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lab53GlobalNn,
    Lab53Centralized,
    City2kSemiglobal,
    City10kSemiglobal,
    Fleet1k,
    Fleet1kCkpt,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Lab53GlobalNn,
        Workload::Lab53Centralized,
        Workload::City2kSemiglobal,
        Workload::City10kSemiglobal,
        Workload::Fleet1k,
        Workload::Fleet1kCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lab53GlobalNn => "lab53_global_nn",
            Workload::Lab53Centralized => "lab53_centralized",
            Workload::City2kSemiglobal => "city2k_semiglobal",
            Workload::City10kSemiglobal => "city10k_semiglobal",
            Workload::Fleet1k => "fleet1k",
            Workload::Fleet1kCkpt => "fleet1k_ckpt",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phase runs (it always completes its minimum
    /// number of repetitions).
    pub budget: Duration,
    /// Per-layer metrics from the traced build instead of end-to-end ones.
    pub traced: bool,
    /// Tiny inputs; only the unit tests set it.
    pub quick: bool,
    /// Where the fleet writes its checkpoints and probe files; removed
    /// before the process exits.
    pub scratch: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation or output check; a failure is counted and
    /// explained on standard error, never a panic.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: check failed: {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result object: the metrics of `schema`, each with its unit.
    /// Every metric of the schema must have been set.
    pub fn to_json(&self, schema: &[(&'static str, &'static str)]) -> Result<JsonValue, String> {
        let mut metrics = Vec::with_capacity(schema.len());
        for &(name, unit) in schema {
            let value = *self.metrics.get(name).ok_or_else(|| format!("metric {name} not set"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((
                name,
                JsonValue::object([
                    ("value", JsonValue::from(value)),
                    ("unit", JsonValue::from(unit)),
                ]),
            ));
        }
        Ok(JsonValue::object([
            ("correct", JsonValue::from(self.failed == 0)),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("metrics", JsonValue::object(metrics)),
        ]))
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {value} is out of range"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let scratch = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".bench_run")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let budget = Duration::from_secs_f64(seconds);
    Ok(Options { workload, seed, budget, traced, quick: false, scratch })
}

/// Runs one workload and returns its report; `Err` only when the workload
/// could not run at all.
pub fn run(options: &Options) -> Result<Report, String> {
    if options.traced && !wsn_obs::compiled() {
        return Err("--trace 1 needs a binary built with the `telemetry` feature".into());
    }
    let mut report = match options.workload {
        Workload::Fleet1k | Workload::Fleet1kCkpt => fleet::run(options)?,
        _ => stream::run(options)?,
    };
    if options.traced {
        // Layers the workload does not reach report 0.
        for &(name, _) in PER_LAYER {
            report.metrics.entry(name).or_insert(0.0);
        }
    } else {
        report.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(report)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let result = run(&options);
    let _ = std::fs::remove_dir_all(&options.scratch);
    // `.bench_run` itself goes too, unless another run still uses it.
    if let Some(parent) = options.scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", options.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let schema = if options.traced { PER_LAYER } else { END_TO_END };
    let json = match report.to_json(schema) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", options.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed={} traced={} attempted={} failed={}",
        options.workload.name(),
        options.seed,
        options.traced,
        report.attempted,
        report.failed
    );
    for &(name, unit) in schema {
        println!("  {name:<40} {:>16.4} {unit}", report.metrics[name]);
    }
    println!("{}", json.to_compact_string());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(workload: Workload) -> Options {
        let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-scratch")
            .join(format!("{}-{}", workload.name(), std::process::id()));
        Options { workload, seed: 3, budget: Duration::ZERO, traced: false, quick: true, scratch }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(args("--workload fleet1k --seed 11 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::Fleet1k);
        assert_eq!(
            (o.seed, o.budget, o.traced, o.quick),
            (11, Duration::from_millis(2500), true, false)
        );
        assert!(parse_args(args("--workload nope")).is_err());
        assert!(parse_args(args("--workload fleet1k --trace 2")).is_err());
        assert!(parse_args(args("--seed 1")).is_err(), "workload is required");
        assert!(parse_args(args("--workload fleet1k --seconds")).is_err());
        assert!(parse_args(args("--workload fleet1k --quick")).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.check(true, String::new);
        for &(name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let json = report.to_json(END_TO_END).unwrap();
        let text = json.to_compact_string();
        let back = JsonValue::parse(&text).unwrap();
        let JsonValue::Object(pairs) = &back else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("attempted").and_then(JsonValue::as_u64), Some(1));
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
        report.metrics.remove("setup_s");
        assert!(report.to_json(END_TO_END).is_err(), "a missing metric is an error");
    }

    /// The metric names and units here and in `BENCHMARK.json` agree.
    #[test]
    fn the_schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |schema: &[(&str, &str)]| -> Vec<(String, String)> {
            schema.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap().to_string())
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, names);
    }

    /// Every workload at tiny scale: runs, passes its output checks and
    /// reports every end-to-end metric as a positive number.
    #[test]
    fn every_workload_passes_at_quick_scale() {
        let started = std::time::Instant::now();
        for workload in Workload::ALL {
            let options = options(workload);
            let report = run(&options);
            let _ = std::fs::remove_dir_all(&options.scratch);
            let report = report.unwrap();
            assert!(report.attempted > 0, "{workload:?}");
            assert_eq!(report.failed, 0, "{workload:?}");
            report.to_json(END_TO_END).unwrap();
            for &(name, _) in END_TO_END {
                assert!(report.metrics[name] > 0.0, "{workload:?} {name}");
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "quick pass took {:?}",
            started.elapsed()
        );
    }
}
