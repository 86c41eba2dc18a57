//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --cli <bitfusion-cli> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it drives the real `bitfusion-cli` binary through one
//! workload and prints the end-to-end metrics; with `--trace 1` it replays
//! the same seeded inputs in-process, timing each layer, and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; diagnostics go to
//! standard error. The exit code is 0 only when every reply matched its
//! reference and every workload check held. `run.sh` builds the binaries
//! and calls this; see `README.md`.

mod gen;
mod paper;
mod proc;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use bitfusion::service::json::Json;

/// Parsed command line.
struct Args {
    cli: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut cli, mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--cli" => cli = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => trace = Some(number(&value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            workload::WORKLOADS.join("|")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        cli: cli.ok_or("--cli is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// A metric as it appears in the result line.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A named measurement with its unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run reports: metrics plus request accounting.
pub struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
}

/// Equal time slices of a run, each read at the run's tail percentile;
/// `latency_tail_ms` is the median of the slices' values.
const TAIL_WINDOWS: usize = 4;

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &workload::Run) -> Result<Outcome, String> {
    let completed = run.latencies.len();
    let latencies: Vec<f64> = run.latencies.iter().map(|l| l.ms).collect();
    let (tail, tail_ms) = stats::windowed_tail(&run.latencies, run.window_s, TAIL_WINDOWS).ok_or(
        format!("{completed} completed requests: too few for a tail read in {TAIL_WINDOWS} slices"),
    )?;
    eprintln!("perfbench: {completed} requests in {:.3} s", run.window_s);
    eprintln!(
        "perfbench: latency_tail_ms is p{:.2} of {} samples ({} beyond), median over {TAIL_WINDOWS} slices; whole run {:.4} ms",
        tail.percentile, tail.samples, tail.beyond, tail.value
    );
    eprintln!("perfbench: set-up times (s): {:?}", run.setups_s);
    let metrics = vec![
        Metric::new("setup_s", stats::median(&run.setups_s), "s"),
        Metric::new("throughput_rps", completed as f64 / run.window_s, "1/s"),
        Metric::new("latency_p50_ms", stats::median(&latencies), "ms"),
        Metric::new("latency_tail_ms", tail_ms, "ms"),
        Metric::new("cpu_ms_per_req", run.cpu_ms / completed as f64, "ms"),
        Metric::new(
            "ok_share",
            run.ok as f64 / run.attempted.max(1) as f64,
            "share",
        ),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MB"),
        Metric::new("paper_log_err", workload::paper_log_err(), "ln"),
    ];
    Ok(Outcome {
        metrics,
        attempted: run.attempted,
        failed: run.attempted - run.ok,
        checks: run.checks.clone(),
    })
}

fn execute(args: &Args) -> Result<Outcome, String> {
    let scratch = Path::new(".perfbench");
    std::fs::create_dir_all(scratch).map_err(|e| format!("cannot create {scratch:?}: {e}"))?;
    let ctx = workload::Ctx {
        cli: &args.cli,
        scratch,
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
    };
    if args.trace {
        trace::run(&args.workload, &ctx).map_err(|e| format!("traced run failed: {e}"))
    } else {
        let run = workload::run(&args.workload, &ctx).map_err(|e| format!("run failed: {e}"))?;
        end_to_end(&run)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.cli.is_file() {
        eprintln!("perfbench: no binary at {}", args.cli.display());
        return ExitCode::from(2);
    }
    let outcome = match execute(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} (seed {}): {e}", args.workload, args.seed);
            return ExitCode::from(2);
        }
    };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    for (check, pass) in &outcome.checks {
        eprintln!(
            "perfbench: check {}: {check}",
            if *pass { "ok  " } else { "FAIL" }
        );
        correct &= pass;
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::float(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::uint(outcome.attempted)),
        ("failed", Json::uint(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
