//! End-to-end and per-layer benchmark of Tiny-VBF serving at the paper's
//! geometry. See `vbfbench/README.md` for the metrics and workloads; run it
//! from the repository root with `bash vbfbench/run.sh --workload paper_fp
//! --seed 1 --seconds 30 --trace 0`.

mod e2e;
mod server;
mod trace;
mod workload;

use runtime::json::Json;
use std::path::PathBuf;
use std::time::Duration;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = std::collections::HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let args = Args {
        workload: Workload::parse(get("workload")?)?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        server: PathBuf::from(get("server")?),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A named metric as printed in the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string_compact()
}

fn run_e2e(args: &Args) -> Result<(), String> {
    let run = e2e::run(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        &args.server,
        args.workload.setups(),
    )?;
    let latencies = &run.window.latencies_ms;
    if latencies.is_empty() {
        return Err("no correct answer in the measured window".into());
    }
    let ok = latencies.len() as f64;
    let beyond_p90 = latencies.len() - (0.9 * ok).ceil() as usize;
    let metrics = [
        Metric::new("setup_s", median(&run.setup_s), "s"),
        Metric::new("latency_p50_ms", percentile(latencies, 0.5), "ms"),
        Metric::new("latency_p90_ms", percentile(latencies, 0.9), "ms"),
        Metric::new("frames_per_s", ok / run.window.elapsed.as_secs_f64(), "1/s"),
        Metric::new("server_cpu_ms_per_frame", run.server_cpu_s * 1e3 / ok, "ms"),
        Metric::new("server_rss_mb", run.server_rss_kb as f64 / 1024.0, "MB"),
    ];
    let tally = run.tally;
    println!(
        "workload {} seed {} ({} s window)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for m in &metrics {
        println!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("  {:<26} {:>14.4} ratio", "error_rate", tally.error_rate());
    println!(
        "  measured {} answers, {beyond_p90} beyond p90; setups {:?} s; sent {} ok {} not_ok {} \
         mismatched {} unexpected {} lost {}",
        latencies.len(),
        run.setup_s,
        tally.sent,
        tally.ok,
        tally.not_ok,
        tally.mismatched,
        tally.unexpected,
        tally.lost
    );
    let correct = tally.failed() == 0;
    println!(
        "{}",
        result_line(correct, tally.sent, tally.failed(), &metrics)
    );
    if correct {
        Ok(())
    } else {
        Err(format!("{} request(s) failed", tally.failed()))
    }
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        if args.trace {
            trace::run(&args)
        } else {
            run_e2e(&args)
        }
    });
    if let Err(e) = outcome {
        eprintln!("vbfbench: {e}");
        std::process::exit(1);
    }
}
