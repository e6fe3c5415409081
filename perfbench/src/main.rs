//! `cct-perfbench` — the repository benchmark: end-to-end metrics of the
//! spanning-tree sampler and its service, and per-layer metrics from a
//! separate traced run.
//!
//! Normally started through `perfbench/run.py`, which builds this binary
//! and the `cct` CLI first:
//!
//! ```sh
//! python3 perfbench/run.py --workload dense-er256 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! print every metric by name with its unit, the sample count behind
//! every percentile, and the machine the run measured.

mod check;
mod replay;
mod sampler;
mod served;
mod stats;
mod trace;

use check::{Fault, Tally};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics with a regression bound: every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trees_per_s", "1/s"),
    ("rounds_per_tree", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end figures printed with the bounded ones but not bounded:
/// `draw_s.p50` does not hold steady on served-mix, and `failed_frac` is
/// 0 on a correct build (the result's `failed` field carries it).
const END_TO_END_PRINTED: &[(&str, &str)] = &[("draw_s.p50", "s"), ("failed_frac", "ratio")];

/// Per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("draw_s.p50", "s"),
    ("sim.powers_s", "s"),
    ("sim.levels_materialized", "count"),
    ("sim.table_bytes", "bytes"),
    ("linalg.square_s", "s"),
    ("linalg.square_gflops", "GFLOP/s"),
    ("linalg.square_par_eff", "ratio"),
    ("linalg.flops_computed", "flop"),
    ("schur.shortcut_s", "s"),
    ("schur.transition_s", "s"),
    ("linalg.lu_inverse_s", "s"),
    ("schur.first_visit_s", "s"),
    ("core.self_s", "s"),
    ("core.walk_steps", "count"),
    ("core.placement_words", "words"),
    ("core.pi_words", "words"),
    ("core.extensions", "count"),
    ("core.phases.topdown", "count"),
    ("core.phases.direct", "count"),
    ("core.phases.streamed", "count"),
    ("sim.rounds.matmul", "rounds"),
    ("sim.rounds.binary_search", "rounds"),
    ("sim.rounds.midpoints", "rounds"),
    ("sim.rounds.matching", "rounds"),
    ("sim.rounds.first_visit", "rounds"),
    ("sim.rounds.gather", "rounds"),
    ("sim.rounds.routing", "rounds"),
    ("sim.rounds.other", "rounds"),
    ("graph.load_s", "s"),
    ("graph.transition_s", "s"),
    ("core.prepare_s", "s"),
    ("core.prepared_bytes", "bytes"),
    ("serve.p50_ms.low", "ms"),
    ("serve.p99_ms.low", "ms"),
    ("serve.p50_ms.high", "ms"),
    ("serve.p99_ms.high", "ms"),
    ("serve.goodput_rps.high", "1/s"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.prepares", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.overloaded", "count"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("serve.backlog_max", "count"),
];

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Generated inputs, sockets, span files and reports go here.
    pub scratch: PathBuf,
    /// The `cct` CLI binary served-mix starts as its server.
    pub cct: Option<PathBuf>,
    /// served-mix's arrival rates and goodput latency limit; required
    /// for served-mix, which has no defaults (BENCHMARK.json sets them).
    pub low_rps: Option<f64>,
    pub high_rps: Option<f64>,
    pub p99_limit_ms: Option<f64>,
    pub inject: Option<Fault>,
    /// Commit or source digest of the measured tree.
    pub source: String,
}

/// A workload's measurements. `e2e` and `layers` are keyed by the names
/// in [`END_TO_END`] and [`PER_LAYER`]; `notes` are extra report lines
/// (sample counts, accounting tables).
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub notes: Vec<String>,
}

/// `VmHWM` of a process, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

const HELP: &str = "\
cct-perfbench --workload NAME --seed N --seconds S --trace 0|1 [OPTIONS]
cct-perfbench gen-sparse --seed N --out PATH
cct-perfbench set-up COUNT --workload NAME --seed N [--scratch DIR]

WORKLOADS: dense-er256, served-mix, sparse-large

OPTIONS:
    --scratch DIR        generated inputs, sockets, spans (default .bench_scratch)
    --cct PATH           the cct CLI binary (served-mix starts it as server)
    --low-rps R          served-mix low arrival rate (required for served-mix)
    --high-rps R         served-mix high arrival rate (required for served-mix)
    --p99-limit-ms L     served-mix latency limit for goodput (required for served-mix)
    --inject tree|replay self-test: corrupt the first tree or the first
                         replay reference; the run must then fail
    --source ID          commit or source digest recorded in the report
";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_scratch"),
        cct: None,
        low_rps: None,
        high_rps: None,
        p99_limit_ms: None,
        inject: None,
        source: "unknown".into(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{what} needs a value"));
        let num = |s: String, what: &str| s.parse::<f64>().map_err(|_| format!("bad {what}"));
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
            }
            "--seconds" => opts.seconds = num(value("--seconds")?, "--seconds")?,
            "--trace" => opts.trace = value("--trace")? == "1",
            "--scratch" => opts.scratch = PathBuf::from(value("--scratch")?),
            "--cct" => opts.cct = Some(PathBuf::from(value("--cct")?)),
            "--low-rps" => opts.low_rps = Some(num(value("--low-rps")?, "--low-rps")?),
            "--high-rps" => opts.high_rps = Some(num(value("--high-rps")?, "--high-rps")?),
            "--p99-limit-ms" => {
                opts.p99_limit_ms = Some(num(value("--p99-limit-ms")?, "--p99-limit-ms")?);
            }
            "--inject" => {
                let v = value("--inject")?;
                opts.inject = Some(Fault::parse(&v).ok_or(format!("unknown fault '{v}'"))?);
            }
            "--source" => opts.source = value("--source")?,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if !positive(opts.seconds)
        || ![opts.low_rps, opts.high_rps, opts.p99_limit_ms]
            .into_iter()
            .flatten()
            .all(positive)
    {
        return Err("--seconds, the rates and the limit must be positive".into());
    }
    Ok(opts)
}

fn fmt_value(v: f64) -> String {
    // Rust's shortest round-trip formatting: every digit the value has.
    format!("{v}")
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let source = if trace { &outcome.layers } else { &outcome.e2e };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = source.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                fmt_value(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.failures.is_empty(),
        outcome.tally.attempted,
        outcome.tally.failed(),
        metrics.join(",")
    )
}

/// The end-to-end metrics an untraced run of the same workload and seed
/// recorded in the scratch directory, for the tracing-overhead line.
fn untraced_e2e(opts: &Opts) -> Option<BTreeMap<String, f64>> {
    let path = report_path(opts, false);
    let text = std::fs::read_to_string(path).ok()?;
    let json = cct::json::Json::parse(&text).ok()?;
    let cct::json::Json::Obj(fields) = json.get("e2e")? else {
        return None;
    };
    Some(
        fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
    )
}

fn report_path(opts: &Opts, trace: bool) -> PathBuf {
    opts.scratch.join(format!(
        "report-{}-s{}-t{}.json",
        opts.workload,
        opts.seed,
        u8::from(trace)
    ))
}

fn write_report(opts: &Opts, outcome: &Outcome, header: &[(String, String)]) {
    use cct::json::Json;
    let obj = |m: &BTreeMap<&'static str, f64>| {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                .collect(),
        )
    };
    let report = Json::Obj(vec![
        (
            "header".into(),
            Json::Obj(
                header
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        ("e2e".into(), obj(&outcome.e2e)),
        ("layers".into(), obj(&outcome.layers)),
        (
            "notes".into(),
            Json::Arr(outcome.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        (
            "failures".into(),
            Json::Arr(
                outcome
                    .tally
                    .failures
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = std::fs::write(report_path(opts, opts.trace), report.pretty()) {
        eprintln!("warning: could not write the report file: {e}");
    }
}

fn print_metrics(title: &str, list: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for (name, unit) in list {
        let v = values.get(name).copied().unwrap_or(0.0);
        println!("  {name:<28} {:>16} {unit}", format!("{v:.6}"));
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return Ok(true);
    }
    if args.first().map(String::as_str) == Some("gen-sparse") {
        return sampler::gen_sparse_main(&args[1..]).map(|()| true);
    }
    if args.first().map(String::as_str) == Some("set-up") {
        let count = args
            .get(1)
            .and_then(|c| c.parse().ok())
            .ok_or("set-up needs a count")?;
        return sampler::set_up_main(&parse_args(&args[2..])?, count).map(|()| true);
    }
    let opts = parse_args(&args)?;
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("create {}: {e}", opts.scratch.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header: Vec<(String, String)> = vec![
        ("workload".into(), opts.workload.clone()),
        ("seed".into(), opts.seed.to_string()),
        ("seconds".into(), opts.seconds.to_string()),
        ("trace".into(), u8::from(opts.trace).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("cpu".into(), cpu_model()),
        ("source".into(), opts.source.clone()),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ];
    for (k, v) in &header {
        println!("# {k}: {v}");
    }
    let mut outcome = match opts.workload.as_str() {
        "dense-er256" => sampler::run(&opts, sampler::Kind::DenseEr256)?,
        "sparse-large" => sampler::run(&opts, sampler::Kind::SparseLarge)?,
        "served-mix" => served::run(&opts)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    outcome
        .e2e
        .insert("failed_frac", outcome.tally.failed_frac());
    let draw_p50 = outcome.e2e.get("draw_s.p50").copied().unwrap_or(0.0);
    outcome.layers.insert("draw_s.p50", draw_p50);
    for note in &outcome.notes {
        println!("# {note}");
    }
    let e2e_list = [END_TO_END, END_TO_END_PRINTED].concat();
    print_metrics(
        if opts.trace {
            "end-to-end (traced run)"
        } else {
            "end-to-end"
        },
        &e2e_list,
        &outcome.e2e,
    );
    if opts.trace {
        print_metrics("per-layer", PER_LAYER, &outcome.layers);
        match untraced_e2e(&opts) {
            Some(base) => {
                println!("tracing overhead (traced minus untraced, same seed)");
                for (name, unit) in &e2e_list {
                    if let (Some(t), Some(u)) = (outcome.e2e.get(name), base.get(*name)) {
                        println!("  {name:<28} {:>+16.6} {unit}", t - u);
                    }
                }
            }
            None => println!(
                "tracing overhead: no untraced run of this workload and seed in {}; \
                 run --trace 0 first",
                opts.scratch.display()
            ),
        }
    }
    for why in &outcome.tally.failures {
        println!("FAILED: {why}");
    }
    write_report(&opts, &outcome, &header);
    println!("{}", result_line(&outcome, opts.trace));
    Ok(outcome.tally.failures.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
