//! The experiment harness: regenerates every table/series in
//! DESIGN.md's experiment index.
//!
//! ```sh
//! cargo run -p cct-bench --release --bin harness -- all [--quick]
//! cargo run -p cct-bench --release --bin harness -- e1 e4 e6
//! cargo run -p cct-bench --release --bin harness -- e18 --quick \
//!     --json out.json --baseline BENCH_e18.json
//! ```

use cct_bench::experiments as ex;
use cct_bench::{gate, json::Json};

const HELP: &str = "\
harness — regenerate the experiment tables (E1–E22, aux)

USAGE:
    harness [EXPERIMENT...] [OPTIONS]

ARGUMENTS:
    EXPERIMENT    experiments to run: e1 … e22, aux, or all (default all)

OPTIONS:
    --quick           reduced-size sweep for fast iteration
    --json PATH       write the machine-readable report to PATH (the
                      file is re-parsed after writing; malformed output
                      is a hard error). e18, e19, e20, e21 and e22 emit
                      JSON; select exactly one of them with this flag
                      ('all' keeps the legacy behavior of writing e18's
                      report).
    --baseline PATH   compare the fresh report against a committed
                      baseline (BENCH_e18.json / BENCH_e19.json /
                      BENCH_e20.json / BENCH_e21.json /
                      BENCH_e22.json): exit non-zero on a >2x
                      regression of the gated metric on any overlapping
                      row (e18: prepared-mode throughput; e19: the
                      sparse backend's bytes reduction and wall-clock
                      ratio; e20: peak resident prepared-state bytes
                      and their per-family scaling ratio; e21: the MST
                      and weighted-thm1 round totals; e22: the panel-
                      kernel same-run speedup ratios — timing ratios,
                      so the gate is machine-independent)
    --help            this text
";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return 0;
    }
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => match it.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("error: --json needs a path (see --help)");
                    return 2;
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p),
                None => {
                    eprintln!("error: --baseline needs a path (see --help)");
                    return 2;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown option '{other}' (see --help)");
                return 2;
            }
            other => selected.push(other.to_string()),
        }
    }
    let run_all = selected.is_empty() || selected.iter().any(|s| s == "all");

    type Experiment = (&'static str, fn(bool));
    let experiments: Vec<Experiment> = vec![
        ("e1", ex::e1),
        ("e2", ex::e2),
        ("e3", ex::e3),
        ("e4", ex::e4),
        ("e5", ex::e5),
        ("e6", ex::e6),
        ("e7", ex::e7),
        ("e8", ex::e8),
        ("e9", ex::e9),
        ("e10", ex::e10),
        ("e11", ex::e11),
        ("e12", ex::e12),
        ("e13", ex::e13),
        ("e14", ex::e14),
        ("e15", ex::e15),
        ("e16", ex::e16),
        ("e17", ex::e17),
        ("aux", ex::failure_probe),
    ];
    // e18–e22 return reports consumed by --json/--baseline, so they
    // live outside the fn(bool) table.
    type JsonRunner = (&'static str, fn(bool) -> Json);
    let json_runners: Vec<JsonRunner> = vec![
        ("e18", ex::e18),
        ("e19", ex::e19),
        ("e20", ex::e20),
        ("e21", ex::e21),
        ("e22", ex::e22),
    ];
    let known = |s: &str| {
        s == "all"
            || json_runners.iter().any(|(n, _)| *n == s)
            || experiments.iter().any(|(n, _)| *n == s)
    };
    if let Some(bad) = selected.iter().find(|s| !known(s)) {
        eprintln!("error: unknown experiment '{bad}' (see --help)");
        return 2;
    }
    let runs_json = |name: &str| run_all || selected.iter().any(|s| s == name);
    let json_selected: Vec<&str> = json_runners
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| runs_json(n))
        .collect();
    let flags = json_path.is_some() || baseline_path.is_some();
    if flags && json_selected.is_empty() {
        eprintln!("error: --json/--baseline require one of e18–e22 to be selected (see --help)");
        return 2;
    }
    // Which report the flags apply to: an explicit lone selection wins;
    // 'all' keeps the legacy behavior (e18's report).
    let json_experiment = if run_all {
        "e18"
    } else if json_selected.len() == 1 {
        json_selected[0]
    } else {
        if flags {
            eprintln!(
                "error: select only one of e18/e19/e20/e21/e22 with --json/--baseline (see --help)"
            );
            return 2;
        }
        "e18"
    };

    println!(
        "cct experiment harness — {} mode",
        if quick { "quick" } else { "full" }
    );
    let started = std::time::Instant::now();
    for (name, f) in &experiments {
        if run_all || selected.iter().any(|s| s == name) {
            let t = std::time::Instant::now();
            f(quick);
            println!("[{name} done in {:.1?}]", t.elapsed());
        }
    }
    let mut gated_report: Option<Json> = None;
    for &(name, runner) in &json_runners {
        if !runs_json(name) {
            continue;
        }
        let t = std::time::Instant::now();
        let report = runner(quick);
        println!("[{name} done in {:.1?}]", t.elapsed());
        if name == json_experiment {
            gated_report = Some(report);
        }
    }
    if let Some(report) = gated_report {
        if let Some(path) = &json_path {
            let text = report.pretty();
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return 1;
            }
            // Self-check: re-read and re-parse what landed on disk, so a
            // malformed report can never slip into a committed baseline.
            let reread = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot re-read {path}: {e}");
                    return 1;
                }
            };
            if let Err(e) = Json::parse(&reread) {
                eprintln!("error: {path} is malformed JSON: {e}");
                return 1;
            }
            println!("{json_experiment} report written to {path}");
        }
        if let Some(path) = &baseline_path {
            let text = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read baseline {path}: {e}");
                    return 1;
                }
            };
            let baseline = match Json::parse(&text) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("error: baseline {path} is malformed JSON: {e}");
                    return 1;
                }
            };
            match gate::check_against_baseline(&report, &baseline) {
                Ok(result) => {
                    println!("\nbaseline gate ({path}, 2x band):");
                    for line in &result.compared {
                        println!("  {line}");
                    }
                    if !result.passed() {
                        eprintln!("error: gated metric regressed beyond the 2x band:");
                        for line in &result.regressions {
                            eprintln!("  {line}");
                        }
                        return 1;
                    }
                    println!("baseline gate passed");
                }
                Err(e) => {
                    eprintln!("error: baseline comparison failed: {e}");
                    return 1;
                }
            }
        }
    }
    println!(
        "\nall selected experiments finished in {:.1?}",
        started.elapsed()
    );
    0
}
