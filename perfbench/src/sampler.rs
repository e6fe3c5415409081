//! The sampler workloads: closed loops of cold
//! `CliqueTreeSampler::sample` draws, one client, each draw started when
//! the previous one returns.
//!
//! * `dense-er256` — `er:256:0.06` built from the benchmark seed, thm1,
//!   f64, auto backend, two workers. The matrix path (Schur solves and
//!   doubling-table squarings) does nearly all the work.
//! * `sparse-large` — a connected 3-regular graph on 2^18 vertices,
//!   generated from the seed into the scratch directory and loaded
//!   through `file:`, sparse backend. The draws take the out-of-core
//!   streamed route, so no matrix layer runs.

use crate::check::{corrupt, is_spanning_tree, Fault};
use crate::replay::{replay_draw, LayerAcc, Probes, ReportCounts};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{peak_rss_mb, Opts, Outcome};
use cct::core::{Backend, CliqueTreeSampler, PhaseMethod, SampleReport, SamplerConfig, Workers};
use cct::graph::spec::{parse_spec_with_limits, SpecLimits};
use cct::graph::Graph;
use cct::sim::machine_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DenseEr256,
    SparseLarge,
}

impl Kind {
    pub fn parse(workload: &str) -> Result<Kind, String> {
        match workload {
            "dense-er256" => Ok(Kind::DenseEr256),
            "sparse-large" => Ok(Kind::SparseLarge),
            other => Err(format!("'{other}' is not a sampler workload")),
        }
    }
}

const DENSE_SPEC: &str = "er:256:0.06";
const SPARSE_N: usize = 1 << 18;
/// Set-ups per batch, and timed draws between batches; `setup_s` is the
/// median of every set-up of the run. One batch runs before the first
/// draw and the rest between draws, so the set-ups sample the host over
/// the whole run: the host's speed drifts by tens of percent from one
/// second to the next, and a run's set-ups taken in one go would land in
/// one such second. Each batch runs in a child process (`set-up`), so
/// the graphs it loads stay out of the sampler process's peak RSS.
/// Building er:256 takes under a millisecond, loading the 2^18-vertex
/// file a quarter to a half of a second.
fn setup_batches(kind: Kind) -> (usize, u64) {
    match kind {
        Kind::DenseEr256 => (20, 1),
        Kind::SparseLarge => (1, 3),
    }
}
/// `rounds_per_tree` is the mean over a fixed prefix of the draw-seed
/// list, so it repeats exactly whatever the machine's speed; the loop
/// always completes at least this many draws.
fn rounds_prefix(kind: Kind) -> usize {
    match kind {
        Kind::DenseEr256 => 8,
        Kind::SparseLarge => 16,
    }
}

/// The sampler configuration `cct thm1 --workers 2 --backend B` runs.
fn config(kind: Kind, workers: usize) -> SamplerConfig {
    let backend = match kind {
        Kind::DenseEr256 => Backend::Auto,
        Kind::SparseLarge => Backend::Sparse,
    };
    SamplerConfig::new()
        .threads(1)
        .workers(Workers::Fixed(workers))
        .backend(backend)
}

/// Edges of a connected 3-regular graph on `n` (even) vertices: a
/// Hamiltonian cycle through a random permutation plus a random perfect
/// matching that avoids the cycle's edges and itself.
fn cubic_edges(n: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let key = |a: usize, b: usize| (a.min(b), a.max(b));
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let cycle: Vec<(usize, usize)> = (0..n).map(|i| key(perm[i], perm[(i + 1) % n])).collect();
    let on_cycle: HashSet<(usize, usize)> = cycle.iter().copied().collect();
    loop {
        let mut m: Vec<usize> = (0..n).collect();
        m.shuffle(rng);
        let matching: Vec<(usize, usize)> = m.chunks(2).map(|p| key(p[0], p[1])).collect();
        if matching.iter().all(|e| !on_cycle.contains(e)) {
            return cycle.into_iter().chain(matching).collect();
        }
    }
}

/// `gen-sparse --seed N --out PATH`: writes the sparse-large edge list.
/// Run as a child process so its memory stays out of the sampler's
/// peak RSS.
pub fn gen_sparse_main(args: &[String]) -> Result<(), String> {
    let mut seed: Option<u64> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()),
            "--out" => out = it.next().map(PathBuf::from),
            other => return Err(format!("unknown gen-sparse option '{other}'")),
        }
    }
    let (seed, out) = seed.zip(out).ok_or("gen-sparse needs --seed and --out")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = cubic_edges(SPARSE_N, &mut rng);
    let tmp = out.with_extension("tmp");
    let file = std::fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| e.to_string();
    writeln!(
        w,
        "# connected 3-regular graph, n = {SPARSE_N}, seed {seed}"
    )
    .map_err(io)?;
    for (u, v) in edges {
        writeln!(w, "{u} {v}").map_err(io)?;
    }
    w.flush().map_err(io)?;
    drop(w);
    std::fs::rename(&tmp, &out).map_err(io)
}

/// sparse-large's edge list in the scratch directory.
fn input_path(kind: Kind, opts: &Opts) -> Option<PathBuf> {
    (kind == Kind::SparseLarge).then(|| opts.scratch.join(format!("sparse-large-{}.el", opts.seed)))
}

fn ensure_sparse_input(opts: &Opts) -> Result<PathBuf, String> {
    let path = input_path(Kind::SparseLarge, opts).expect("sparse-large has an input");
    if !path.exists() {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .args(["gen-sparse", "--seed", &opts.seed.to_string(), "--out"])
            .arg(&path)
            .status()
            .map_err(|e| format!("gen-sparse: {e}"))?;
        if !status.success() {
            return Err(format!("gen-sparse failed: {status}"));
        }
    }
    Ok(path)
}

fn load(kind: Kind, opts: &Opts, path: Option<&Path>) -> Result<Graph, String> {
    let limits = SpecLimits::from_env().with_sparse_backend(kind == Kind::SparseLarge);
    let spec = match path {
        Some(p) => format!("file:{}", p.display()),
        None => DENSE_SPEC.to_string(),
    };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    parse_spec_with_limits(&spec, &mut rng, &limits).map_err(|e| format!("{spec}: {e}"))
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-up times: one entry per set-up.
#[derive(Debug, Default)]
struct SetUps {
    total: Vec<f64>,
    load: Vec<f64>,
    transition: Vec<f64>,
    prepare: Vec<f64>,
    prepared_bytes: f64,
}

/// One set-up: loads or builds the graph and prepares it. Returns the
/// graph and the line `set-up` prints for it: total (load plus prepare),
/// load, transition-matrix and prepare seconds, and prepared bytes.
fn set_up(
    kind: Kind,
    opts: &Opts,
    input: Option<&Path>,
    sampler: &CliqueTreeSampler,
) -> Result<(Graph, String), String> {
    let t = Instant::now();
    let g = load(kind, opts, input)?;
    let load_s = secs(t);
    let t = Instant::now();
    let prepared = sampler.prepare(&g).map_err(|e| e.to_string())?;
    let prepare_s = secs(t);
    let bytes = prepared.matrix_bytes();
    drop(prepared);
    let t = Instant::now();
    std::hint::black_box(g.transition_pmatrix(sampler.config().backend.resolve(&g)));
    let transition_s = secs(t);
    let line = format!(
        "{} {load_s} {transition_s} {prepare_s} {bytes}",
        load_s + prepare_s
    );
    Ok((g, line))
}

/// `set-up COUNT --workload W --seed N --scratch DIR`: runs COUNT
/// set-ups one after another, each dropping the previous graph first,
/// and prints one line of times per set-up (see [`set_up`]).
pub fn set_up_main(opts: &Opts, count: usize) -> Result<(), String> {
    let kind = Kind::parse(&opts.workload)?;
    let input = input_path(kind, opts);
    let sampler = CliqueTreeSampler::new(config(kind, 2));
    let mut graph = None;
    for _ in 0..count {
        drop(graph.take());
        let (g, line) = set_up(kind, opts, input.as_deref(), &sampler)?;
        println!("{line}");
        graph = Some(g);
    }
    Ok(())
}

/// Runs a batch of set-ups in a child process and records their times.
fn set_up_batch(opts: &Opts, count: usize, log: &mut SetUps) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["set-up", &count.to_string(), "--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string(), "--scratch"])
        .arg(&opts.scratch)
        .output()
        .map_err(|e| format!("set-up: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let v: Vec<f64> = line
            .split_whitespace()
            .map(|x| x.parse().map_err(|_| format!("set-up printed {line:?}")))
            .collect::<Result<_, _>>()?;
        let [total, load, transition, prepare, bytes] = v[..] else {
            return Err(format!("set-up printed {line:?}"));
        };
        log.total.push(total);
        log.load.push(load);
        log.transition.push(transition);
        log.prepare.push(prepare);
        log.prepared_bytes = bytes;
    }
    Ok(())
}

/// Checks one draw's result; returns the report when the tree is valid.
fn check_draw(
    g: &Graph,
    result: Result<SampleReport, String>,
    corrupt_it: bool,
) -> Result<SampleReport, String> {
    let report = result?;
    if report.monte_carlo_failure {
        return Err("Monte Carlo failure flagged".into());
    }
    let mut edges = report.tree.edges().to_vec();
    if corrupt_it {
        corrupt(g, &mut edges);
    }
    is_spanning_tree(g, &edges)?;
    Ok(report)
}

pub fn run(opts: &Opts, kind: Kind) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = match kind {
        Kind::SparseLarge => Some(ensure_sparse_input(opts)?),
        Kind::DenseEr256 => None,
    };
    let cfg = config(kind, 2);
    let sampler = CliqueTreeSampler::new(cfg.clone());

    // ── Set-up: the sampler's own graph, then the timed batches.
    let (batch, every) = setup_batches(kind);
    let mut log = SetUps::default();
    let (g, _) = set_up(kind, opts, input.as_deref(), &sampler)?;
    set_up_batch(opts, batch, &mut log)?;
    out.notes
        .push(format!("graph: n = {}, m = {}", g.n(), g.m()));

    // ── Closed loop of cold draws over the seed's draw-seed list.
    let mut tracer = Tracer::new();
    let mut acc = LayerAcc::default();
    let mut probes = Probes::default();
    let mut draw_s = Vec::new();
    let mut counts = ReportCounts::default();
    let mut prefix_rounds = Vec::new();
    let mut first: Option<SampleReport> = None;
    let mut replay_rng = StdRng::seed_from_u64(machine_seed(opts.seed, u64::MAX));
    // Draw 0 warms caches and the allocator: it is checked and counted
    // in rounds_per_tree, but not timed. The loop measures `--seconds`
    // of draw time; set-up batches run between draws, outside it.
    let mut i = 0u64;
    while (i as usize) < rounds_prefix(kind) || draw_s.iter().sum::<f64>() < opts.seconds {
        let mut rng = StdRng::seed_from_u64(machine_seed(opts.seed, i));
        let span = opts.trace.then(|| tracer.begin("draw", i));
        let t = Instant::now();
        let result = sampler.sample(&g, &mut rng).map_err(|e| e.to_string());
        let dt = secs(t);
        if let Some(idx) = span {
            tracer.end(idx);
        }
        let checked = check_draw(&g, result, i == 0 && opts.inject == Some(Fault::Tree));
        out.tally.record(
            checked
                .as_ref()
                .map(|_| ())
                .map_err(|e| format!("draw {i}: {e}")),
        );
        if let Ok(report) = checked {
            if i > 0 {
                draw_s.push(dt);
            }
            if opts.trace {
                let idx = tracer.begin("replay", i);
                replay_draw(
                    &mut tracer,
                    i,
                    &g,
                    &cfg,
                    &report,
                    false,
                    &mut replay_rng,
                    &mut acc,
                );
                if report
                    .phases
                    .iter()
                    .any(|p| p.method != PhaseMethod::StreamedLocal)
                {
                    probes.probe(&mut tracer, i, &g, 2);
                }
                tracer.end(idx);
            }
            if i == 0 {
                first = Some(report.clone());
            }
            counts.add(&report);
            if prefix_rounds.len() < rounds_prefix(kind) {
                prefix_rounds.push(report.total_rounds() as f64);
            }
        }
        if i.is_multiple_of(every) {
            set_up_batch(opts, batch, &mut log)?;
        }
        i += 1;
    }
    let peak = peak_rss_mb(None).unwrap_or(0.0);

    // ── Determinism: dense-er256's first seed redrawn on one worker
    // must be byte-identical (tree and ledger).
    if kind == Kind::DenseEr256 {
        let one = CliqueTreeSampler::new(config(kind, 1));
        let mut rng = StdRng::seed_from_u64(machine_seed(opts.seed, 0));
        let redraw = one.sample(&g, &mut rng).map_err(|e| e.to_string());
        let verdict = match (&first, redraw) {
            (Some(a), Ok(mut b)) => {
                if opts.inject == Some(Fault::Replay) {
                    b.rounds = cct::sim::RoundLedger::new();
                }
                if a.tree.edges() == b.tree.edges() && a.rounds == b.rounds {
                    Ok(())
                } else {
                    Err("first seed redrawn at Workers::Fixed(1) differs".to_string())
                }
            }
            (None, _) => Err("first draw failed; nothing to redraw".to_string()),
            (Some(_), Err(e)) => Err(format!("redraw failed: {e}")),
        };
        out.tally.record(verdict);
    }

    // ── Metrics.
    let draws = Samples::new(draw_s.clone());
    let median = draws.median().unwrap_or(0.0);
    let rounds = Samples::new(prefix_rounds.clone()).mean().unwrap_or(0.0);
    let setup = Samples::new(log.total);
    out.e2e.insert("setup_s", setup.median().unwrap_or(0.0));
    out.e2e.insert(
        "trees_per_s",
        draw_s.len() as f64 / draws.sum().max(f64::MIN_POSITIVE),
    );
    out.e2e.insert("draw_s.p50", median);
    out.e2e.insert("rounds_per_tree", rounds);
    out.e2e.insert("peak_rss_mb", peak);
    out.notes.push(format!(
        "draws: {} timed, {i} drawn (draw 0 warms up; draw_s.p50 over {} samples, {} beyond it; \
         setup_s median of {} set-ups in batches of {batch} after every {every} draws; \
         rounds_per_tree over the first {} draws)",
        draw_s.len(),
        draws.len(),
        draws.len() / 2,
        setup.len(),
        prefix_rounds.len()
    ));
    out.notes.push(format!(
        "draw times (s): {}",
        draw_s
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if let Some(p90) = draws.tail(0.9) {
        out.notes.push(format!("draw_s.p90 = {p90:.6} s"));
    }

    let layers = &mut out.layers;
    counts.write(layers);
    let median_of = |v: Vec<f64>| Samples::new(v).median().unwrap_or(0.0);
    layers.insert("graph.load_s", median_of(log.load));
    layers.insert("graph.transition_s", median_of(log.transition));
    layers.insert("core.prepare_s", median_of(log.prepare));
    layers.insert("core.prepared_bytes", log.prepared_bytes);
    if opts.trace {
        acc.write(layers);
        probes.write(layers);
        let self_s = median - acc.layer_s_per_draw();
        layers.insert("core.self_s", self_s);
        out.notes.push(format!(
            "draw accounting: median draw {median:.6} s = shortcut {:.6} + transition {:.6} + \
             powers {:.6} + first-visit {:.6} + core self {self_s:.6} (layer figures are means \
             per draw over {} replayed draws)",
            layers["schur.shortcut_s"],
            layers["schur.transition_s"],
            layers["sim.powers_s"],
            layers["schur.first_visit_s"],
            acc.draws
        ));
        for (name, t) in tracer.layer_times() {
            out.notes.push(format!(
                "span {name:<18} count {:>6}  total {:>10.6} s  self {:>10.6} s",
                t.count, t.total_s, t.self_s
            ));
        }
        let path = opts
            .scratch
            .join(format!("spans-{}-s{}.jsonl", opts.workload, opts.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(out)
}
