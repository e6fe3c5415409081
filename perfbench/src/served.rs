//! served-mix: an open loop against `cct serve --workers 2` children on
//! unix sockets, then a closed loop that measures the server's capacity.
//!
//! A run has [`SEGMENTS`] segments, each against a freshly started
//! server. One thread drives one pipelined connection. Each segment has
//! three phases:
//!
//! * low and high: arrivals follow a Poisson schedule drawn from the
//!   seed, at the low and then the high rate. A request is sent when it
//!   is due, unless [`WINDOW`] requests are already unanswered; it then
//!   waits in the client's backlog, and its latency still runs from when
//!   it was due. Between sends the client sleeps in a blocking read, so
//!   it wakes when a reply arrives.
//! * saturation: a closed loop that keeps [`WINDOW`] hot-key requests
//!   unanswered; its reply rate is the served `trees_per_s`, the
//!   capacity the two rates are fractions of.
//!
//! The mix: the twelve hot keys in [`HOT`] get equal shares, dealt in
//! shuffled decks of twelve; each hot request names one of the key's
//! [`SEED_POOL`] seeds. [`TAIL_FRAC`] of the open-loop requests name
//! one-shot keys (each used once per run), so the server's 16-entry
//! prepared cache, smaller than the key set, misses and evicts.
//!
//! Set-up (`setup_s`) is spawn-until-the-hot-keys-are-warm. Besides each
//! segment's own start, [`EXTRA_SETUPS`] more servers are started, warmed
//! and drained before each segment, so the median spans the whole run.
//!
//! After the load, every served draw is checked as a spanning tree of
//! its graph and compared with the in-process `PreparedSampler` draw at
//! `SampleRequest::draw_seed(0)`.

use crate::check::{is_spanning_tree, Fault};
use crate::replay::{replay_draw, LayerAcc, Probes, ReportCounts};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{peak_rss_mb, Opts, Outcome};
use cct::core::{Backend, CliqueTreeSampler, PreparedSampler, SampleReport, SamplerConfig};
use cct::graph::spec::{parse_spec_with_limits, SpecLimits};
use cct::graph::Graph;
use cct::json::Json;
use cct::serve::{spec_seed, Algorithm, ControlCommand, SampleRequest};
use cct::sim::machine_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The hot set {thm1, exact} × {petersen, grid:5x5, wheel:33, cycle:33,
/// er-w:32:0.3, er:48:0.2}, requested in equal shares.
const HOT: [(Algorithm, &str); 12] = [
    (Algorithm::Thm1, "petersen"),
    (Algorithm::Thm1, "grid:5x5"),
    (Algorithm::Thm1, "wheel:33"),
    (Algorithm::Thm1, "cycle:33"),
    (Algorithm::Thm1, "er-w:32:0.3"),
    (Algorithm::Thm1, "er:48:0.2"),
    (Algorithm::Exact, "petersen"),
    (Algorithm::Exact, "grid:5x5"),
    (Algorithm::Exact, "wheel:33"),
    (Algorithm::Exact, "cycle:33"),
    (Algorithm::Exact, "er-w:32:0.3"),
    (Algorithm::Exact, "er:48:0.2"),
];
/// Request seeds per hot key, drawn from the benchmark seed. A served
/// draw is checked against the in-process draw of the same request, and
/// the pool bounds how many of those the client has to compute.
const SEED_POOL: usize = 48;
/// Share of open-loop requests that name a one-shot key.
const TAIL_FRAC: f64 = 0.04;
/// Unanswered requests the client keeps on its connection: the server's
/// default in-flight bound at two workers (`4 × workers`), so the server
/// never has cause to refuse.
const WINDOW: usize = 8;
/// Longer than a scheduler tick: the margin a blocking read keeps before
/// the next due time.
const TICK_S: f64 = 0.005;
/// The client's sleep while polling near a due time.
const POLL_S: f64 = 0.000_1;
/// Segments per run. Each starts a fresh server, which gives one
/// peak-RSS sample, and carries a slice of the schedule.
const SEGMENTS: usize = 5;
/// Servers started, warmed and drained before each segment, for more
/// `setup_s` samples.
const EXTRA_SETUPS: usize = 3;
/// Shares of `--seconds` spent at the low rate, at the high rate and in
/// the saturation loop. The low rate gets the largest share so that its
/// p99 has at least ten samples beyond it.
const LOW_SHARE: f64 = 0.5;
const HIGH_SHARE: f64 = 0.25;
const SATURATION_SHARE: f64 = 0.25;
const SERVER_WORKERS: &str = "2";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Low,
    High,
    Saturation,
}

#[derive(Debug, Clone)]
struct Planned {
    /// Seconds after the segment's start; 0 in the saturation loop,
    /// whose requests are sent as the window frees.
    due_s: f64,
    phase: Phase,
    request: SampleRequest,
}

/// A served draw: its edges, total rounds, and Monte Carlo failure flag.
type ServedDraw = (Vec<(usize, usize)>, u64, bool);

/// Served outcome of one request.
#[derive(Debug, Clone, Default)]
struct Reply {
    sent_s: f64,
    recv_s: f64,
    result: Option<Result<ServedDraw, String>>,
}

/// The hot-key request stream: equal shares in shuffled decks, each
/// request with a seed from its key's pool.
struct HotMix {
    rng: StdRng,
    deck: Vec<usize>,
    pools: Vec<Vec<u64>>,
}

impl HotMix {
    fn new(seed: u64) -> HotMix {
        let mut rng = StdRng::seed_from_u64(machine_seed(seed, 2));
        let pools = HOT
            .iter()
            .map(|_| {
                (0..SEED_POOL)
                    .map(|_| rng.gen_range(0..u64::MAX >> 11))
                    .collect()
            })
            .collect();
        HotMix {
            rng,
            deck: Vec::new(),
            pools,
        }
    }

    fn next(&mut self) -> SampleRequest {
        if self.deck.is_empty() {
            self.deck = (0..HOT.len()).collect();
            self.deck.shuffle(&mut self.rng);
        }
        let k = self.deck.pop().expect("refilled");
        let seed = self.pools[k][self.rng.gen_range(0..SEED_POOL)];
        let (a, spec) = HOT[k];
        SampleRequest::new(spec).algorithm(a).seed(seed)
    }
}

/// One-shot keys: small connected families at distinct sizes, under each
/// algorithm and backend (the backend is part of the cache key, the draw
/// does not depend on it).
fn tail_keys(rng: &mut StdRng) -> Vec<(Algorithm, Backend, String)> {
    let mut specs: Vec<String> = Vec::new();
    for n in 10..=40 {
        specs.push(format!("cycle:{n}"));
        specs.push(format!("wheel:{n}"));
    }
    for r in 3..=6 {
        for c in 3..=7 {
            specs.push(format!("grid:{r}x{c}"));
        }
    }
    let mut keys = Vec::new();
    for s in &specs {
        for a in [Algorithm::Thm1, Algorithm::Exact] {
            for b in [Backend::Auto, Backend::Dense, Backend::Sparse] {
                keys.push((a, b, s.clone()));
            }
        }
    }
    keys.shuffle(rng);
    keys
}

/// The open-loop arrival schedule of every segment: in each, `low_s`
/// seconds at `low_rps`, then `high_s` at `high_rps`; due times are
/// relative to the segment's start.
fn schedule(
    opts: &Opts,
    mix: &mut HotMix,
    (low_rps, low_s): (f64, f64),
    (high_rps, high_s): (f64, f64),
) -> Vec<Vec<Planned>> {
    let mut rng = StdRng::seed_from_u64(machine_seed(opts.seed, 1));
    let mut tail = tail_keys(&mut rng).into_iter();
    let mut segments = Vec::new();
    for _ in 0..SEGMENTS {
        let mut plan = Vec::new();
        for (phase, rate, offset, len) in [
            (Phase::Low, low_rps, 0.0, low_s),
            (Phase::High, high_rps, low_s, high_s),
        ] {
            let mut t = 0.0;
            loop {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() / rate;
                if t >= len {
                    break;
                }
                let request = match (rng.gen_range(0.0..1.0) < TAIL_FRAC)
                    .then(|| tail.next())
                    .flatten()
                {
                    Some((a, b, spec)) => SampleRequest::new(spec)
                        .algorithm(a)
                        .backend(b)
                        .seed(rng.gen_range(0..u64::MAX >> 11)),
                    None => mix.next(),
                };
                plan.push(Planned {
                    due_s: offset + t,
                    phase,
                    request,
                });
            }
        }
        segments.push(plan);
    }
    segments
}

/// The server child; killed and reaped on drop if it was not shut down.
struct Server {
    child: Child,
    endpoint: PathBuf,
}

impl Server {
    fn spawn(cct: &Path, socket: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(cct)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .args(["--workers", SERVER_WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cct.display()))?;
        let stdout = child.stdout.take().expect("piped");
        let server = Server {
            child,
            endpoint: socket,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if !line.starts_with("serving on") {
            return Err(format!("server did not start (said {line:?})"));
        }
        Ok(server)
    }

    fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.endpoint)
            .map_err(|e| format!("connect {}: {e}", self.endpoint.display()))
    }

    fn control(&self, cmd: ControlCommand) -> Result<Json, String> {
        let stream = self.connect()?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        cct::serve::exchange_frame(&mut reader, &mut writer, &cmd.to_json())
            .map_err(|e| e.to_string())
    }

    /// Graceful drain; falls back to kill after ten seconds.
    fn shutdown(mut self) -> Result<(), String> {
        let sent = self.control(ControlCommand::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                let _ = std::fs::remove_file(&self.endpoint);
                return match (sent, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (Err(e), _) => Err(format!("shutdown frame: {e}")),
                    (_, false) => Err(format!("server exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not drain within 10 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.endpoint);
    }
}

/// Spawns a server and warms every hot key; returns it with the seconds
/// from spawn until the last hot key answered.
fn start_warm(opts: &Opts, cct: &Path, k: usize) -> Result<(Server, f64), String> {
    let socket = opts
        .scratch
        .join(format!("sv-{}-{k}.sock", std::process::id()));
    let t = Instant::now();
    let server = Server::spawn(cct, socket)?;
    let stream = server.connect()?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    for (a, spec) in HOT {
        let req = SampleRequest::new(spec).algorithm(a);
        cct::serve::exchange(&mut reader, &mut writer, &req)
            .map_err(|e| format!("warm {spec}: {e}"))?;
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

fn parse_reply(line: &str) -> Result<ServedDraw, String> {
    let json = Json::parse(line).map_err(|e| format!("unparseable reply: {e}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        let msg = json.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("server error: {msg}"));
    }
    let draw = json
        .get("draws")
        .and_then(Json::as_arr)
        .and_then(|d| d.first())
        .ok_or("reply without draws")?;
    let edges = draw
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or("draw without edges")?
        .iter()
        .map(|e| {
            let pair = e.as_arr()?;
            Some((
                pair.first()?.as_u64()? as usize,
                pair.get(1)?.as_u64()? as usize,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed edge")?;
    let rounds = draw
        .get("rounds")
        .and_then(Json::as_u64)
        .ok_or("draw without rounds")?;
    Ok((edges, rounds, draw.get("failure").is_some()))
}

/// Load-phase figures the client measures.
#[derive(Debug, Default)]
struct Load {
    replies: Vec<Reply>,
    backlog_max: usize,
}

fn drive(server: &Server, plan: &[Planned], t0: Instant) -> Result<Load, String> {
    let mut stream = server.connect()?;
    let mut buf: Vec<u8> = Vec::new();
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut load = Load {
        replies: vec![Reply::default(); plan.len()],
        backlog_max: 0,
    };
    let (mut next, mut done) = (0usize, 0usize);
    let mut chunk = vec![0u8; 1 << 16];
    let hard_stop = plan.last().map_or(0.0, |p| p.due_s) + 60.0;
    let io = |e: std::io::Error| e.to_string();
    while done < plan.len() {
        let now = t0.elapsed().as_secs_f64();
        if now > hard_stop {
            return Err(format!(
                "{} requests unanswered 60 s after the schedule",
                plan.len() - done
            ));
        }
        while next < plan.len() && plan[next].due_s <= now && outstanding.len() < WINDOW {
            let mut frame = plan[next].request.to_json().compact().into_bytes();
            frame.push(b'\n');
            stream.write_all(&frame).map_err(io)?;
            load.replies[next].sent_s = t0.elapsed().as_secs_f64();
            outstanding.push_back(next);
            next += 1;
        }
        let due = plan[next..].iter().take_while(|p| p.due_s <= now).count();
        load.backlog_max = load.backlog_max.max(due);
        // Wait for a reply, or until the next request falls due while the
        // window has room. Far from a due time the client blocks in the
        // kernel, which wakes it as soon as a reply arrives; a socket
        // timeout only fires on a scheduler tick, though, so near a due
        // time it polls in short sleeps instead.
        let until_due = (next < plan.len() && outstanding.len() < WINDOW)
            .then(|| plan[next].due_s - t0.elapsed().as_secs_f64());
        let coarse = until_due.map_or(Some(None), |w| {
            (w > TICK_S).then(|| Some(Duration::from_secs_f64(w - TICK_S)))
        });
        let read = match (outstanding.is_empty(), coarse) {
            (true, _) => {
                let w = until_due.unwrap_or(0.0).max(0.0);
                std::thread::sleep(Duration::from_secs_f64(w));
                continue;
            }
            (false, Some(timeout)) => {
                stream.set_nonblocking(false).map_err(io)?;
                stream.set_read_timeout(timeout).map_err(io)?;
                stream.read(&mut chunk)
            }
            (false, None) => {
                stream.set_nonblocking(true).map_err(io)?;
                let r = stream.read(&mut chunk);
                if r.is_err() {
                    std::thread::sleep(Duration::from_secs_f64(POLL_S));
                }
                r
            }
        };
        match read {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e.to_string()),
        }
        let recv_s = t0.elapsed().as_secs_f64();
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let idx = outstanding.pop_front().ok_or("reply without a request")?;
            load.replies[idx].recv_s = recv_s;
            load.replies[idx].result = Some(parse_reply(String::from_utf8_lossy(&line).trim_end()));
            done += 1;
        }
    }
    Ok(load)
}

/// The saturation loop: keeps [`WINDOW`] requests from `mix` unanswered
/// for `secs` seconds, then collects the rest. Returns the requests with
/// their replies and the seconds from the first send to the last reply.
fn saturate(
    server: &Server,
    mix: &mut HotMix,
    secs: f64,
) -> Result<(Vec<Planned>, Vec<Reply>, f64), String> {
    let stream = server.connect()?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let (mut plan, mut replies) = (Vec::new(), Vec::new());
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut line = String::new();
    let t0 = Instant::now();
    loop {
        while outstanding.len() < WINDOW && t0.elapsed().as_secs_f64() < secs {
            let request = mix.next();
            let mut frame = request.to_json().compact().into_bytes();
            frame.push(b'\n');
            writer.write_all(&frame).map_err(|e| e.to_string())?;
            outstanding.push_back(plan.len());
            replies.push(Reply {
                sent_s: t0.elapsed().as_secs_f64(),
                ..Reply::default()
            });
            plan.push(Planned {
                due_s: 0.0,
                phase: Phase::Saturation,
                request,
            });
        }
        let Some(idx) = outstanding.pop_front() else {
            break;
        };
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        replies[idx].recv_s = t0.elapsed().as_secs_f64();
        replies[idx].result = Some(parse_reply(line.trim_end()));
    }
    Ok((plan, replies, t0.elapsed().as_secs_f64()))
}

/// The sampler configuration `cct serve` prepares for an algorithm.
fn server_config(a: Algorithm, b: Backend) -> SamplerConfig {
    let base = match a {
        Algorithm::Exact => SamplerConfig::exact_variant(),
        _ => SamplerConfig::new(),
    };
    base.threads(4).backend(b)
}

/// In-process reference for one cache key, built as the service builds
/// it: the graph from `spec_seed(spec)`, then `prepare`.
struct Reference {
    graph: Graph,
    prepared: PreparedSampler,
    load_s: f64,
    transition_s: f64,
    prepare_s: f64,
}

fn reference(a: Algorithm, b: Backend, spec: &str) -> Result<Reference, String> {
    let limits = SpecLimits::from_env().with_sparse_backend(b == Backend::Sparse);
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(spec_seed(spec));
    let graph =
        parse_spec_with_limits(spec, &mut rng, &limits).map_err(|e| format!("{spec}: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    let cfg = server_config(a, b);
    let t = Instant::now();
    std::hint::black_box(graph.transition_pmatrix(b.resolve(&graph)));
    let transition_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let prepared = CliqueTreeSampler::new(cfg)
        .prepare(&graph)
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        graph,
        prepared,
        load_s,
        transition_s,
        prepare_s: t.elapsed().as_secs_f64(),
    })
}

type Key = (Algorithm, Backend, String);

/// The in-process draws of the distinct planned requests, in order of
/// first appearance, each with its time in seconds. They run one at a
/// time so that the times are not shared with anything else the
/// benchmark runs.
struct InProcess {
    order: Vec<SampleRequest>,
    draws: HashMap<SampleRequest, (Result<SampleReport, String>, f64)>,
}

fn in_process_draws(plan: &[Planned], refs: &HashMap<Key, Reference>) -> InProcess {
    let mut local = InProcess {
        order: Vec::new(),
        draws: HashMap::new(),
    };
    for p in plan {
        if local.draws.contains_key(&p.request) {
            continue;
        }
        let r = &refs[&key_of(&p.request)];
        let mut rng = StdRng::seed_from_u64(p.request.draw_seed(0));
        let t = Instant::now();
        let report = r.prepared.sample(&mut rng).map_err(|e| e.to_string());
        let secs = t.elapsed().as_secs_f64();
        local.order.push(p.request.clone());
        local.draws.insert(p.request.clone(), (report, secs));
    }
    local
}

fn key_of(r: &SampleRequest) -> Key {
    (r.algorithm, r.backend, r.graph_spec.clone())
}

/// A stats frame's latency histograms (µs), merged over the algorithms,
/// one value (the bucket's upper bound) per request.
fn server_latency(stats: &Json) -> Vec<f64> {
    let mut values = Vec::new();
    if let Some(Json::Obj(per_alg)) = stats.get("latency_us") {
        for (_, h) in per_alg {
            for bucket in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
                let pair = bucket.as_arr().unwrap_or(&[]);
                if let (Some(ub), Some(c)) = (
                    pair.first().and_then(Json::as_u64),
                    pair.get(1).and_then(Json::as_u64),
                ) {
                    values.extend(std::iter::repeat_n(ub as f64, c as usize));
                }
            }
        }
    }
    values
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let cct = opts.cct.clone().ok_or("served-mix needs --cct")?;
    let need = |v: Option<f64>, flag: &str| v.ok_or(format!("served-mix needs {flag}"));
    let low_rps = need(opts.low_rps, "--low-rps")?;
    let high_rps = need(opts.high_rps, "--high-rps")?;
    let limit_ms = need(opts.p99_limit_ms, "--p99-limit-ms")?;
    let mut out = Outcome::default();
    let low_s = opts.seconds * LOW_SHARE / SEGMENTS as f64;
    let high_s = opts.seconds * HIGH_SHARE / SEGMENTS as f64;
    let saturation_s = opts.seconds * SATURATION_SHARE / SEGMENTS as f64;
    let mut mix = HotMix::new(opts.seed);
    let segments = schedule(opts, &mut mix, (low_rps, low_s), (high_rps, high_s));

    // ── Segments: start, warm and drain the extra set-up servers, then
    // start and warm the segment's server, drive its slice of the
    // schedule and its saturation loop, read its stats and peak RSS,
    // drain it.
    let (mut setups, mut peaks, mut stats) = (vec![], vec![], vec![]);
    let (mut plan, mut replies) = (Vec::new(), Vec::new());
    let (mut backlog_max, mut saturation_total_s) = (0, 0.0);
    let mut started = 0;
    let mut start = || -> Result<Server, String> {
        started += 1;
        let (server, secs) = start_warm(opts, &cct, started)?;
        setups.push(secs);
        Ok(server)
    };
    for segment in segments {
        for _ in 0..EXTRA_SETUPS {
            start()?.shutdown()?;
        }
        let server = start()?;
        let load = drive(&server, &segment, Instant::now())?;
        let (sat_plan, sat_replies, sat_s) = saturate(&server, &mut mix, saturation_s)?;
        let frame = server.control(ControlCommand::Stats)?;
        peaks.push(peak_rss_mb(Some(server.child.id())).unwrap_or(0.0));
        server.shutdown()?;
        stats.push(frame.get("stats").cloned().unwrap_or(Json::Null));
        backlog_max = backlog_max.max(load.backlog_max);
        saturation_total_s += sat_s;
        plan.extend(segment.into_iter().chain(sat_plan));
        replies.extend(load.replies.into_iter().chain(sat_replies));
    }

    // ── Verification against in-process prepared samplers.
    let mut refs: HashMap<Key, Reference> = HashMap::new();
    for p in &plan {
        let key = key_of(&p.request);
        if let std::collections::hash_map::Entry::Vacant(slot) = refs.entry(key) {
            let (a, b, spec) = slot.key();
            let r = reference(*a, *b, spec)?;
            slot.insert(r);
        }
    }
    let local = in_process_draws(&plan, &refs);
    let mut overhead_ms = Vec::new();
    let (mut lat_low, mut lat_high, mut lag_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut good_high, mut saturation_ok, mut rounds) = (0u64, 0u64, Vec::new());
    for (i, (p, reply)) in plan.iter().zip(&replies).enumerate() {
        let r = &refs[&key_of(&p.request)];
        let (expected, local_s) = &local.draws[&p.request];
        let latency_ms = (reply.recv_s - p.due_s) * 1e3;
        let verdict = match (&reply.result, expected) {
            (None, _) => Err("no reply".to_string()),
            (Some(Err(e)), _) => Err(e.clone()),
            (Some(Ok(_)), Err(e)) => Err(format!("in-process draw failed: {e}")),
            (Some(Ok((edges, served_rounds, failure))), Ok(want)) => {
                let mut edges = edges.clone();
                if i == 0 && opts.inject == Some(Fault::Tree) {
                    crate::check::corrupt(&r.graph, &mut edges);
                }
                let mut want_rounds = want.rounds.total_rounds();
                if i == 0 && opts.inject == Some(Fault::Replay) {
                    want_rounds = cct::sim::RoundLedger::new().total_rounds();
                }
                if *failure {
                    Err("Monte Carlo failure flagged".to_string())
                } else if let Err(e) = is_spanning_tree(&r.graph, &edges) {
                    Err(e)
                } else if edges != want.tree.edges() || *served_rounds != want_rounds {
                    Err("served draw differs from the in-process draw".to_string())
                } else {
                    // The open loop's requests are fixed by the seed; the
                    // saturation loop's count depends on the host's speed.
                    if p.phase != Phase::Saturation {
                        rounds.push(*served_rounds as f64);
                    }
                    Ok(())
                }
            }
        };
        if verdict.is_ok() {
            match p.phase {
                Phase::Low => lat_low.push(latency_ms),
                Phase::High => {
                    lat_high.push(latency_ms);
                    good_high += u64::from(latency_ms <= limit_ms);
                }
                Phase::Saturation => saturation_ok += 1,
            }
            if p.phase != Phase::Saturation {
                overhead_ms.push(latency_ms - local_s * 1e3);
            }
        }
        if p.phase != Phase::Saturation {
            lag_ms.push((reply.sent_s - p.due_s) * 1e3);
        }
        out.tally
            .record(verdict.map_err(|e| format!("request {i} ({}): {e}", p.request.graph_spec)));
    }

    // ── Traced run: each distinct in-process draw's layer calls.
    let mut tracer = Tracer::new();
    let mut acc = LayerAcc::default();
    let mut probes = Probes::default();
    let mut replay_rng = StdRng::seed_from_u64(machine_seed(opts.seed, u64::MAX));
    let mut counts = ReportCounts::default();
    let mut local_draw_s = Vec::new();
    for (i, request) in local.order.iter().enumerate() {
        let (Ok(report), secs) = &local.draws[request] else {
            continue;
        };
        local_draw_s.push(*secs);
        if opts.trace {
            let key = key_of(request);
            let idx = tracer.begin("replay", i as u64);
            replay_draw(
                &mut tracer,
                i as u64,
                &refs[&key].graph,
                &server_config(key.0, key.1),
                report,
                true,
                &mut replay_rng,
                &mut acc,
            );
            if i % 64 == 0 {
                probes.probe(&mut tracer, i as u64, &refs[&key].graph, 1);
            }
            tracer.end(idx);
        }
        counts.add(report);
    }

    // ── Metrics.
    let low = Samples::new(lat_low);
    let high = Samples::new(lat_high);
    let goodput = good_high as f64 / (high_s * SEGMENTS as f64);
    let capacity = saturation_ok as f64 / saturation_total_s.max(f64::MIN_POSITIVE);
    let local_draws = Samples::new(local_draw_s);
    let draw_p50 = local_draws.median().unwrap_or(0.0);
    let setup = Samples::new(setups);
    out.e2e.insert("setup_s", setup.median().unwrap_or(0.0));
    out.e2e.insert("trees_per_s", capacity);
    out.e2e.insert("draw_s.p50", draw_p50);
    out.e2e.insert(
        "rounds_per_tree",
        Samples::new(rounds).mean().unwrap_or(0.0),
    );
    out.e2e
        .insert("peak_rss_mb", Samples::new(peaks).median().unwrap_or(0.0));

    let layers = &mut out.layers;
    let mut tail = |name: &'static str, s: &Samples, q: f64| match s.tail(q) {
        Some(v) => {
            layers.insert(name, v);
        }
        None => out
            .notes
            .push(format!("{name}: not printed, {} samples", s.len())),
    };
    tail("serve.p99_ms.low", &low, 0.99);
    tail("serve.p99_ms.high", &high, 0.99);
    let server_us = Samples::new(stats.iter().flat_map(server_latency).collect());
    tail("serve.server_p99_us", &server_us, 0.99);
    let lag_max = lag_ms.iter().copied().fold(0.0, f64::max);
    let lag = Samples::new(lag_ms);
    tail("serve.gen_lag_ms.p99", &lag, 0.99);
    let layers = &mut out.layers;
    layers.insert("serve.p50_ms.low", low.median().unwrap_or(0.0));
    layers.insert("serve.p50_ms.high", high.median().unwrap_or(0.0));
    layers.insert("serve.goodput_rps.high", goodput);
    layers.insert("serve.server_p50_us", server_us.median().unwrap_or(0.0));
    layers.insert(
        "serve.overhead_ms.p50",
        Samples::new(overhead_ms).median().unwrap_or(0.0),
    );
    let count = |path: &[&str]| {
        let one = |s: &Json| {
            path.iter()
                .try_fold(s, |j, k| j.get(k))
                .and_then(Json::as_u64)
        };
        stats
            .iter()
            .map(|s| one(s).unwrap_or(0) as f64)
            .sum::<f64>()
    };
    let (hits, misses) = (count(&["cache", "hits"]), count(&["cache", "misses"]));
    layers.insert("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    layers.insert("serve.cache.prepares", count(&["cache", "prepares"]));
    layers.insert("serve.cache.evictions", count(&["cache", "evictions"]));
    layers.insert("serve.overloaded", count(&["overloaded"]));
    layers.insert("serve.backlog_max", backlog_max as f64);
    counts.write(layers);
    let med = |f: &dyn Fn(&Reference) -> f64| {
        Samples::new(refs.values().map(f).collect())
            .median()
            .unwrap_or(0.0)
    };
    layers.insert("graph.load_s", med(&|r| r.load_s));
    layers.insert("graph.transition_s", med(&|r| r.transition_s));
    layers.insert("core.prepare_s", med(&|r| r.prepare_s));
    layers.insert(
        "core.prepared_bytes",
        med(&|r| r.prepared.matrix_bytes() as f64),
    );
    if opts.trace {
        acc.write(layers);
        probes.write(layers);
        layers.insert("core.self_s", draw_p50 - acc.layer_s_per_draw());
    }

    let count_of = |phase| plan.iter().filter(|p| p.phase == phase).count();
    out.notes.push(format!(
        "requests: {} over {SEGMENTS} segments of {low_s} s at {low_rps} rps, {high_s} s at \
         {high_rps} rps and {saturation_s} s of saturation ({} low, {} high, {} saturation); \
         latency samples low {} / high {}; server histogram samples {}; gen-lag samples {}; \
         {} distinct keys; {} distinct requests drawn in process (draw_s.p50 over {}); \
         setup_s median of {}; goodput limit {limit_ms} ms",
        plan.len(),
        count_of(Phase::Low),
        count_of(Phase::High),
        count_of(Phase::Saturation),
        low.len(),
        high.len(),
        server_us.len(),
        lag.len(),
        refs.len(),
        local.order.len(),
        local_draws.len(),
        setup.len(),
    ));
    out.notes.push(format!(
        "capacity (trees_per_s): {saturation_ok} verified replies in {saturation_total_s:.3} s \
         of saturation with {WINDOW} requests unanswered = {capacity:.1} req/s; the rates are \
         {:.3} and {:.3} of it",
        low_rps / capacity,
        high_rps / capacity
    ));
    out.notes.push(format!(
        "generator lateness: p50 {:.3} ms, max {:.3} ms; backlog max {}",
        lag.median().unwrap_or(0.0),
        lag_max,
        backlog_max
    ));
    if opts.trace {
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
