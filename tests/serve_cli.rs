//! End-to-end smoke of the `cct serve` / `cct request` subcommands:
//! start a real service process on a Unix socket, issue requests from
//! separate client processes, and check the protocol's replay and
//! cold-replay guarantees at the process boundary.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Kills the server on drop so a failing assertion can't leak the
/// child process.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cct-serve-cli-{tag}-{}.sock", std::process::id()))
}

fn spawn_server_with(socket: &Path, extra: &[&str]) -> ServerGuard {
    let mut args = vec![
        "serve".to_string(),
        "--listen".to_string(),
        format!("unix:{}", socket.display()),
        "--workers".to_string(),
        "2".to_string(),
        "--cache".to_string(),
        "4".to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    let child = Command::new(env!("CARGO_BIN_EXE_cct"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cct serve");
    // The server prints 'serving on …' after binding; the socket file
    // appearing is the cross-process readiness signal.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "server never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    ServerGuard(child)
}

fn spawn_server(socket: &Path, accept_limit: u32) -> ServerGuard {
    spawn_server_with(socket, &["--accept-limit", &accept_limit.to_string()])
}

fn request(socket: &Path, args: &[&str]) -> Output {
    let mut full = vec![
        "request".to_string(),
        "--connect".to_string(),
        format!("unix:{}", socket.display()),
    ];
    full.extend(args.iter().map(|s| s.to_string()));
    Command::new(env!("CARGO_BIN_EXE_cct"))
        .args(&full)
        .output()
        .expect("spawn cct request")
}

#[test]
fn served_requests_replay_bit_identically() {
    let socket = socket_path("replay");
    let mut server = spawn_server(&socket, 3);
    let args = ["--graph", "petersen", "--seed", "7", "--count", "2"];
    let a = request(&socket, &args);
    let b = request(&socket, &args);
    let c = request(&socket, &["--graph", "complete:9", "--seed", "9"]);
    for (label, out) in [("a", &a), ("b", &b), ("c", &c)] {
        assert!(
            out.status.success(),
            "request {label} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // stdout (the trees) is the determinism contract: byte-identical
    // replays. stderr carries cache metadata and legitimately differs
    // (the second request is a cache hit).
    assert_eq!(a.stdout, b.stdout, "replay diverged");
    assert_eq!(
        String::from_utf8_lossy(&a.stdout).lines().count(),
        2,
        "two draws, two tree lines"
    );
    assert!(String::from_utf8_lossy(&a.stderr).contains("hit = false"));
    assert!(String::from_utf8_lossy(&b.stderr).contains("hit = true"));
    assert_ne!(a.stdout, c.stdout, "different graphs, different trees");
    // --accept-limit 3 reached: the server exits on its own.
    let status = server.0.wait().expect("server exit");
    assert!(status.success(), "server exited non-zero");
    assert!(!socket.exists(), "socket file cleaned up");
}

#[test]
fn served_draw_equals_the_cli_at_the_derived_seed() {
    // The documented cold-replay recipe, executed across real process
    // boundaries: draw 0 of master seed 7 must equal
    // `cct thm1 --graph petersen --seed machine_seed(7, 0)`.
    let socket = socket_path("derived");
    let _server = spawn_server(&socket, 1);
    let served = request(&socket, &["--graph", "petersen", "--seed", "7"]);
    assert!(served.status.success());
    let derived = cct::serve::machine_seed(7, 0);
    let cold = Command::new(env!("CARGO_BIN_EXE_cct"))
        .args([
            "thm1",
            "--graph",
            "petersen",
            "--seed",
            &derived.to_string(),
        ])
        .output()
        .expect("spawn cct thm1");
    assert!(cold.status.success());
    assert_eq!(
        served.stdout, cold.stdout,
        "served draw and cold CLI run disagree at the derived seed"
    );
}

#[test]
fn stats_and_shutdown_control_the_server() {
    // No accept limit: the server runs until asked to drain, so the
    // shutdown frame — not connection exhaustion — is what stops it.
    let socket = socket_path("control");
    let mut server = spawn_server_with(&socket, &[]);
    let ok = request(&socket, &["--graph", "petersen"]);
    assert!(ok.status.success());
    let stats = request(&socket, &["--stats"]);
    assert!(
        stats.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("\"thm1\""), "stats frame: {text}");
    assert!(text.contains("\"latency_us\""), "stats frame: {text}");
    let down = request(&socket, &["--shutdown"]);
    assert!(
        down.status.success(),
        "shutdown failed: {}",
        String::from_utf8_lossy(&down.stderr)
    );
    let status = server.0.wait().expect("server exit");
    assert!(status.success(), "server exited non-zero after drain");
    assert!(!socket.exists(), "socket file cleaned up after drain");
}

#[test]
fn bad_requests_exit_nonzero_with_the_server_message() {
    let socket = socket_path("errors");
    let _server = spawn_server(&socket, 2);
    let bad_spec = request(&socket, &["--graph", "no-such-family:4"]);
    assert!(!bad_spec.status.success());
    assert!(
        String::from_utf8_lossy(&bad_spec.stderr).contains("bad graph spec"),
        "stderr: {}",
        String::from_utf8_lossy(&bad_spec.stderr)
    );
    // The service survives the bad request and keeps serving.
    let ok = request(&socket, &["--graph", "petersen"]);
    assert!(ok.status.success());
}

#[test]
fn out_of_bound_weight_ratios_get_typed_errors_not_panics() {
    // A 1e200:1 weight spread used to overflow the walk-length budget
    // and panic both phase samplers; now the loader rejects it with a
    // typed error, on the CLI and through the service alike.
    let path = std::env::temp_dir().join(format!("cct-heavy-{}.el", std::process::id()));
    std::fs::write(&path, "0 1 1e200\n1 2 1\n2 0 1\n2 3 5\n").unwrap();
    let spec = format!("file:{}", path.display());
    for alg in ["thm1", "exact"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cct"))
            .args([alg, "--graph", &spec])
            .output()
            .expect("spawn cct");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{alg}: {stderr}");
        assert!(stderr.contains("max/min ratio"), "{alg}: {stderr}");
    }
    let socket = socket_path("heavy");
    let _server = spawn_server_with(&socket, &["--workers", "1"]);
    let bad = request(&socket, &["--graph", &spec]);
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("max/min ratio"),
        "stderr: {}",
        String::from_utf8_lossy(&bad.stderr)
    );
    // The lone worker survives and serves the next request.
    let ok = request(&socket, &["--graph", "petersen"]);
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).starts_with("tree: "));
    let stats = request(&socket, &["--stats"]);
    let frame = cct::json::Json::parse(&String::from_utf8_lossy(&stats.stdout)).unwrap();
    let errors = frame.get("stats").and_then(|s| s.get("errors"));
    assert_eq!(errors.and_then(cct::json::Json::as_f64), Some(1.0));
    std::fs::remove_file(&path).ok();
}
