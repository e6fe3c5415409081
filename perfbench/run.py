#!/usr/bin/env python3
"""Build the `cct` CLI and the perfbench harness from source, then run one
workload of the repository benchmark.

    python3 perfbench/run.py --workload dense-er256 --seed 1 --seconds 30 --trace 0 \
        --low-rps R --high-rps R --p99-limit-ms L
    python3 perfbench/run.py --selftest --low-rps R --high-rps R --p99-limit-ms L

served-mix's rates and latency limit have no defaults: BENCHMARK.json's
command sets them, and the other workloads ignore them.

Run it from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default .bench_build); generated inputs, sockets, spans and per-run reports
go to .bench_scratch. The last line of standard output is the run's JSON
result; the exit code is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense-er256", "served-mix", "sparse-large")


def target_dir(env):
    path = pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def cargo(args, env):
    """Runs cargo with its output on stderr; exits 2 if it fails."""
    done = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print(f"error: cargo {' '.join(args)} failed", file=sys.stderr)
        sys.exit(2)


def build(env):
    cargo(["build", "--release", "--offline", "--quiet", "--bin", "cct"], env)
    cargo(["build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")], env)
    release = target_dir(env) / "release"
    return release / "cct", release / "cct-perfbench"


def source_id():
    """The commit when run in a git checkout, else a digest of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        return "commit " + head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "vendor"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in (".rs", ".toml"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources sha256 " + digest.hexdigest()[:16]


# The failure each injected fault must produce: a corrupted tree fails
# the spanning-tree check, a perturbed reference the replay comparison.
CAUGHT_BY = {
    "tree": re.compile(r"is not in the graph|edges for \d+ vertices|closes a cycle"),
    "replay": re.compile(r"differs"),
}


def selftest(env, cct, bench, served_args):
    """Shows that the output checks can fail: a corrupted tree and a
    mismatched replay must each count as failed, be reported by the
    check meant to catch them, and fail the command."""
    cargo(["test", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")], env)
    ok = True
    for workload, seconds in (("dense-er256", "1"), ("served-mix", "2")):
        for fault in ("tree", "replay"):
            done = subprocess.run(
                [str(bench), "--workload", workload, "--seed", "1",
                 "--seconds", seconds, "--trace", "0", "--cct", str(cct),
                 "--scratch", ".bench_scratch/selftest",
                 "--inject", fault, *served_args],
                cwd=ROOT, env=env, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            reasons = [line[len("FAILED: "):] for line in lines
                       if line.startswith("FAILED: ")]
            caught = (done.returncode == 1 and result.get("correct") is False
                      and result.get("failed", 0) >= 1
                      and any(CAUGHT_BY[fault].search(r) for r in reasons))
            print(f"selftest {workload} --inject {fault}: exit {done.returncode}, "
                  f"failed {result.get('failed')} of {result.get('attempted')} "
                  f"({reasons[0] if reasons else 'no failure reported'}) -> "
                  f"{'caught' if caught else 'NOT CAUGHT'}")
            ok &= caught
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--low-rps", required=True)
    parser.add_argument("--high-rps", required=True)
    parser.add_argument("--p99-limit-ms", required=True)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(target_dir(env))
    served_args = ["--low-rps", args.low_rps, "--high-rps", args.high_rps,
                   "--p99-limit-ms", args.p99_limit_ms]
    cct, bench = build(env)
    if args.selftest:
        sys.exit(0 if selftest(env, cct, bench, served_args) else 1)
    done = subprocess.run(
        [str(bench), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--cct", str(cct), "--scratch", ".bench_scratch", *served_args,
         "--source", source_id()],
        cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
