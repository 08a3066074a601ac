#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the library sources under src/ plus
the benchmark binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. Standard output ends
with the binary's one-line JSON result. Workloads: compile_stream,
stimulus_stream, compiled_sweep, levelized_mt (see perfbench/README.md).
Everything the run writes stays under the build directory: the
compiled-simulation module cache and compiler temporaries live in a
per-run directory that is removed afterwards; reports and traces are
kept in reports/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    res = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")


def source_digest(root):
    """sha256 over the library and benchmark sources, for the host block
    (the checkout the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    build(root, build_dir)

    run_dir = build_dir / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(run_dir / "tmp")
    env.pop("CALYX_COMPILE_CACHE", None)
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cache-dir", str(run_dir / "cppsim"),
           "--out-dir", str(build_dir / "reports"),
           "--host", f"git_sha={git_sha(root)}",
           "--host", f"source_sha256={source_digest(root)}"]
    proc = subprocess.Popen(cmd, env=env, cwd=str(root),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The binary may be waiting on a host compiler: stop the group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    shutil.rmtree(run_dir, ignore_errors=True)
    check_metric_names(root, args.trace, out)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


def check_metric_names(root, trace, out):
    """The result line must carry exactly the metrics (names and units)
    BENCHMARK.json lists for this mode, so the two cannot drift apart."""
    spec_path = root / "BENCHMARK.json"
    lines = out.strip().splitlines()
    if not spec_path.exists() or not lines:
        return
    spec = json.loads(spec_path.read_text())
    want = [(m["name"], m["unit"])
            for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    try:
        metrics = json.loads(lines[-1])["metrics"]
        got = [(name, m["unit"]) for name, m in metrics.items()]
    except (ValueError, KeyError, TypeError):
        return  # no result line: the binary failed and said why
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics {got} do not match BENCHMARK.json {want}", 4)


if __name__ == "__main__":
    main()
