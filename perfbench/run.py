#!/usr/bin/env python3
"""The uovd benchmark: build the driver from this checkout, run one workload.

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steady 5 [--workload tune ...] [--seconds 10]

One run builds perfbench_driver (a CMake package in this directory that
compiles ../src) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in a fresh directory under
.bench_run/, checks every answer, and prints notes, a host fingerprint
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics of a separate traced run, whose Chrome-trace
export must pass scripts/check_trace.py (the latest one is kept as
.bench_run/<workload>.trace.json).  --steady N runs each workload N
times with seeds 1..N and prints each end-to-end metric's median and
quartiles next to its bound.  Exits 1 after the result line when an
answer was wrong, and nonzero with no result line when the build or
the driver fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ["cold-solve", "warm-restart", "native", "tune"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_killable(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out, err


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no uov sources under {ROOT / 'src'}")
    target_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = target_dir / "perfbench"
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(build_dir), "--target",
              "perfbench_driver", "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    with open(build_dir / "build.log", "w") as build_log:
        for cmd in steps:
            rc, _, _ = run_killable(cmd, BUILD_TIMEOUT_S, stdout=build_log,
                                    stderr=subprocess.STDOUT, cwd=ROOT,
                                    env=env)
            if rc != 0:
                tail = (build_dir / "build.log").read_text()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return build_dir / "perfbench_driver"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                             cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def host_fingerprint():
    """What the numbers depend on besides the code: the host and its cc."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # The JIT resolves $UOV_CC first, then cc, gcc, clang on PATH.
    cc = os.environ.get("UOV_CC") or next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), "")
    cc_path = shutil.which(cc) if cc else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    git = "not a git checkout"
    if (ROOT / ".git").exists():
        git = first_line(["git", "describe", "--always", "--dirty",
                          "--tags"])
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "build_type": "Release",
        "git": git,
        "src_sha256": digest.hexdigest()[:16],
        "cc": cc_path or "none",
        "cc_version": first_line([cc_path, "--version"]) if cc_path
        else "none",
    }


def run_once(driver, workload, seed, seconds, trace):
    """One driver run in a fresh directory; returns (notes, result)."""
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # The driver points TMPDIR at a fresh JIT cache per pass; until
    # then, and for anything it spawns, temporaries stay in workdir.
    env = dict(os.environ, TMPDIR=str(workdir / "tmp"))
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    try:
        rc, out, err = run_killable(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env,
                                    text=True, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
        if err:
            sys.stderr.write(err)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchError(f"driver exited {rc} without a result:\n{out}")
        notes = lines[:-1]
        if rc != 0 and result.get("correct", False):
            raise BenchError(f"driver exited {rc} on a correct run")
        if trace:
            notes += check_trace(workdir / "trace.json", workload, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return notes, result


def check_trace(trace, workload, result):
    """Validate the traced run's export with the repository's checker."""
    checker = ROOT / "scripts" / "check_trace.py"
    rc, out, err = run_killable([sys.executable, str(checker), str(trace)],
                                RUN_TIMEOUT_S, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
    if rc != 0:
        result["correct"] = False
        result["failed"] = result.get("failed", 0) + 1
        return [f"# FAILED: check_trace.py: {out.strip()}"]
    kept = RUN_DIR / f"{workload}.trace.json"
    shutil.copyfile(trace, kept)
    return [f"# check_trace.py: {out.strip()} (kept as "
            f"{kept.relative_to(ROOT)})"]


def steady(driver, workloads, runs, seconds):
    """Run each workload `runs` times; print quartiles next to bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            _, result = run_once(driver, workload, seed, seconds, 0)
            if not result["correct"]:
                raise BenchError(f"{workload} seed {seed} failed: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()))
        print(f"{workload}: {runs} runs of {seconds} s")
        print(f"  {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  spread < bound/3")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            verdict = "yes" if spread < bound / 3 else "NO"
            if name == "setup_s":
                verdict += " (not gated)"
            print(f"  {name:<16} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>7.3f} {bound:>6.3f}  {verdict}")
        sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run each workload N times, print spreads")
    args = parser.parse_args()
    try:
        driver = build()
        if args.steady:
            steady(driver, args.workload or WORKLOADS, args.steady,
                   args.seconds)
            return 0
        if not args.workload or len(args.workload) != 1:
            raise BenchError("give exactly one --workload")
        notes, result = run_once(driver, args.workload[0], args.seed,
                                 args.seconds, args.trace)
    except (BenchError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    for note in notes:
        print(note)
    print("# host " + json.dumps(host_fingerprint()))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
