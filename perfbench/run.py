#!/usr/bin/env python3
"""Paper-query benchmark entry point.

Builds the library and the benchmark driver from source (Release, -O3)
under .bench_build/ in the checkout, runs the harness self-test, then
runs one workload and forwards its output. The last line of standard
output is the driver's JSON result.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 10 --trace 0

Workloads: fig7, serving, codegen, spill (see perfbench/README.md).
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("fig7", "serving", "codegen", "spill")
DRIVER_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def scratch_env(scratch):
    """The environment with TMPDIR inside the checkout, so the compiler's
    temporaries, codegen artifacts and spill files stay there."""
    scratch.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(scratch))


def run_logged(cmd, log, env):
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode


def build():
    """Configures (once) and builds; serialized across concurrent runs."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log = BUILD_ROOT / "perfbench-build.log"
    scratch = BUILD_ROOT / "tmp" / f"build-{os.getpid()}"
    env = scratch_env(scratch)
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            if run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                           "-DCMAKE_BUILD_TYPE=Release"], log, env) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                shutil.rmtree(scratch, ignore_errors=True)
                fail(f"configure failed; see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        built = run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                           log, env) == 0
    shutil.rmtree(scratch, ignore_errors=True)
    if not built:
        fail(f"build failed; see {log}")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may
    not be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_driver(args):
    runs = BUILD_ROOT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    scratch = BUILD_ROOT / "tmp" / f"run-{os.getpid()}"
    env = scratch_env(scratch)
    cmd = [str(BUILD_DIR / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(runs), "--commit", git_commit(),
           "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(err)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"driver exited with code {proc.returncode}", proc.returncode)
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed a malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds positive", 2)
    if not (ROOT / "src" / "engine" / "database.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    start = time.monotonic()
    build()
    selftest = subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        fail("harness self-test failed:\n" + selftest.stdout + selftest.stderr)
    print(f"perfbench: build and self-test {time.monotonic() - start:.1f} s")
    run_driver(args)


if __name__ == "__main__":
    main()
