#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload rpc_small [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. The first run configures and builds the
simulator and the benchmark (Release) under .bench_build/; later runs only
rebuild what changed. Each run then executes the helper self-test and the
benchmark binary, checks the result line, and compares the run's virtual-
time fingerprint with any earlier run of the same binary and seed: a
difference is a determinism violation. The last line of standard output is
the result object; on any failure no result line is printed and the exit
code is non-zero.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
FINGERPRINTS = os.path.join(BUILD_ROOT, "fingerprints")
TMP = os.path.join(BUILD_ROOT, "tmp")
# Compilers write their temporaries here, so nothing lands outside the
# checkout.
ENV = dict(os.environ, TMPDIR=TMP)

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

_child = None


def _kill_child(*_):
    if _child is not None and _child.poll() is None:
        try:
            os.killpg(_child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _child.wait()
    sys.exit(1)


def run_cmd(args, timeout, capture=False):
    """Runs args in its own process group; kills the whole group on
    timeout, so no compiler or benchmark process outlives this script."""
    global _child
    _child = subprocess.Popen(
        args, cwd=ROOT, start_new_session=True, env=ENV,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=None, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        raise
    finally:
        code = _child.returncode
        _child = None
    return code, out


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        fail("no simulator sources (src/, CMakeLists.txt) at " + ROOT, 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    os.makedirs(TMP, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            code, _ = run_cmd(configure, deadline - time.monotonic())
            if code != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        code, _ = run_cmd(["cmake", "--build", BUILD, "-j", jobs, "--target",
                           "perfbench", "perfbench_selftest"],
                          deadline - time.monotonic())
        if code != 0:
            fail("build failed")
    return os.path.join(BUILD, "perfbench"), os.path.join(
        BUILD, "perfbench_selftest")


def binary_id(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_fingerprint(binary, workload, seed, fingerprint):
    """Same binary, same seed: the virtual results must be identical
    across processes, not only across one process's repetitions."""
    os.makedirs(FINGERPRINTS, exist_ok=True)
    path = os.path.join(FINGERPRINTS, "%s-%s.json" % (workload, seed))
    ident = binary_id(binary)
    with open(path, "a+") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        f.seek(0)
        try:
            known = json.loads(f.read() or "{}")
        except ValueError:
            known = {}
        if known.get("binary") == ident:
            if known.get("fingerprint") != fingerprint:
                fail("determinism: %s seed %s: virtual results differ from "
                     "an earlier run of this binary (%s vs %s)" %
                     (workload, seed, fingerprint, known.get("fingerprint")))
            return
        f.seek(0)
        f.truncate()
        json.dump({"binary": ident, "fingerprint": fingerprint}, f)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _kill_child)
    signal.signal(signal.SIGINT, _kill_child)

    started = time.monotonic()
    binary, selftest = build()
    code, out = run_cmd([selftest], 60, capture=True)
    sys.stderr.write(out)
    if code != 0:
        fail("helper self-test failed")

    command = [binary, "--workload", args.workload, "--seconds",
               repr(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    budget = RUN_TIMEOUT_S - (time.monotonic() - started)
    if budget < 30:
        budget = RUN_TIMEOUT_S  # the first run of a checkout also builds
    try:
        code, out = run_cmd(command, budget, capture=True)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %.0f s" % budget)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result object")
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail("bad result object")
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(result["metrics"]) ^ want))
    meta = next((l for l in lines if l.startswith("meta ")), None)
    fingerprint = next((l.split()[1] for l in lines
                        if l.startswith("fingerprint ")), None)
    if meta is None or fingerprint is None:
        fail("missing meta or fingerprint line")
    seed = json.loads(meta[len("meta "):])["seed"]
    check_fingerprint(binary, args.workload, seed, fingerprint)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
