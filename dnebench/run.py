#!/usr/bin/env python3
"""Runs one workload of the Distributed NE benchmark and prints its result.

    python3 dnebench/run.py --workload serve-rmat18-process --seed 1 --seconds 35 --trace 0

Run it from the root of a source tree. It builds the benchmark program from
dnebench/CMakeLists.txt (which compiles the library sources under src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; makes the workload's
input graph from --seed (a separate process, cached per seed); then runs
the measured process. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones, and the traced run
also writes its spans to <build dir>/work/<workload>/spans.json.

Exit status is 0 only when the run finished and every check passed.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_MARKER = os.path.join(BENCH_DIR, "..", "src", "partition", "dne",
                          "dne_partitioner.h")

# workload -> (RMAT scale, edge factor); inputs are generated from --seed.
WORKLOADS = {
    "rmat20-ooc-shm-ckpt": (20, 16),
    "serve-rmat18-process": (18, 16),
}

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[dnebench] {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, capture):
    """Runs cmd in its own process group; kills the whole group on timeout
    so no rank process outlives the run. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else
                            sys.stderr, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 124, ""
    return proc.returncode, out or ""


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run_child(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], 600, False)
        if rc != 0:
            return False
    rc, _ = run_child(["cmake", "--build", build_dir, "-j4", "--target",
                       "dnebench", "--target", "oracle_test"], 800, False)
    if rc != 0:
        return False
    # The oracles' own tests: a run is only as good as its checks.
    rc, _ = run_child([os.path.join(build_dir, "oracle_test")], 60, False)
    return rc == 0


def make_input(exe, build_dir, scale, edge_factor, seed):
    """The raw RMAT edge file for (scale, edge factor, seed). Made once per
    seed; files of other seeds at this scale are removed to bound disk."""
    inputs = os.path.join(build_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    prefix = f"rmat{scale}-ef{edge_factor}-"
    path = os.path.join(inputs, f"{prefix}s{seed}.bin")
    if os.path.isfile(path):
        return path
    for name in os.listdir(inputs):
        if name.startswith(prefix):
            os.remove(os.path.join(inputs, name))
    tmp = path + ".tmp"
    rc, _ = run_child([exe, "gen", f"--scale={scale}",
                       f"--edge-factor={edge_factor}", f"--seed={seed}",
                       f"--out={tmp}"], RUN_TIMEOUT_S, False)
    if rc != 0:
        return None
    os.replace(tmp, path)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(SRC_MARKER):
        log("library sources (src/) not found next to the benchmark; run "
            "from the root of a full source tree")
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    start = time.monotonic()
    if not build(build_dir):
        log("build or oracle tests failed")
        return 2
    exe = os.path.join(build_dir, "dnebench")

    scale, edge_factor = WORKLOADS[args.workload]
    log(f"built and tested in {time.monotonic() - start:.1f} s")
    raw = make_input(exe, build_dir, scale, edge_factor, args.seed)
    if raw is None:
        log("input generation failed")
        return 2
    log(f"input ready at {time.monotonic() - start:.1f} s")

    work = os.path.join(build_dir, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "run", f"--workload={args.workload}", f"--input={raw}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--work-dir={work}"]

    canon = None
    if args.workload == "rmat20-ooc-shm-ckpt":
        # Set-up of the out-of-core workload: a separate process writes the
        # canonical edge file the rank processes stream, so the measured
        # coordinator never holds the edge list.
        canon = os.path.join(work, "canonical.bin")
        t0 = time.monotonic_ns()
        rc, out = run_child([exe, "prep", f"--input={raw}", f"--out={canon}",
                             f"--t0-ns={t0}"], RUN_TIMEOUT_S, True)
        lines = [l for l in out.splitlines() if l.startswith("prep_s ")]
        if rc != 0 or not lines:
            log("canonical-file preparation failed")
            return 2
        cmd += [f"--canon={canon}", f"--setup-s={lines[-1].split()[1]}"]

    log(f"measured process starts at {time.monotonic() - start:.1f} s")
    t0 = time.monotonic_ns()
    rc, out = run_child(cmd + [f"--t0-ns={t0}"], RUN_TIMEOUT_S, True)
    log(f"measured process ended at {time.monotonic() - start:.1f} s")
    if canon is not None and os.path.exists(canon):
        os.remove(canon)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc != 0:
        log(f"run failed with status {rc}")
        return rc if rc > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
