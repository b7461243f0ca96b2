#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the worker (`perfbench/`, a Cargo
package of its own that calls only the workspace crates' public API),
then runs the named workload from the seed: set-up several times, then
timed passes (each persisted to a fresh run store) for about `--seconds`
seconds, and on grid-zoo one `verify_run` replay of the first pass's run.
Every output is certified, the rows digest is compared with the pinned
reference for the seed, and the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
traced pass runs between two untraced ones, and the metrics are the
per-layer ones.
Each set-up, pass and replay runs in its own worker process with a
hermetic environment (`LCL_POOL_THREADS` pinned to the CPU count, every
other `LCL_*` knob unset) inside a fresh work directory under
`.bench_work/`, removed at exit. The exit code is 0 only when every
operation succeeded.

`--scale tiny` exists for `perfbench/selftest.py`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cell-rr3-2e20", "grid-zoo", "pi2-hard", "store-pods")

# Later perf changes report this seed as well as the ones they tuned on.
HELD_OUT_SEED = 20201

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "gen.s": "s",
    "gen.edges": "count",
    "gen.ns_per_edge": "ns",
    "snapshot.write_s": "s",
    "snapshot.write_mb_per_s": "MB/s",
    "snapshot.bytes": "bytes",
    "snapshot.shards": "count",
    "snapshot.hash_s": "s",
    "snapshot.open_s": "s",
    "snapshot.load_s": "s",
    "snapshot.load_mb_per_s": "MB/s",
    "snapshot.hits": "count",
    "snapshot.misses": "count",
    "network.s": "s",
    "rounds.luby_s": "s",
    "rounds.matching_s": "s",
    "rounds.luby_rounds": "count",
    "rounds.matching_rounds": "count",
    "rounds.ns_per_node_round": "ns",
    "views.linial_s": "s",
    "views.linial_rounds": "count",
    "views.ns_per_node": "ns",
    "padding.det_s": "s",
    "padding.rand_s": "s",
    "padding.det_rounds": "count",
    "padding.rand_rounds": "count",
    "gadget.count": "count",
    "gadget.verify_s": "s",
    "gadget.diameter_s": "s",
    "certify.s": "s",
    "certify.violations": "count",
    "engine.cells": "count",
    "engine.items": "count",
    "engine.cell_ms_p50": "ms",
    "engine.cell_ms_p90": "ms",
    "engine.busy_frac": "frac",
    "engine.cpu_util": "frac",
    "sched.plan_ms": "ms",
    "sched.pred_err": "frac",
    "sched.makespan_over_ideal": "ratio",
    "persist.s": "s",
    "persist.bytes": "bytes",
    "verify_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
    "failed_frac": "frac",
}

# Set-ups per run: setup_s is their median, each timed inside the worker
# (process start excluded). The store write takes seconds; everywhere else
# set-up is spec validation and fresh directories, tens of microseconds.
SETUP_REPS = {"store-pods": 5}
DEFAULT_SETUP_REPS = 51

# Timed passes per run, at least: wall_s and peak_rss_mb are medians, and
# one 12 s cell-rr3-2e20 pass alone swings with the host's other tenants.
MIN_PASSES = 2

# Workloads whose untraced runs replay their first pass with verify_run:
# grid-zoo is the workload built around persistence and replay. Elsewhere
# a replay repeats the pass (10-14 s) that the pinned rows digest already
# checks; traced runs still time it on every workload.
REPLAYED = {"grid-zoo"}

# cell-rr3-2e20 maps its seed into this table of cell seeds, each of whose
# random 3-regular pairings first comes out simple on attempt 5, the
# median attempt count (see cell_seeds.py, which printed it). The last
# entry is reserved for the held-out seed.
CELL_SEEDS = [52, 56, 69, 85, 86, 98, 99, 109, 115, 120, 128, 130, 131, 139, 141, 160, 161]


def input_seed(args):
    """The seed the worker gets: the workload seed itself, except that the
    full-size cell-rr3-2e20 picks from CELL_SEEDS."""
    if args.workload != "cell-rr3-2e20" or args.scale != "full":
        return args.seed
    if args.seed == HELD_OUT_SEED:
        return CELL_SEEDS[-1]
    return CELL_SEEDS[args.seed % (len(CELL_SEEDS) - 1)]


class WorkerError(Exception):
    """A worker process exited nonzero."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def hermetic_env():
    """The caller's environment minus every LCL_* knob, with the pool
    pinned to the CPU count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCL_")}
    env["LCL_POOL_THREADS"] = str(nproc())
    return env


def build(env):
    """Builds the worker into $CARGO_TARGET_DIR (default .bench_build)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(env, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise WorkerError("cargo build of the benchmark worker failed")
    return target / "release" / "lcl-perfbench"


def worker(binary, env, args):
    """Runs one worker process; returns (its JSON result, its stderr)."""
    proc = subprocess.run([str(binary)] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def snapshot_stats(stderr):
    """(hits, misses) from run_spec's `snapshot cache:` stderr line."""
    for line in stderr.splitlines():
        if line.startswith("snapshot cache:"):
            words = line.split()
            return float(words[2]), float(words[4])
    return 0.0, 0.0


def reference_digest(workload, seed, scale):
    if scale != "full":
        return None
    refs = json.loads((HERE / "reference.json").read_text())
    return refs.get(workload, {}).get(str(seed))


class Run:
    """Operation counts and samples of one benchmark invocation."""

    def __init__(self, reference):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = reference
        # verify_s is per-layer, but every untraced run measures it too
        # and prints its samples in the table.
        self.samples = {name: [] for name in [*END_TO_END, "verify_s"]}

    def count(self, attempted, failed, errors=()):
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def check_digest(self, digest, what):
        """Compares a pass's rows digest with the pinned reference (or,
        for an unpinned seed, with the first pass of this run)."""
        if self.reference is None:
            self.reference = digest
        ok = digest == self.reference
        self.count(1, 0 if ok else 1,
                   () if ok else [f"{what}: rows digest {digest} != reference {self.reference}"])


def common_args(args, work):
    return ["--workload", args.workload, "--seed", str(input_seed(args)),
            "--scale", args.scale, "--work", str(work)]


def setup(binary, env, args, work, run):
    """One set-up in a fresh work directory; its time is a setup_s sample.
    Returns the worker's result."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out, _ = worker(binary, env, ["setup"] + common_args(args, work) +
                    ["--trace", str(args.trace)])
    run.samples["setup_s"].append(out["setup_s"])
    return out


def timed_pass(binary, env, args, work, runs, run):
    """One untraced pass; its rows digest is checked."""
    out, _ = worker(binary, env, ["pass"] + common_args(args, work) + ["--runs", str(runs)])
    run.count(out["attempted"], out["failed"], out["errors"])
    run.check_digest(out["digest"], "pass")
    run.samples["wall_s"].append(out["wall_s"])
    run.samples["peak_rss_mb"].append(out["peak_rss_mb"])
    return out


def replay(binary, env, runs, run):
    """Replays the run persisted under `runs` with verify_run: every
    replayed row is an operation, every violation a failed one. Returns
    the replay time in seconds."""
    v, _ = worker(binary, env, ["verify", "--runs", str(runs)])
    ops = max(v["replayed"], 1)
    run.count(ops, min(v["violation_count"], ops), v["violations"])
    run.samples["verify_s"].append(v["verify_s"])
    return v["verify_s"]


def measure(args, binary, env, work, run):
    """Runs the workload; returns the metrics dict for the JSON line."""
    if not args.trace:
        for _ in range(SETUP_REPS.get(args.workload, DEFAULT_SETUP_REPS)):
            setup(binary, env, args, work, run)
        # Passes fill the run time, each into a fresh run store; after
        # MIN_PASSES the next pass starts only if it is expected to end in
        # time.
        start, k = time.perf_counter(), 0
        while True:
            t = time.perf_counter()
            timed_pass(binary, env, args, work, work / f"runs-{k}", run)
            if k > 0:
                shutil.rmtree(work / f"runs-{k}", ignore_errors=True)
            k += 1
            now = time.perf_counter()
            if k >= MIN_PASSES and now - start + (now - t) > args.seconds:
                break
        if args.workload in REPLAYED:
            replay(binary, env, work / "runs-0", run)
        return {name: statistics.median(run.samples[name]) for name in END_TO_END}

    prep = setup(binary, env, args, work, run)
    # Untraced passes on both sides of the traced one, so the overhead
    # compares neighbours rather than a first pass with a second.
    before = timed_pass(binary, env, args, work, work / "runs-0", run)
    verify_s = replay(binary, env, work / "runs-0", run)
    traced, stderr = worker(binary, env, ["pass"] + common_args(args, work) +
                            ["--trace", "1", "--runs", str(work / "runs-traced")])
    run.count(traced["attempted"], traced["failed"], traced["errors"])
    run.check_digest(traced["digest"], "traced pass")
    after = timed_pass(binary, env, args, work, work / "runs-1", run)
    # A layer measured during set-up (store-pods: generation and the store
    # write) is idle in the pass, and the other way round.
    layers = {k: prep["layers"].get(k) or traced["layers"].get(k, 0.0)
              for k in set(prep["layers"]) | set(traced["layers"])}
    layers["snapshot.hits"], layers["snapshot.misses"] = snapshot_stats(stderr)
    layers["verify_s"] = verify_s
    layers["trace.wall_s"] = traced["wall_s"]
    untraced = (before["wall_s"] + after["wall_s"]) / 2
    layers["trace.overhead_frac"] = traced["wall_s"] / untraced - 1.0
    layers["trace.coverage"] = layers.get("trace.spans_s", 0.0) / traced["wall_s"]
    layers["failed_frac"] = run.failed / max(run.attempted, 1)
    return {name: layers.get(name, 0.0) for name in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 1 << 64:
        parser.error("--seed must fit in a u64")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"error: {ROOT} holds no workspace to benchmark (Cargo.toml, crates/)")
        return 2

    env = hermetic_env()
    dropped = sorted(k for k in os.environ if k.startswith("LCL_") and k != "LCL_POOL_THREADS")
    try:
        binary = build(env)
    except WorkerError as e:
        log(f"error: {e}")
        return 2

    pinned = reference_digest(args.workload, args.seed, args.scale)
    run = Run(pinned)
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        metrics = measure(args, binary, env, work, run)
    except (WorkerError, OSError, ValueError, KeyError) as e:
        run.count(1, 1, [f"aborted: {e}"])
        metrics = {name: 0.0 for name in (PER_LAYER if args.trace else END_TO_END)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload} seed {args.seed} (input seed {input_seed(args)}) "
          f"scale {args.scale} trace {args.trace}: nproc={nproc()} "
          f"LCL_POOL_THREADS={env['LCL_POOL_THREADS']} unset={','.join(dropped) or '-'} "
          f"held_out_seed={HELD_OUT_SEED}")
    print(f"rows digest: {run.reference} "
          f"({'pinned reference' if pinned else 'unpinned seed: first pass is the reference'})")
    shown = dict(metrics)
    if not args.trace and run.samples["verify_s"]:
        shown["verify_s"] = statistics.median(run.samples["verify_s"])
    for name, value in shown.items():
        samples = run.samples.get(name, []) if not args.trace else [value]
        listed = " ".join(f"{x:.6g}" for x in samples[:12])
        note = "" if name in units else " (per-layer, not gated)"
        print(f"  {name:<28} {value:>14.6g} {units.get(name) or PER_LAYER[name]:<6} "
              f"samples={len(samples)} [{listed}]{note}")
    print(f"  {'failed_frac':<28} {run.failed / max(run.attempted, 1):>14.6g} frac   "
          f"({run.failed} of {run.attempted} operations)")
    for e in run.errors[:20]:
        log(f"failed: {e}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
