#!/usr/bin/env python3
"""Grid-regeneration benchmark for the EH-model exploration stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fault-grid --seed 1 --seconds 30 --trace 0

It builds the command-line tool and the per-layer probe from source into
.bench_build/perfbench (perfbench/CMakeLists.txt), then

  --trace 0  times the end-to-end regeneration of the workload's campaign
             CSVs through `eh_explore campaign`, cold (empty store) and
             warm (every cell already stored), plus the tool's set-up;
  --trace 1  runs the probe (perfbench/probe.cc), which times each
             layer's calls on the workload's cells from outside.

Workloads (why each one is here is in BENCHMARK.json):

  fault-grid    the fault-tolerance ablation grid (2 programs x 3 policies
                x 5 fault rates x 5 seeded cells) under eight fault draws
                taken from the run's seed, in-process with 4 jobs on the
                lane engine, which batches each point's 5 seeded cells
  figure-grids  the Figure 6-9 grids (validation, Clank), the wear
                ablation and a seeded tauB sweep at the campaign's default
                16 points, in-process with 4 jobs on the default engine;
                none of its cells batch, so it bypasses the lane engine

Which end-to-end metric each layer should move: assembly, golden, decode
and sim (the set-up and simulation of a physics cell) and cell, which
wraps them, move cold_ms on figure-grids; lanes (a fault point's seeds
as one lane batch, and the lanes' occupancy) moves cold_ms on
fault-grid and should leave figure-grids unchanged; campaign and
store_append move cold_ms, and store_load warm_ms, on both; model
evaluation is a small share of either. The service path (eh_explored)
is not measured.

Every output is checked: no failed cell; fault-free fault cells finish with
exact results; validation, Clank and wear runs finish; model bounds are
ordered; warm CSVs are byte-identical to cold ones; and every cold
regeneration is byte-identical to the first. Each metric is the median over
the samples of one run, taken after two untimed warm-up rounds. The last
line of stdout is the JSON result.
"""

import argparse
import csv
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
EXPLORE = os.path.join(BUILD, "tools", "eh_explore")
PROBE = os.path.join(BUILD, "eh_probe")

WORKLOADS = ("fault-grid", "figure-grids")
# Fault draws per fault-grid round. The simulated work of one draw
# differs from another's by up to a fifth (runs that give up after 64
# restarts are long); every round of a run does the same draws, so that
# stays out of the samples, and eight draws per round keep it small
# between runs of different seeds (with four, cold_ms spread 9% over ten
# seeds).
FAULT_DRAWS = 8
# Worker threads of a campaign: every core of a 4-core host, which halves
# a cold sample and so doubles the samples one run takes.
JOBS = 4
WARMUP_ROUNDS = 2
MIN_ROUNDS = 3
WARM_REPEATS = 3
SETUP_SAMPLES = 10
PER_LAYER = {
    "model_eval_ns": "ns",
    "assembly_us": "us",
    "golden_us": "us",
    "decode_us": "us",
    "sim_ns_per_instr": "ns",
    "cell_ms": "ms",
    "lane_cell_ms": "ms",
    "lane_occupancy_pct": "%",
    "campaign_cell_us": "us",
    "store_append_us": "us",
    "store_load_ms": "ms",
}
SUMMARY = re.compile(r"(\d+) jobs: (\d+) executed, (\d+) cached")


class BenchError(Exception):
    """The benchmark cannot run here, or a tool gave a wrong answer."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def child_env():
    # EH_* variables select engines, tracing, chaos and worker counts;
    # none of them may leak in from the caller's environment.
    return {k: v for k, v in os.environ.items() if not k.startswith("EH_")}


def build():
    for d in ("src", "tools"):
        if not os.path.isfile(os.path.join(d, "CMakeLists.txt")):
            raise BenchError(f"{d}/ is missing; run from a full source checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "eh_explore", "eh_probe"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def workload_grids(workload, rng):
    """The campaigns one round regenerates: [(name, eh_explore args)]."""
    if workload == "fault-grid":
        seeds = [rng.randrange(1, 2 ** 31) for _ in range(FAULT_DRAWS)]
        return [(f"fault_{seed:x}", ["--grid", "fault", "--cells", "5",
                                     "--seed", str(seed), "--engine", "lanes"])
                for seed in seeds]
    # The sweep of docs/EXPLORE.md (tauB from 1 to 1e4), its ends moved
    # a little by the seed.
    lo = 10 ** rng.uniform(0.0, 0.5)
    hi = 10 ** rng.uniform(3.5, 4.0)
    return [("validation", ["--grid", "validation"]),
            ("clank", ["--grid", "clank"]),
            ("wear", ["--grid", "wear"]),
            ("model", ["--grid", "model", "--param", "tauB", "--from",
                       f"{lo:.6g}", "--to", f"{hi:.6g}",
                       "--seed", str(rng.randrange(1, 2 ** 31))])]


def job_params(job):
    return dict(part.split("=", 1) for part in job.split("|")[1:])


def check_csv(name, data):
    """Raise BenchError unless every row of a campaign CSV is right."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if not rows:
        raise BenchError(f"{name}: empty CSV")
    for row in rows:
        job = row["job"]
        if row["status"] != "ok":
            raise BenchError(f"{name}: {job} is {row['status']}: {row['error']}")
        kind = job.split("|", 1)[0]
        if kind == "fault":
            if float(job_params(job)["rate"]) == 0.0 and (
                    row["finished"] != "1" or row["correct"] != "1"):
                raise BenchError(f"{name}: fault-free {job} is not exact")
        elif kind in ("validation", "clank", "wear"):
            if row["finished"] != "1":
                raise BenchError(f"{name}: {job} did not finish")
        elif kind == "model":
            best, avg, worst = (float(row[k]) for k in ("best", "avg", "worst"))
            if not best >= avg >= worst >= 0.0:
                raise BenchError(f"{name}: {job} has unordered bounds")
    return len(rows)


def run_campaigns(rundir, grids, fresh, cache_dir):
    """Regenerate every grid, one after another as a figure script would.

    Returns (seconds, {name: CSV bytes}) after checking every output.
    """
    procs = []
    start = time.perf_counter()
    for name, args in grids:
        path = os.path.join(rundir, name)
        with open(path + ".out", "wb") as out, open(path + ".err", "wb") as err:
            proc = subprocess.run(
                [EXPLORE, "campaign", *args, "--csv", path + ".csv",
                 "--quiet", "1", "--jobs", str(JOBS), "--cache-dir", cache_dir],
                stdout=out, stderr=err, env=child_env())
        procs.append((name, path, proc))
    seconds = time.perf_counter() - start

    csvs = {}
    for name, path, proc in procs:
        if proc.returncode != 0:
            with open(path + ".err", "rb") as f:
                tail = f.read()[-2000:].decode(errors="replace")
            raise BenchError(f"{name} exited {proc.returncode}: {tail}")
        with open(path + ".out", "rb") as f:
            summary = SUMMARY.search(f.read().decode(errors="replace"))
        with open(path + ".csv", "rb") as f:
            csvs[name] = f.read()
        total = check_csv(name, csvs[name])
        if not summary or int(summary.group(1)) != total:
            raise BenchError(f"{name}: no campaign summary for {total} cells")
        executed, cached = int(summary.group(2)), int(summary.group(3))
        if (executed, cached) != ((total, 0) if fresh else (0, total)):
            raise BenchError(f"{name}: {executed} executed and {cached} "
                             f"cached, expected a {'cold' if fresh else 'warm'} run")
    return seconds, csvs


def time_tool_start(rundir, i):
    """Tool start to first stored result: a tiny cached campaign."""
    cache = os.path.join(rundir, f"setup_{i}")
    start = time.perf_counter()
    rc = subprocess.run([EXPLORE, "campaign", "--grid", "model", "--points",
                         "8", "--jobs", "1", "--cache-dir", cache, "--quiet",
                         "1"], stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL, env=child_env()).returncode
    seconds = time.perf_counter() - start
    shutil.rmtree(cache, ignore_errors=True)
    if rc:
        raise BenchError("eh_explore failed during set-up")
    return seconds


def end_to_end(workload, seed, seconds, rundir):
    grids = workload_grids(workload, random.Random(seed))
    cold, warm, setup = [], [], []
    attempted = failed = 0
    # The CSVs every regeneration must reproduce byte for byte.
    expected = None
    cache = os.path.join(rundir, "cache")

    def regenerate():
        """One round: a cold regeneration, then WARM_REPEATS warm ones.

        Returns their times, or None when an output was wrong.
        """
        nonlocal attempted, failed, expected
        attempted += 1 + WARM_REPEATS
        shutil.rmtree(cache, ignore_errors=True)
        try:
            t, csvs = run_campaigns(rundir, grids, True, cache)
            expected = expected or csvs
            if csvs != expected:
                raise BenchError("CSVs differ from the first regeneration's")
            times = [t]
            for _ in range(WARM_REPEATS):
                t, warm_csvs = run_campaigns(rundir, grids, False, cache)
                if warm_csvs != csvs:
                    raise BenchError("warm CSVs differ from cold ones")
                times.append(t)
        except BenchError as e:
            log(e)
            failed += 1 + WARM_REPEATS
            return None
        return times

    # Untimed warm-up, so that page caches fill before timing starts.
    for _ in range(WARMUP_ROUNDS):
        regenerate()
    # The host's speed drifts over seconds, so set-up samples are spread
    # over the run instead of taken together at its start.
    setup_due = time.monotonic()
    deadline = setup_due + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() < deadline:
        if time.monotonic() >= setup_due:
            setup_due += seconds / SETUP_SAMPLES
            attempted += 1
            try:
                setup.append(time_tool_start(rundir, rounds))
            except BenchError as e:
                log(e)
                failed += 1
        rounds += 1
        times = regenerate()
        if times:
            cold.append(times[0] * 1e3)
            warm.extend(t * 1e3 for t in times[1:])
    shutil.rmtree(cache, ignore_errors=True)
    if not cold or not setup:
        raise BenchError("no regeneration or no set-up succeeded")
    log(f"{workload}: {len(cold)} cold and {len(warm)} warm regenerations, "
        f"{len(setup)} set-ups")
    metrics = {
        "cold_ms": {"value": statistics.median(cold), "unit": "ms"},
        "warm_ms": {"value": statistics.median(warm), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return attempted, failed, metrics


def per_layer(workload, seed, seconds, rundir):
    proc = subprocess.run([PROBE, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--dir", rundir],
                          stdout=subprocess.PIPE, env=child_env())
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"probe printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    missing = set(PER_LAYER) - set(result["metrics"])
    if missing:
        raise BenchError("probe lacks " + ", ".join(sorted(missing)))
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    failed = result["failed"] + (1 if proc.returncode else 0)
    return result["attempted"], failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    try:
        build()
        rundir = os.path.join(".bench_run", args.workload)
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(args.workload, args.seed,
                                             args.seconds, rundir)
    except BenchError as e:
        log(e)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
