#!/usr/bin/env python3
"""Benchmark of the zosah package: queries to target and wall time.

    python3 bench/run.py --workload rosenbrock --seed 0 --seconds 35 --trace 0

Workloads: ``rosenbrock``, ``quad20``, ``logistic123`` (see workloads.py and
METRICS.md), or ``all``, which runs each workload untraced and traced, each
in its own child process, and prints everything.

The package is imported from the ``src/`` directory beside this one, never
from an installed copy, and one process runs one workload so that
``peak_rss_mb`` is that workload's. After setup (repeated, median reported)
the benchmark repeats checked passes for about ``--seconds``: at least three
untraced passes, or with ``--trace 1`` at least one untraced and one traced
pass, interleaved. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` (optimizer runs) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
passes with ``--trace 1``. Times are in reference seconds (speed.py): each
timed part is scaled by the host speed measured next to it. The exit status
is 0 only when every run passed the correctness gate. Scratch files go to
``.bench_work/`` in the checkout.
"""

import os

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Pin BLAS pools before numpy is first imported; affects this process only.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from speed import REFERENCE_SECONDS, reference_seconds, scaled  # noqa: E402
from tracer import Patcher, RunRecorder, Tracer  # noqa: E402
from workloads import WORKLOADS, run_pass, setup, zosah_modules  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Setup repeats at least SETUP_MIN_REPEATS times and for SETUP_MIN_SECONDS,
# so that microsecond setups get a steady median too. Setups run back to back
# in batches (up to SETUP_BATCH_MAX setups or SETUP_BATCH_SECONDS) between two
# speed references, so that a microsecond setup is not timed cold, right
# after the reference kernel, and the samples kept stay few.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_BATCH_MAX = 100
SETUP_BATCH_SECONDS = 0.01
# Untraced passes per run: every part of a pass is timed this many times at
# least (median reported), and each pass's trace bytes are compared with the
# first's.
MIN_UNTRACED_PASSES = 3

QUERY_ALGS = ("zosah", "zosah-diag", "zosah-fd", "rspg", "signsgd", "adamm")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_metrics(values: dict, kind: str) -> dict:
    """Attach units; the names must be exactly those BENCHMARK.json lists."""
    units = metric_units(kind)
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics {sorted(set(values) ^ set(units))} "
                           "are computed or listed, not both")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def load_package():
    """Import zosah from this checkout's src/; exit non-zero if it is absent."""
    if not (SRC / "zosah" / "__init__.py").is_file():
        sys.exit(f"bench: no package sources at {SRC / 'zosah'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    z = zosah_modules()
    if Path(z.harness.__file__).resolve().parent != SRC / "zosah":
        sys.exit(f"bench: imported zosah from {z.harness.__file__}, not from {SRC}")
    return z


def one_pass(wl, inputs, z, work, order, tracer=None):
    recorder = RunRecorder()
    with Patcher() as patcher:
        if tracer is not None:
            tracer.install(patcher, z)
        recorder.install(patcher, z)  # outermost: its speed reference is in no span
        return run_pass(wl, inputs, z, recorder, work, order)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def median_parts(passes, raw: bool = False) -> dict:
    """Median over passes of each part's reference seconds (or raw seconds).

    A pass's wall time is reported as the sum of these medians.
    """
    def parts(p):
        return p.raw_parts if raw else p.parts

    keys = parts(passes[0]).keys()
    return {k: statistics.median(parts(p)[k] for p in passes if k in parts(p)) for k in keys}


def speed_factor(passes) -> float:
    """REFERENCE_SECONDS over the median kernel time measured in ``passes``."""
    return REFERENCE_SECONDS / statistics.median(r for p in passes for r in p.references)


def end_to_end(wl, setup_times, passes) -> dict:
    first = passes[0]
    parts = median_parts(passes)
    wall = sum(parts.values())
    zosah_s = sum(t for k, t in parts.items() if k[0] == "run" and k[1] == "zosah")
    hits = {alg: list(first.hits.get(alg, {}).values()) for alg in QUERY_ALGS}
    missed = wl.max_evals + 1
    runs = [h for alg in QUERY_ALGS for h in hits[alg]]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "queries_per_s": first.queries / wall,
        "zosah_us_per_query": zosah_s / first.zosah_queries * 1e6 if first.zosah_queries else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for alg in QUERY_ALGS:
        values[f"queries_to_target.{alg}"] = statistics.median(hits[alg]) if hits[alg] else missed
    values["target_hit_ratio"] = sum(h < missed for h in runs) / len(runs) if runs else 0.0
    return values


def in_reference_seconds(layer: dict, passes) -> dict:
    """Per-layer times of ``passes`` scaled by the host speed they ran at."""
    factor = speed_factor(passes)
    return {name: value * factor if name.endswith(("_s", "_us_per_query")) else value
            for name, value in layer.items()}


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']!r} {m['unit']}")


def run_workload(args) -> int:
    z = load_package()
    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = []  # reference seconds
    setup_start = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or (
            time.perf_counter() - setup_start < SETUP_MIN_SECONDS):
        before = reference_seconds()
        batch = []
        batch_start = time.perf_counter()
        while not batch or (len(batch) < SETUP_BATCH_MAX
                            and time.perf_counter() - batch_start < SETUP_BATCH_SECONDS):
            t0 = time.perf_counter()
            inputs = setup(wl, z, work)
            batch.append(time.perf_counter() - t0)
        reference = 0.5 * (before + reference_seconds())
        setup_times += [scaled(t, reference) for t in batch]

    # The seed only orders the runs: the problems and the run seeds are the
    # acceptance gate's, so that the query counts repeat exactly across seeds.
    algs = z.harness.ALGORITHMS
    order = [algs[i] for i in np.random.default_rng(args.seed).permutation(len(algs))]
    sides = (False, True) if args.seed % 2 == 0 else (True, False)
    untraced, traced, layers = [], [], []
    tracer = None
    # Another round starts only if it is expected to end within --seconds,
    # or while the minimum number of passes has not been reached.
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for is_traced in sides if args.trace else (False,):
            if is_traced:
                tracer = Tracer()
                traced.append(one_pass(wl, inputs, z, work, order, tracer))
                layers.append(in_reference_seconds(tracer.layer_metrics(), traced[-1:]))
            else:
                untraced.append(one_pass(wl, inputs, z, work, order))
        now = time.perf_counter()
        if (args.trace or len(untraced) >= MIN_UNTRACED_PASSES) and (
                now + (now - round_start) - start > args.seconds):
            break

    # Correctness across passes: every run's trace bytes equal the first
    # untraced pass's, and traced passes issue exactly the untraced queries.
    reference = untraced[0]
    for p in untraced[1:] + traced:
        for key, sha in p.run_sha.items():
            if sha != reference.run_sha.get(key):
                p.failed.add(key)
                p.problems.append(f"{key[0]} seed {key[1]}: trace bytes differ across passes")
    for p, layer in zip(traced, layers):
        if layer["oracle.queries"] != p.queries:
            p.failed.update(p.run_sha)
            p.problems.append(f"traced pass counted {layer['oracle.queries']} queries, "
                              f"oracles counted {p.queries}")
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    problems = [msg for p in passes for msg in p.problems]

    e2e = result_metrics(end_to_end(wl, setup_times, untraced), "end_to_end")
    print_metrics(f"{wl.name}: end to end ({len(untraced)} untraced passes)", e2e)
    print(f"  {'failed_ratio':<38} {failed / attempted!r} ratio")
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "raw_wall_s": sum(median_parts(untraced, raw=True).values()),
        "speed_factor": speed_factor(untraced),
        "pass_wall_s": {"untraced": [p.wall_s for p in untraced],
                        "traced": [p.wall_s for p in traced]},
        "trace_csv_sha256": sorted({p.sha256 for p in passes}),
        "environment": environment(),
        "problems": problems,
    }
    metrics = e2e
    if args.trace:
        # Counts repeat exactly across traced passes; keep them whole numbers.
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        metrics["trace.overhead_s"] = (sum(median_parts(traced).values())
                                       - sum(median_parts(untraced).values()))
        metrics = result_metrics(metrics, "per_layer")
        print_metrics(f"{wl.name}: per layer ({len(traced)} traced passes)", metrics)
        tracer.save(work / "spans.npz")
        info["end_to_end"] = {name: m["value"] for name, m in e2e.items()}
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps(info))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process each."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or child.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                total["correct"] = False
                continue
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return status or (0 if total["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
