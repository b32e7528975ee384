#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload quad20 --seeds 0-9 [--seconds 35] [--trace 0]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric its median and the distance between the first and third quartiles of
its values (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json. Metrics whose values are all
equal are marked ``exact``. With ``--json PATH`` the values are also saved,
and ``--compare PATH`` reports how far each median moved against a saved set
(positive means worse, as a share of the saved median).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--json", dest="save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    metrics = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    bound = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}

    values: dict[str, list[float]] = {}
    status = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", args.trace]
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(child.stdout.splitlines()[-1]) if child.stdout else {}
        print(f"seed {seed}: exit {child.returncode}, correct {result.get('correct')}, "
              f"failed {result.get('failed')} of {result.get('attempted')}", flush=True)
        status = status or child.returncode
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])

    saved = json.loads(Path(args.compare).read_text()) if args.compare else {}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(set(vals)) == 1:
            spread = "exact"
        else:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}" if med else "n/a"
        line = f"{name:<40} median {med:<14.6g} spread {spread:<8} bound {bound.get(name)}"
        if name in saved and statistics.median(saved[name]):
            old = statistics.median(saved[name])
            moved = (med - old) / old * (1 if better.get(name) == "lower" else -1)
            line += f"  vs saved {moved:+.4f}"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
