"""Command-line front end.

Two subcommands: ``run`` executes a multi-seed experiment and writes trace
CSVs; ``summarize`` reduces a directory of traces to per-checkpoint
statistics. Options can also come from a flat key=value config file; flags
override file entries. Exit codes: 0 success, 2 usage error, 3 data error
(an unreadable or malformed dataset, or an objective that returned a
non-finite value where the optimizer needs a finite one).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    UsageError,
    read_trace_csv,
    run_experiment,
    summarize,
    write_summary_csv,
)
from .oracle import DatasetFormatError, _require_integer

__all__ = ["main", "main_exit", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zosah",
        description="Query-counted zeroth-order optimization benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment over a list of seeds")
    for key, (_, help_text) in _RUN_OPTIONS.items():
        # argparse only collects the text; _cmd_run parses it (--alg shows
        # the algorithm list as argparse would print its choices)
        run.add_argument("--" + key.replace("_", "-"), help=help_text,
                         metavar="{" + ",".join(ALGORITHMS) + "}" if key == "alg" else None)
    run.add_argument("--config", help="flat key=value config file; flags override it")
    run.set_defaults(func=_cmd_run)

    summ = sub.add_parser("summarize", help="summarize trace CSVs on an eval grid")
    summ.add_argument("--in", dest="in_dir", required=True, help="directory of trace CSVs")
    summ.add_argument("--grid", default="100", help="checkpoint spacing in evals")
    summ.add_argument("--out", required=True, help="output summary CSV path")
    summ.set_defaults(func=_cmd_summarize)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in _RUN_OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        entries[key] = value.strip()
    return entries


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise UsageError(f"seeds must be comma-separated integers, got {text!r}") from None
    if not seeds:
        raise UsageError("seeds list is empty")
    return seeds


def _parse_x0(text: str):
    if text in ("auto", "zeros", "standard-rosenbrock"):
        return text
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(
            "x0 must be auto (standard-rosenbrock for rosenbrock, zeros otherwise), "
            f"zeros, standard-rosenbrock, or comma-separated floats, got {text!r}"
        ) from None


# Every `zosah run` option: the parser of its text and its help. The key is
# both the config-file key and the flag (--key, with '_' written as '-').
_RUN_OPTIONS = {
    "alg": (str, "algorithm id"),
    "obj": (str, "objective id: rosenbrock or logistic:<path>"),
    "evals": (int, "function-evaluation budget per seed"),
    "seeds": (_parse_seeds, "comma-separated distinct seeds "
              f"(default {','.join(map(str, ExperimentConfig.seeds))})"),
    "x0": (_parse_x0, "auto | zeros | standard-rosenbrock | comma-separated floats "
           "(default auto: standard-rosenbrock for rosenbrock, zeros otherwise)"),
    "m": (int, "coordinates per period (even; default min(d,20))"),
    "T": (int, f"steps per subspace period (default {ExperimentConfig.T})"),
    "eps": (float, f"finite-difference spacing (default {ExperimentConfig.eps})"),
    "kappa": (float, f"curvature floor for the PD repair (default {ExperimentConfig.kappa})"),
    "hess_radius": (float, f"fresh-sample circle radius (default {ExperimentConfig.hess_radius})"),
    "q": (int, f"directions per baseline gradient estimate (default {ExperimentConfig.q})"),
    "out": (str, "output directory for trace CSVs"),
    "jobs": (int, f"worker processes over seeds (default {ExperimentConfig.jobs})"),
}


def _parse_option(key: str, parse, text: str):
    """``parse(text)`` of option ``key``, where any ValueError but the
    parser's own UsageError becomes one UsageError naming the option."""
    try:
        return parse(text)
    except UsageError:  # the parser's own message names the option
        raise
    except ValueError as exc:
        raise UsageError(f"option {key!r}: {exc}") from None


def _cmd_run(args) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}
    given = {}
    for key, (parse, _) in _RUN_OPTIONS.items():
        flag = getattr(args, key)  # the flag's text overrides the config file's
        text = file_cfg.get(key) if flag is None else flag
        if text is not None:
            given[key] = _parse_option(key, parse, text)
    for key in ("alg", "obj", "evals", "out"):
        if key not in given:
            raise UsageError(f"--{key} is required (flag or config file)")
    out = given.pop("out")
    given["max_evals"] = given.pop("evals")
    # options left unset take ExperimentConfig's defaults
    paths = run_experiment(ExperimentConfig(**given), out)
    for path in paths:
        print(path)
    return 0


def _cmd_summarize(args) -> int:
    grid = _parse_option("grid", int, args.grid)
    _require_integer("grid", grid, 1)  # before any trace is read
    in_dir = Path(args.in_dir)
    trace_files = sorted(in_dir.glob("seed_*.csv"))
    if not trace_files:
        combined = in_dir / "combined.csv"
        if combined.exists():
            trace_files = [combined]
    if not trace_files:
        raise DatasetFormatError(f"no trace CSVs found in {in_dir}")
    rows_by_seed = {}
    source = {}  # seed -> the file that holds it
    for path in trace_files:
        for seed, rows in read_trace_csv(path).items():
            if seed in source:
                raise DatasetFormatError(f"seed {seed} is in both {source[seed]} and {path}")
            source[seed] = path
            rows_by_seed[seed] = rows
    if not rows_by_seed:
        raise DatasetFormatError(f"{in_dir}: the trace CSVs hold no rows")
    rows = summarize(rows_by_seed, grid)
    write_summary_csv(args.out, rows)
    print(args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetFormatError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_exit() -> None:
    """Console-script entry point."""
    raise SystemExit(main(sys.argv[1:]))
