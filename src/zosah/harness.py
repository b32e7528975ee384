"""Experiment runner: multi-seed execution, trace persistence, summaries.

An experiment is (algorithm, objective, budget, seeds, hyperparameters).
Each seed runs with its own oracle and random generator and yields one
convergence trace; traces are written as one CSV per seed plus a combined
CSV, formatted so that identical configurations reproduce identical bytes.
``summarize`` reduces a directory of traces to per-checkpoint statistics
with step-function interpolation (the value at a checkpoint is the last
accepted value at or before it; no lookahead).
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .baselines import BASELINES, BaselineConfig, run_baseline
from .oracle import DatasetFormatError, Objective, _require_integer, rosenbrock_objective
from .optimizer import TraceRow, ZosahConfig, run_zosah

__all__ = [
    "ALGORITHMS",
    "DATA_DIR_ENV",
    "TRACE_HEADER",
    "UsageError",
    "ExperimentConfig",
    "resolve_objective",
    "initial_point",
    "run_single",
    "run_experiment",
    "write_trace_csv",
    "read_trace_csv",
    "summarize",
    "SummaryRow",
    "write_summary_csv",
]

DATA_DIR_ENV = "ZOSAH_DATA_DIR"

_ZOSAH_MODES = {"zosah": "fit", "zosah-diag": "diag", "zosah-fd": "fd"}
ALGORITHMS = tuple(_ZOSAH_MODES) + tuple(BASELINES)

TRACE_HEADER = "seed,step,cum_evals,f_value"
SUMMARY_HEADER = "cum_evals,mean,std,min,max"


class UsageError(ValueError):
    """Bad experiment configuration (unknown id, malformed value)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte-for-byte.

    The hyperparameter defaults are the optimizer configs' own. Every setting,
    x0 included, is checked here and the selected algorithm's config is built
    once, so a bad setting fails before the objective loads (only x0's size
    waits for it). Every bad setting, the ones the algorithm's config rejects
    included, raises :class:`UsageError` with the check's message, which
    ``zosah run`` prints as a one-line usage error.
    """

    alg: str
    obj: str
    max_evals: int
    seeds: tuple[int, ...] = (0,)
    x0: str | tuple[float, ...] = "auto"
    m: int | None = ZosahConfig.m
    T: int = ZosahConfig.T
    eps: float = ZosahConfig.eps
    kappa: float = ZosahConfig.kappa
    hess_radius: float = ZosahConfig.hess_radius
    q: int = BaselineConfig.q
    jobs: int = 1

    def __post_init__(self):
        try:
            _require_integer("max_evals", self.max_evals, 1)
            _require_integer("jobs", self.jobs, 1)
            if not isinstance(self.seeds, (tuple, list)) or not self.seeds:
                raise ValueError(f"seeds must be a non-empty tuple, got {self.seeds!r}")
            object.__setattr__(self, "seeds", tuple(self.seeds))  # a list is stored hashable
            for i, seed in enumerate(self.seeds):
                _require_integer(f"seeds[{i}]", seed)
            if self.alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {self.alg!r}; expected one of {ALGORITHMS}")
            if not isinstance(self.obj, str):
                raise ValueError(f"obj must be an objective id string, got {self.obj!r}")
            if len(set(self.seeds)) != len(self.seeds):
                raise ValueError(f"seeds must be distinct, got {self.seeds}")
            if min(self.seeds) < 0:
                raise ValueError(f"seeds must be non-negative, got {self.seeds}")
            object.__setattr__(self, "x0", _check_x0(self.x0, ("auto",)))
            _algorithm_config(self, self.seeds[0])
        except ValueError as exc:
            raise UsageError(str(exc)) from None


_EXPERIMENT_FIELDS = frozenset(field.name for field in fields(ExperimentConfig))


def resolve_objective(obj_id: str) -> Objective:
    """Map an objective id to an Objective.

    ``rosenbrock`` or ``logistic:<path>``; relative logistic paths are
    resolved against $ZOSAH_DATA_DIR when that variable is set.
    """
    if obj_id == "rosenbrock":
        return rosenbrock_objective()
    if obj_id.startswith("logistic:"):
        from .logistic import load_libsvm, logistic_objective  # imports scipy

        raw = obj_id[len("logistic:"):]
        if not raw:
            raise UsageError("logistic objective needs a path: logistic:<path>")
        path = Path(raw)
        root = os.environ.get(DATA_DIR_ENV)
        if root and not path.is_absolute() and not path.exists():
            path = Path(root) / path
        return logistic_objective(load_libsvm(path))
    raise UsageError(
        f"unknown objective id {obj_id!r}; expected 'rosenbrock' or 'logistic:<path>'"
    )


def _check_x0(policy, names: tuple[str, ...] = ()) -> str | tuple[float, ...]:
    """A known policy name (``names`` or a start's), or an explicit start as a tuple of floats."""
    if isinstance(policy, str):
        if policy not in (*names, "zeros", "standard-rosenbrock"):
            raise UsageError(f"unknown x0 policy {policy!r}")
        return policy
    x0 = policy.tolist() if isinstance(policy, np.ndarray) else policy
    if not isinstance(x0, (tuple, list)):
        raise UsageError(f"x0 must be a policy name or a 1-d sequence of numbers, got {policy!r}")
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in x0):  # not "1.0"
        raise UsageError(f"explicit x0 entries must be numbers, got {policy!r}")
    x0 = tuple(map(float, x0))
    if not all(map(math.isfinite, x0)):
        raise UsageError(f"explicit x0 must be finite, got {list(x0)}")
    return x0


def initial_point(policy: str | tuple | list | np.ndarray, dim: int) -> np.ndarray:
    """Resolve an x0 policy: zeros, the standard Rosenbrock start, or explicit."""
    policy = _check_x0(policy)
    if isinstance(policy, tuple):
        if len(policy) != dim:
            raise UsageError(
                f"explicit x0 has {len(policy)} entries but the objective has dimension {dim}"
            )
        return np.asarray(policy, dtype=float)
    if policy == "zeros":
        return np.zeros(dim)
    if dim != 2:  # the standard-rosenbrock start
        raise UsageError("standard-rosenbrock start requires a 2-d objective")
    return np.array([-1.2, 1.0])


def _x0_policy(cfg: ExperimentConfig) -> str | tuple[float, ...]:
    """cfg.x0 with auto resolved: standard-rosenbrock for rosenbrock, zeros otherwise."""
    if cfg.x0 == "auto":
        return "standard-rosenbrock" if cfg.obj == "rosenbrock" else "zeros"
    return cfg.x0


def _algorithm_config(cfg: ExperimentConfig, seed: int) -> ZosahConfig | BaselineConfig:
    """The selected algorithm's config for one seed; raises ValueError naming a bad field."""
    cls = ZosahConfig if cfg.alg in _ZOSAH_MODES else BaselineConfig
    # every hyperparameter the config shares with ExperimentConfig passes by name
    given = {f.name: getattr(cfg, f.name) for f in fields(cls) if f.name in _EXPERIMENT_FIELDS}
    if cls is ZosahConfig:
        given["hessian_mode"] = _ZOSAH_MODES[cfg.alg]
    return cls(seed=seed, **given)


def run_single(objective: Objective, cfg: ExperimentConfig, seed: int) -> list[TraceRow]:
    """One seed's run; owns its oracle and random generator."""
    x0 = initial_point(_x0_policy(cfg), objective.dim)
    alg_cfg = _algorithm_config(cfg, seed)
    if cfg.alg in _ZOSAH_MODES:
        return run_zosah(objective, x0, alg_cfg)
    return run_baseline(objective, x0, alg_cfg, cfg.alg)


def run_experiment(cfg: ExperimentConfig, out_dir) -> list[Path]:
    """Run every seed, write per-seed CSVs plus combined.csv; return the paths."""
    objective = resolve_objective(cfg.obj)
    initial_point(_x0_policy(cfg), objective.dim)  # fail fast on an x0 of the wrong size
    out = Path(out_dir)
    # made after the checks, so a bad objective or x0 leaves none, and before
    # the runs, so an unwritable one fails before any run
    made = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    try:
        traces = _run_seeds(objective, cfg)
    except BaseException:
        for path in made:  # a failed run leaves no empty directory of its own making
            with contextlib.suppress(OSError):
                path.rmdir()  # only while still empty
        raise

    # each seed's rows are formatted once: combined.csv is the header plus
    # the per-seed bodies, the bytes write_trace_csv gives for all seeds
    bodies = list(map(_trace_body, cfg.seeds, traces))
    paths = [out / f"seed_{seed}.csv" for seed in cfg.seeds]
    for path, body in zip(paths, bodies):
        _write_trace(path, [body])
    paths.append(out / "combined.csv")
    _write_trace(paths[-1], bodies)
    return paths


def _run_seeds(objective: Objective, cfg: ExperimentConfig) -> list[list[TraceRow]]:
    """Every seed's trace, in ``cfg.seeds`` order."""
    if cfg.jobs > 1:  # a serial run does not load multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            # One worker process per seed at most: each works on its own copy
            # of the objective, and the pool starts all its workers at once.
            # Only forked workers beat a serial run; spawn and forkserver
            # workers re-import the package and lose, so without fork the
            # seeds run serially.
            with ProcessPoolExecutor(
                max_workers=min(cfg.jobs, len(cfg.seeds)),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                return list(pool.map(functools.partial(run_single, objective, cfg), cfg.seeds))
    return [run_single(objective, cfg, seed) for seed in cfg.seeds]


def write_trace_csv(path, rows_by_seed: dict[int, list[TraceRow]]) -> None:
    """Write traces with a fixed header, 17-significant-digit values, LF ends.

    A seed key that is not a non-negative integer raises ValueError unwritten.
    """
    for seed in rows_by_seed:
        _require_integer("seed", seed, 0)
    _write_trace(path, map(_trace_body, rows_by_seed, rows_by_seed.values()))


def _trace_body(seed: int, rows: list[TraceRow]) -> str:
    """One seed's trace rows as CSV text, one LF-ended line per row."""
    # one template per seed; "%d" and "%.17g" format as str and
    # format(value, ".17g") do
    return "".join(map(f"{seed},%d,%d,%.17g\n".__mod__, rows))


def _write_trace(path, bodies) -> None:
    """Write the trace header followed by the given seed bodies."""
    Path(path).write_text("".join((TRACE_HEADER + "\n", *bodies)), encoding="ascii", newline="\n")


def read_trace_csv(path) -> dict[int, list[TraceRow]]:
    """Inverse of :func:`write_trace_csv`; rows grouped by seed column.

    Raises :class:`DatasetFormatError` naming ``path:line`` when the header is
    missing, a row does not have exactly four fields, a field does not parse
    (one with a digit separator, as in "1_0", does not), a seed, step or
    cum_evals is negative (no run writes one), an f_value is not
    finite (no optimizer writes one: f(x0) must be finite and a trial is
    accepted only when finite) or a row's cum_evals is below the previous row
    of its seed.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not an ASCII trace file ({exc.reason})") from None
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln]
    if not lines or lines[0][1] != TRACE_HEADER:
        where = lines[0][0] if lines else 1
        raise DatasetFormatError(f"{path}:{where}: missing trace header {TRACE_HEADER!r}")
    out: dict[int, list[TraceRow]] = {}
    for lineno, ln in lines[1:]:
        fields = ln.split(",")
        try:
            if "_" in ln:  # int and float read digit separators ("1_0" is 10)
                raise ValueError
            seed_s, step_s, evals_s, f_s = fields
            row = TraceRow(int(step_s), int(evals_s), float(f_s))
            seed = int(seed_s)
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: {_row_problem(fields)}") from None
        if seed < 0 or row.step < 0 or row.cum_evals < 0:
            name, text = next(nt for nt in zip(TRACE_HEADER.split(","), fields) if int(nt[1]) < 0)
            raise DatasetFormatError(f"{path}:{lineno}: negative {name} {text!r}")
        if not math.isfinite(row.f_value):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite f_value {f_s!r}")
        seed_rows = out.setdefault(seed, [])
        if seed_rows and row.cum_evals < seed_rows[-1].cum_evals:
            raise DatasetFormatError(
                f"{path}:{lineno}: seed {seed}: cum_evals {row.cum_evals} below "
                f"the previous row's {seed_rows[-1].cum_evals}"
            )
        seed_rows.append(row)
    return out


def _row_problem(fields: list[str]) -> str:
    """What is wrong with a trace row that does not parse."""
    names = TRACE_HEADER.split(",")
    if len(fields) != len(names):
        return f"expected {len(names)} fields ({TRACE_HEADER}), got {len(fields)}"
    for name, text, parse in zip(names, fields, (int, int, int, float)):
        try:
            if "_" in text:
                raise ValueError
            parse(text)
        except ValueError:
            return f"non-numeric {name} {text!r}"
    return f"malformed row {','.join(fields)!r}"


class SummaryRow(NamedTuple):
    """Statistics over seeds at one checkpoint (an immutable NamedTuple)."""

    cum_evals: int
    mean: float
    std: float
    min: float
    max: float


def summarize(
    rows_by_seed: dict[int, list[TraceRow]], grid: int
) -> list[SummaryRow]:
    """Per-checkpoint statistics over seeds with step-function interpolation.

    At each checkpoint (grid, 2*grid, ...) a seed contributes its last
    f-value at cum_evals <= checkpoint. Checkpoints where some seed has no
    value yet are omitted. std is the sample standard deviation (0 for a
    single seed). Each seed's rows must be in non-decreasing cum_evals
    order, as every optimizer writes them.
    """
    _require_integer("grid", grid, 1)
    if not any(rows_by_seed.values()):
        raise ValueError("no traces to summarize")
    last = max(rows[-1].cum_evals for rows in rows_by_seed.values() if rows)
    checkpoints = np.arange(grid, last + 1, grid)
    # values[c, s]: seed s's last value at or before checkpoint c, found with
    # one searchsorted per seed; have[c]: every seed has such a value.
    values = np.zeros((checkpoints.size, len(rows_by_seed)))
    have = np.ones(checkpoints.size, dtype=bool)
    for s, (seed, rows) in enumerate(rows_by_seed.items()):
        evals = np.array([r.cum_evals for r in rows], dtype=np.int64)
        if np.any(np.diff(evals) < 0):
            raise ValueError(f"seed {seed}: trace rows are not in cum_evals order")
        at = np.searchsorted(evals, checkpoints, side="right") - 1
        have &= at >= 0
        if rows:
            values[:, s] = np.array([r.f_value for r in rows])[np.maximum(at, 0)]
    # every checkpoint at once: each row reduces as the 1-d call on it would
    values = values[have]
    std = values.std(axis=1, ddof=1) if values.shape[1] > 1 else np.zeros(len(values))
    stats = (values.mean(axis=1), std, values.min(axis=1), values.max(axis=1))
    return list(map(SummaryRow, checkpoints[have].tolist(), *(a.tolist() for a in stats)))


def write_summary_csv(path, rows: list[SummaryRow]) -> None:
    lines = [SUMMARY_HEADER + "\n"]
    lines.extend(map("%d,%.17g,%.17g,%.17g,%.17g\n".__mod__, rows))
    Path(path).write_text("".join(lines), encoding="ascii", newline="\n")
