"""The benchmark's three workloads: inputs, settings and one checked pass.

A pass runs all six algorithms over the workload's seed list through the
public ``zosah.harness`` functions the CLI uses: ``run_experiment`` (or,
for the quadratic, which has no CLI objective id, ``run_single`` plus
``write_trace_csv`` exactly as ``run_experiment`` does), then reads the
per-seed traces back with ``read_trace_csv`` and reduces them with
``summarize`` at grid 100, as ``zosah summarize`` does.

The problems are the acceptance gate's own: criterion 1's Rosenbrock start,
criterion 6's 20-d quadratic (rng 777 for the spectrum and rotation, 42 for
x0) and criterion 8's synthetic 123-feature LIBSVM set (rng 1234). The
generators below reproduce the gate's recipes without importing ``tests/``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from speed import reference_seconds, scaled

GRID = 100

QUAD_SPECTRUM_SEED = 777
QUAD_X0_SEED = 42
SYNTH_SEED = 1234


def synth123_lines(seed: int = SYNTH_SEED) -> list[str]:
    """LIBSVM lines of the synthetic two-class set.

    400 examples, 123 features, 30 nonzeros per row. The first 60 columns
    are large-scale (sigma 60) and carry no signal; the other 63 are
    unit-scale and carry the labels through a planted weight vector; 5% of
    labels are flipped. Same rng stream as the test suite's fixture, so the
    default seed gives the same bytes.
    """
    n, d, n_stiff, flip = 400, 123, 60, 0.05
    rng = np.random.default_rng(seed)
    soft = np.arange(n_stiff, d)
    dense = np.zeros((n, d))
    for i in range(n):
        stiff_cols = rng.choice(n_stiff, size=15, replace=False)
        soft_cols = rng.choice(soft, size=15, replace=False)
        for j in stiff_cols:
            dense[i, j] = rng.normal(0.0, 60.0)
        for j in soft_cols:
            dense[i, j] = rng.normal(0.0, 1.0)
    w_star = np.zeros(d)
    w_star[soft] = rng.normal(0.0, 2.0, soft.size)
    labels = np.where(dense @ w_star >= 0.0, 1.0, -1.0)
    labels[rng.random(n) < flip] *= -1.0
    lines = []
    for i in range(n):
        feats = " ".join(f"{j + 1}:{format(dense[i, j], '.17g')}"
                         for j in np.nonzero(dense[i])[0])
        lines.append(("+1 " if labels[i] > 0 else "-1 ") + feats)
    return lines


def quad20(spectrum_seed: int = QUAD_SPECTRUM_SEED,
           x0_seed: int = QUAD_X0_SEED) -> tuple[np.ndarray, np.ndarray]:
    """Criterion 6's quadratic: eigenvalues 10^U(0,3) in a random rotation."""
    rng = np.random.default_rng(spectrum_seed)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    lam = 10.0 ** rng.uniform(0.0, 3.0, size=20)
    A = (Q * lam) @ Q.T
    A = (A + A.T) / 2.0
    return A, np.random.default_rng(x0_seed).standard_normal(20)


@dataclass(frozen=True)
class Workload:
    name: str
    max_evals: int
    seeds: tuple[int, ...]
    settings: dict = field(default_factory=dict)  # ExperimentConfig fields


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 1's settings; the baselines use q=10 and the same eps.
        Workload("rosenbrock", 4000, tuple(range(10)), dict(m=2, T=20, eps=1e-5, q=10)),
        Workload("quad20", 12_000, tuple(range(3)), dict(m=20, T=3)),
        Workload("logistic123", 5000, tuple(range(3))),
    )
}


@dataclass
class Inputs:
    """What setup hands to every pass."""

    obj_id: str  # harness objective id; empty when the objective is built per pass
    x0: str | tuple[float, ...]
    target: float
    quad_A: np.ndarray | None = None


def setup(wl: Workload, z, work: Path) -> Inputs:
    """Generate the workload's inputs and build its objective once."""
    if wl.name == "rosenbrock":
        z.harness.resolve_objective("rosenbrock")
        return Inputs("rosenbrock", "auto", 1e-3)
    if wl.name == "quad20":
        A, x0 = quad20()
        objective = z.oracle.quadratic_objective(A)
        return Inputs("", tuple(float(v) for v in x0), 1e-3 * objective(x0), A)
    path = work / "synth123.txt"
    path.write_text("\n".join(synth123_lines()) + "\n", encoding="ascii")
    obj_id = f"logistic:{path}"
    objective = z.harness.resolve_objective(obj_id)
    if objective.dim != 123:
        raise RuntimeError(f"synthetic set parsed to dimension {objective.dim}, expected 123")
    return Inputs(obj_id, "auto", 0.9 * math.log(2.0))


@dataclass
class PassResult:
    wall_s: float
    queries: int
    zosah_queries: int
    attempted: int
    # Reference seconds (speed.py) per part of the pass: ("run", alg, seed)
    # for one optimizer run, ("io", alg) for the rest of that algorithm's
    # experiment (objective resolution, trace and summary files, read-back
    # and summarize). raw_parts holds the same parts in seconds.
    parts: dict = field(default_factory=dict)
    raw_parts: dict = field(default_factory=dict)
    references: list = field(default_factory=list)  # kernel seconds measured in the pass
    failed: set = field(default_factory=set)  # (alg, seed) of failed runs
    problems: list = field(default_factory=list)
    run_sha: dict = field(default_factory=dict)  # (alg, seed) -> sha256 of its trace CSV
    sha256: str = ""  # all trace CSVs of the pass, in canonical order
    hits: dict = field(default_factory=dict)  # alg -> queries to target per seed


def run_pass(wl: Workload, inputs: Inputs, z, recorder, work: Path, order) -> PassResult:
    """Run the six algorithms once in ``order`` and check every output."""
    harness = z.harness
    recorder.runs.clear()
    res = PassResult(0.0, 0, 0, 0)
    read_back_by_alg: dict = {}
    summaries: dict = {}
    t0 = time.perf_counter()
    io_reference = {}
    for alg in order:
        io_reference[alg] = reference_seconds()
        t_alg = time.perf_counter()
        out = work / "traces" / alg
        cfg = harness.ExperimentConfig(alg=alg, obj=inputs.obj_id or "quadratic",
                                       max_evals=wl.max_evals, seeds=wl.seeds,
                                       x0=inputs.x0, jobs=1, **wl.settings)
        res.attempted += len(wl.seeds)
        try:
            if inputs.obj_id:
                harness.run_experiment(cfg, out)
            else:
                _run_quadratic(z, inputs, cfg, out)
            read_back: dict = {}
            for path in sorted(out.glob("seed_*.csv")):
                for seed, rows in harness.read_trace_csv(path).items():
                    read_back.setdefault(seed, []).extend(rows)
            summary = harness.summarize(read_back, GRID)
            harness.write_summary_csv(out / "summary.csv", summary)
            read_back_by_alg[alg] = read_back
            summaries[alg] = summary
        except Exception as exc:
            res.failed.update((alg, s) for s in wl.seeds)
            res.problems.append(f"{alg}: {type(exc).__name__}: {exc}")
        res.raw_parts[("io", alg)] = time.perf_counter() - t_alg
        io_reference[alg] = 0.5 * (io_reference[alg] + reference_seconds())
    res.wall_s = time.perf_counter() - t0
    for run in recorder.runs:
        res.raw_parts[("run", run.alg, run.seed)] = run.seconds
        res.raw_parts[("io", run.alg)] -= run.seconds
        res.parts[("run", run.alg, run.seed)] = scaled(run.seconds, run.reference)
        res.references.append(run.reference)
    for alg, reference in io_reference.items():
        res.parts[("io", alg)] = scaled(res.raw_parts[("io", alg)], reference)
        res.references.append(reference)

    for alg, summary in summaries.items():
        problem = _check_summary(read_back_by_alg[alg], summary)
        if problem:
            res.failed.update((alg, s) for s in wl.seeds)
            res.problems.append(f"{alg}: summary {problem}")

    for run in recorder.runs:
        key = (run.alg, run.seed)
        problem = _check_run(run, read_back_by_alg.get(run.alg, {}).get(run.seed))
        if problem:
            res.failed.add(key)
            res.problems.append(f"{run.alg} seed {run.seed}: {problem}")
            continue
        count = run.oracles[0].count
        res.queries += count
        if run.alg == "zosah":
            res.zosah_queries += count
        res.hits.setdefault(run.alg, {})[run.seed] = _queries_to_target(
            run.rows, inputs.target, wl.max_evals)
        res.run_sha[key] = hashlib.sha256(
            (work / "traces" / run.alg / f"seed_{run.seed}.csv").read_bytes()).hexdigest()
    missing = {(a, s) for a in z.harness.ALGORITHMS for s in wl.seeds} - set(res.run_sha)
    res.failed |= missing

    digest = hashlib.sha256()
    for alg in z.harness.ALGORITHMS:
        for name in [f"seed_{s}.csv" for s in wl.seeds] + ["combined.csv"]:
            path = work / "traces" / alg / name
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
    res.sha256 = digest.hexdigest()
    return res


def _run_quadratic(z, inputs: Inputs, cfg, out: Path) -> None:
    """``run_experiment`` for an objective that has no CLI id."""
    out.mkdir(parents=True, exist_ok=True)
    objective = z.oracle.quadratic_objective(inputs.quad_A)
    traces = [z.harness.run_single(objective, cfg, seed) for seed in cfg.seeds]
    for seed, rows in zip(cfg.seeds, traces):
        z.harness.write_trace_csv(out / f"seed_{seed}.csv", {seed: rows})
    z.harness.write_trace_csv(out / "combined.csv", dict(zip(cfg.seeds, traces)))


def _check_run(run, read_back) -> str:
    """Empty when the run is correct, else what is wrong with it.

    ``read_back`` is the run's trace as ``read_trace_csv`` returned it.
    """
    if run.rows is None:
        return f"raised {run.error}"
    if len(run.oracles) != 1:
        return f"created {len(run.oracles)} oracles, expected 1"
    if not run.rows or run.rows[-1].cum_evals != run.oracles[0].count:
        return (f"final cum_evals {run.rows[-1].cum_evals if run.rows else None} "
                f"!= oracle count {run.oracles[0].count}")
    fs = [row.f_value for row in run.rows]
    if any(later > earlier for earlier, later in zip(fs, fs[1:])):
        return "trace increases"
    if read_back != run.rows:
        return "trace CSV does not read back to the returned trace"
    return ""


def _check_summary(rows_by_seed: dict, summary) -> str:
    """Compare ``summarize`` with an independent step-function reduction."""
    traces = [([r.cum_evals for r in rows], [r.f_value for r in rows])
              for rows in rows_by_seed.values()]
    last = max(evals[-1] for evals, _ in traces)
    expected = []
    for checkpoint in range(GRID, last + 1, GRID):
        at = [bisect.bisect_right(evals, checkpoint) - 1 for evals, _ in traces]
        if min(at) >= 0:
            expected.append((checkpoint, [fs[i] for (_, fs), i in zip(traces, at)]))
    if [r.cum_evals for r in summary] != [c for c, _ in expected]:
        return "checkpoints differ from the grid reduction"
    for row, (_, values) in zip(summary, expected):
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        want = (statistics.fmean(values), std, min(values), max(values))
        got = (row.mean, row.std, row.min, row.max)
        tol = 1e-12 * max(abs(v) for v in values)
        if not all(math.isclose(g, w, rel_tol=1e-9, abs_tol=tol) for g, w in zip(got, want)):
            return f"statistics at {row.cum_evals} are {got}, expected {want}"
    return ""


def _queries_to_target(rows, target: float, max_evals: int) -> int:
    """cum_evals at which f first drops below target; max_evals+1 if never."""
    for row in rows:
        if row.f_value < target:
            return row.cum_evals
    return max_evals + 1


def zosah_modules():
    """The package's modules, imported by name (after sys.path is set)."""
    import zosah.baselines
    import zosah.cache
    import zosah.estimator
    import zosah.harness
    import zosah.optimizer
    import zosah.oracle

    return SimpleNamespace(
        baselines=zosah.baselines, cache=zosah.cache, estimator=zosah.estimator,
        harness=zosah.harness, optimizer=zosah.optimizer, oracle=zosah.oracle,
    )
