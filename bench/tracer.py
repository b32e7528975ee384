"""Outside-in instrumentation of the zosah modules for the benchmark.

Nothing under ``src/`` knows about this file. Each instrumented name is
replaced where the package looks it up (a module global or a class
attribute) and restored afterwards, so the package code runs unchanged.

- :class:`RunRecorder` is installed on every pass, traced or not, outside
  the tracer's wrappers. Per optimizer run (not per query) it runs the host
  speed reference (speed.py), times the ``harness.run_single`` call, and
  keeps the trace it returned and the ``CountedOracle`` it created, for the
  correctness gate.
- :class:`Tracer` is installed on traced passes only. It records one span
  (name, start, end, parent) per call into each module's public functions,
  in flat in-memory arrays, and reduces them to the per-layer metrics. A
  span's self time is its duration minus the durations of its direct child
  spans; each oracle query is attributed to the span that issued it.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from speed import reference_seconds

_MISSING = object()

# Relative Gram conditioning below which a curvature fit counts as rank
# deficient (lambda_min / lambda_max of phi^T phi).
RANK_DEFICIENT_RCOND = 1e-12

ORACLE_SPAN = "oracle.query"
OBJECTIVE_SPAN = "oracle.objective"
ZOSAH_STEP_SPAN = "optimizer.step"
BASELINE_STEP_SPAN = "baselines.step"
RUN_SPAN = "harness.run_single"
BUILD_OBJECTIVE_SPAN = "oracle.build_objective"

# Span that issued an oracle query -> query category. Queries issued directly
# by a zosah step are its base value (the first) and period-start fresh
# curvature samples (the rest); see Tracer.layer_metrics.
QUERY_CATEGORY = {
    "estimator.estimate_gradient": "grad",
    "estimator.fd_subspace_hessian": "fd",
    "optimizer.armijo_search": "search",
    "baselines.rge_gradient": "rge",
    BASELINE_STEP_SPAN: "base",
    RUN_SPAN: "base",  # BudgetedOptimizer.run pays f(x0) before the first step
}
QUERY_CATEGORIES = ("base", "grad", "fresh", "fd", "search", "rge")


class Patcher:
    """Replace attributes of modules and classes; put every original back."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)  # it was inherited, not set on owner
            else:
                setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


@dataclass
class RunRecord:
    alg: str
    seed: int
    seconds: float
    reference: float  # mean speed.reference_seconds() just before and after the run
    rows: list | None  # None when the run raised
    oracles: list = field(default_factory=list)
    error: str = ""


class RunRecorder:
    """Wall time, returned trace and created oracle of each optimizer run."""

    def __init__(self):
        self.runs: list[RunRecord] = []

    def install(self, patcher: Patcher, z) -> None:
        created: list = []
        runs = self.runs
        counted = z.oracle.CountedOracle
        orig_init = counted.__init__
        orig_run = z.harness.run_single
        clock = time.perf_counter

        def init(oracle_self, *args, **kwargs):
            orig_init(oracle_self, *args, **kwargs)
            created.append(oracle_self)

        def run_single(objective, cfg, seed):
            before = reference_seconds()
            created.clear()
            t0 = clock()
            try:
                rows = orig_run(objective, cfg, seed)
            except Exception as exc:
                runs.append(RunRecord(cfg.alg, seed, clock() - t0, before, None,
                                      list(created), f"{type(exc).__name__}: {exc}"))
                raise
            seconds = clock() - t0
            reference = 0.5 * (before + reference_seconds())
            runs.append(RunRecord(cfg.alg, seed, seconds, reference, rows, list(created)))
            return rows

        patcher.replace(counted, "__init__", init)
        patcher.replace(z.harness, "run_single", run_single)


class Tracer:
    """Span recorder plus the per-call outcome counts the layers expose."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.fit_outcomes = {"exact": 0, "ridge": 0, "fallback": 0}
        self.fit_systems: list = []
        self.gathers_fresh = 0
        self.gathers_degraded = 0
        self.fresh_points = 0
        self.searches = 0
        self.searches_accepted = 0
        self.trace_rows = 0

    def wrap(self, span: str, fn: Callable,
             on_return: Callable | None = None,
             on_raise: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that every call records one span."""
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                end_a[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    # --- outcome hooks -------------------------------------------------

    def _fit_built(self, args, kwargs, fit) -> None:
        self.fit_systems.append(fit)

    def _fit_failed(self, exc) -> None:
        self.fit_outcomes["fallback"] += 1  # the optimizer falls back to kappa*I

    def _fit_solved(self, args, kwargs, h) -> None:
        fit = args[0]
        floor = args[1] if len(args) > 1 else kwargs.get("gamma_floor", self._gamma_floor)
        self.fit_outcomes["exact" if fit.min_eig_gram >= floor else "ridge"] += 1

    def _gathered(self, args, kwargs, result) -> None:
        if result.fresh:
            self.gathers_fresh += 1
            self.fresh_points += len(result.fresh)
            self.gathers_degraded += bool(result.degraded)

    def _searched(self, args, kwargs, result) -> None:
        self.searches += 1
        self.searches_accepted += bool(result[1])

    def _ran(self, args, kwargs, rows) -> None:
        self.trace_rows += len(rows)

    # --- installation --------------------------------------------------

    def install(self, patcher: Patcher, z) -> None:
        """Wrap every layer boundary of the package (``z`` holds its modules)."""
        opt, bl, hn, orc, cache = z.optimizer, z.baselines, z.harness, z.oracle, z.cache
        self._gamma_floor = z.estimator.GAMMA_FLOOR

        def module_fn(module, attr, span, **hooks):
            patcher.replace(module, attr, self.wrap(span, getattr(module, attr), **hooks))

        def method(cls, attr, span, **hooks):
            patcher.replace(cls, attr, self.wrap(span, getattr(cls, attr), **hooks))

        method(orc.CountedOracle, "__call__", ORACLE_SPAN)
        method(orc.Objective, "__call__", OBJECTIVE_SPAN)
        module_fn(opt, "make_plan", "subspace.make_plan")
        for name in ("estimate_gradient", "fd_subspace_hessian", "make_pd", "newton_direction"):
            module_fn(opt, name, f"estimator.{name}")
        module_fn(opt, "build_fit_system", "estimator.build_fit_system",
                  on_return=self._fit_built, on_raise=self._fit_failed)
        module_fn(opt, "solve_hessian", "estimator.solve_hessian",
                  on_return=self._fit_solved, on_raise=self._fit_failed)
        method(cache.EvalCache, "gather_samples", "cache.gather_samples", on_return=self._gathered)
        method(cache.EvalCache, "record_probes", "cache.record")
        method(cache.EvalCache, "record_fresh", "cache.record")
        method(opt.ZosahOptimizer, "step", ZOSAH_STEP_SPAN)
        module_fn(opt, "armijo_search", "optimizer.armijo_search", on_return=self._searched)
        module_fn(bl, "armijo_search", "optimizer.armijo_search", on_return=self._searched)
        module_fn(bl, "rge_gradient", "baselines.rge_gradient")
        for cls in bl.BASELINES.values():
            method(cls, "step", BASELINE_STEP_SPAN)
        module_fn(hn, "run_single", RUN_SPAN, on_return=self._ran)
        module_fn(hn, "resolve_objective", BUILD_OBJECTIVE_SPAN)
        module_fn(orc, "quadratic_objective", BUILD_OBJECTIVE_SPAN)
        for name in ("write_trace_csv", "read_trace_csv", "summarize"):
            module_fn(hn, name, f"harness.{name}")

    # --- reduction -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(span):
            return name == ids[span] if span in ids else np.zeros(dur.size, dtype=bool)

        def self_s(span):
            return float(self_time[mask(span)].sum())

        def calls(span):
            return int(mask(span).sum())

        queries = mask(ORACLE_SPAN)
        issuer = parent[queries]
        issuer_name = np.where(issuer >= 0, name[np.maximum(issuer, 0)], -1)
        by_cat = dict.fromkeys(QUERY_CATEGORIES, 0)
        for span, cat in QUERY_CATEGORY.items():
            if span in ids:
                by_cat[cat] += int((issuer_name == ids[span]).sum())
        if ZOSAH_STEP_SPAN in ids:
            from_step = issuer[issuer_name == ids[ZOSAH_STEP_SPAN]]
            steps_with_query = int(np.unique(from_step).size)
            by_cat["base"] += steps_with_query
            by_cat["fresh"] += int(from_step.size) - steps_with_query
        n_queries = int(queries.sum())
        attributed = sum(by_cat.values())
        if attributed != n_queries:
            raise RuntimeError(
                f"{n_queries - attributed} oracle queries issued outside every traced span"
            )

        fits = calls("estimator.build_fit_system")
        deficient = self._rank_deficient_fits()
        objective_s = self_s(OBJECTIVE_SPAN)
        m = {
            "oracle.objective_s": objective_s,
            "oracle.objective_us_per_query": objective_s / n_queries * 1e6 if n_queries else 0.0,
            "oracle.meter_s": self_s(ORACLE_SPAN),
            "oracle.queries": n_queries,
        }
        m.update({f"oracle.queries.{cat}": by_cat[cat] for cat in QUERY_CATEGORIES})
        m["oracle.build_objective_s"] = float(dur[mask(BUILD_OBJECTIVE_SPAN)].sum())
        m["subspace.make_plan_s"] = self_s("subspace.make_plan")
        m["subspace.make_plan.calls"] = calls("subspace.make_plan")
        for fn in ("estimate_gradient", "build_fit_system", "solve_hessian", "make_pd",
                   "newton_direction", "fd_subspace_hessian"):
            m[f"estimator.{fn}_s"] = self_s(f"estimator.{fn}")
        for outcome in ("exact", "ridge", "fallback"):
            m[f"estimator.fit.{outcome}_ratio"] = _ratio(self.fit_outcomes[outcome], fits)
        m["estimator.fit.rank_deficient_ratio"] = _ratio(deficient, fits)
        m["cache.gather_samples_s"] = self_s("cache.gather_samples")
        m["cache.record_s"] = self_s("cache.record")
        m["cache.fresh_points"] = self.fresh_points
        m["cache.degraded_ratio"] = _ratio(self.gathers_degraded, self.gathers_fresh)
        m["optimizer.steps"] = calls(ZOSAH_STEP_SPAN)
        m["optimizer.step_self_s"] = self_s(ZOSAH_STEP_SPAN)
        m["optimizer.armijo_s"] = self_s("optimizer.armijo_search")
        m["optimizer.armijo.accept_ratio"] = _ratio(self.searches_accepted, self.searches)
        m["optimizer.armijo.trials_per_search"] = _ratio(by_cat["search"], self.searches)
        m["baselines.rge_gradient_s"] = self_s("baselines.rge_gradient")
        m["baselines.step_self_s"] = self_s(BASELINE_STEP_SPAN)
        for fn in ("run_single", "write_trace_csv", "read_trace_csv", "summarize"):
            m[f"harness.{fn}_s"] = self_s(f"harness.{fn}")
        m["harness.trace_rows"] = self.trace_rows
        return m

    def _rank_deficient_fits(self) -> int:
        """Fits whose Gram matrix has lambda_min / lambda_max below the cutoff."""
        by_rows: dict[int, list[np.ndarray]] = {}
        for fit in self.fit_systems:
            by_rows.setdefault(fit.phi.shape[0], []).append(fit.phi)
        deficient = 0
        for phis in by_rows.values():
            phi = np.stack(phis)
            lam = np.linalg.eigvalsh(np.einsum("kij,kil->kjl", phi, phi))
            deficient += int(np.sum(lam[:, 0] < RANK_DEFICIENT_RCOND * lam[:, -1]))
        return deficient


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
