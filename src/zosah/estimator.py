"""Gradient and curvature estimation for 2-d coordinate slices.

The slice gradient is measured with two forward differences sharing the
already-known value at the current point. The 2x2 curvature matrix comes from
a least-squares fit of a quadratic model to nearby function values: with the
current point mapped to the origin and the constant and linear terms pinned
to f(theta) and the measured gradient, each sample contributes one row of
second-order monomials. The fitted matrix is then eigen-decomposed in closed
form and repaired to be positive definite so the resulting Newton direction
always points downhill for the local model.

The module has two layers. The first is the rows pass the optimizer runs
for all P pairs of a plan, from probes to Newton directions.
Every probe query goes through ``_probe``, which lifts every pair's probe
points into one (P * n, d) block of query points (copies of x, then one
``ndarray.put`` at the flat positions ``_lift_index`` gives, which the caller
passes in: the row offsets, which depend only on the block's shape, are built
once, and a plan's positions add its coordinates to them) and queries its
rows in one ``map``: the step's fresh samples and ``_gradients`` pair by
pair, ``_fd_rows`` probe by probe (every pair's 2 eps e1, then every pair's
2 eps e2, then every pair's eps e1 + eps e2), so that on the logistic
objective every axis probe moves one coordinate from the kept point and
takes the row path before the mixed probes, each a full evaluation, replace
that point.
``_fit_rows`` fits every pair's model in one stacked computation (monomial
design, pinned targets, Gram matrix, eigenvalue floor test, ridge, one
stacked solve) and hands each pair's coefficients (h0, h1, h2), the matrix
[[h0, h1], [h1, h2]], to ``_newton_rows`` as a row of Python floats, with an
outcome code: ``EXACT``, ``RIDGE`` or ``FAILED``. ``_newton_rows`` repairs
and solves every row. The branches, the finiteness checks and the adjugate
solve run on Python floats, which round like numpy's elementwise ops. Numpy
is called once per step for all pairs together: to lift the probe points, to
form the monomials and pinned targets, and for each step whose rounding
belongs to a library routine: the ddot of g . theta_bar, the Gram gemm and
rhs gemv, ``eigvalsh``, ``solve``, ``hypot``, the eigenvector candidates'
ddot and the repair's gemm. ``eigvalsh`` and ``solve`` call np.linalg's
LAPACK gufuncs directly (``_eigvalsh``, ``_solve``), because its Python
wrappers cost more than LAPACK on a few 3x3 systems, with every
floating-point flag ignored: a matrix LAPACK fails on (a singular system,
or a non-finite one the eigensolver fails on) comes back as nan and fails
its own pair, where np.linalg would raise for the whole stack. No (P, 2, 2)
matrix stack is built on the way. So the fit's cost grows little with P,
but the repair and solve loop over the pairs in Python.

A plan of one pair (m = 2, as on Rosenbrock) takes a one-pair path through
both, chosen by the pair count alone: ``_fit_one`` forms the monomials,
pinned targets, trace and ridge on Python floats and calls the 2-d
``phi.T.dot`` for the Gram syrk and rhs gemv, and ``_repair_one`` makes one
scalar ``np.hypot``, two 1-d ddots and one 2-d gemm (``ndarray.dot``): the
stack's routines on the same operands, so a pair's bits do not depend on the
path. In interleaved timeit runs (2-core x86_64 VM, one BLAS thread;
``BENCH_29.json``), ``_fit_rows`` on one pair took 12.5 us on the ridge path
(4 samples) and 15.6 us on the exact path (5 samples), against 17.0 and
18.3 us stacked, and 34 us at P = 10 either way; ``_newton_rows`` took
8.9 us on one non-diagonal row against 12.9 us stacked, 36 us on ten either
way, and 2.5 us on one diagonal row.

The second layer is per pair: ``estimate_gradient``, ``fd_subspace_hessian``,
``make_pd`` and ``newton_direction`` are one-pair views of the rows pass.
``build_fit_system`` + ``solve_hessian`` are the fit's reference, a separate
per-pair implementation whose bits ``_fit_rows`` reproduces. The per-pair
views build their own lift positions.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .oracle import CountedOracle, _require_positive
from .subspace import PairProjection

__all__ = [
    "GAMMA_FLOOR",
    "EXACT",
    "RIDGE",
    "FAILED",
    "GradientEstimate",
    "FitSystem",
    "InsufficientSamplesError",
    "HessianUnavailableError",
    "estimate_gradient",
    "quad_monomials",
    "build_fit_system",
    "solve_hessian",
    "make_pd",
    "newton_direction",
    "fd_subspace_hessian",
]

# Conditioning floor for the fit's 3x3 Gram matrix; below it the solve
# switches to a ridge fallback.
GAMMA_FLOOR = 1e-10

# Outcome of one pair's curvature fit: solved from the normal equations,
# solved with the ridge (Gram matrix below the floor), or no usable fit (too
# few samples, a singular or non-finite system or solution), where the
# optimizer falls back to kappa * I.
EXACT, RIDGE, FAILED = 0, 1, 2

_EYE3 = np.eye(3)
# Slice displacements, per unit eps, of the gradient probes and of the
# finite-difference curvature probes.
_GRAD_STEPS = np.eye(2)
_FD_STEPS = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
# quad_monomials column c is (_MONO_COEF[c] * t[_MONO_A[c]]) * t[_MONO_B[c]].
_MONO_COEF = np.array([0.5, 1.0, 0.5])
_MONO_A = np.array([0, 0, 1])
_MONO_B = np.array([0, 1, 1])
# Row-major eigenvectors of a diagonal 2x2 (kept or swapped order), and the
# smallest normal double, below which a squared norm has lost precision.
_EYE2 = (1.0, 0.0, 0.0, 1.0)
_SWAP2 = (0.0, 1.0, 1.0, 0.0)
_TINY = float(np.finfo(float).tiny)
_NAN2 = (math.nan, math.nan)
# Largest half eigenvalue gap (disc) for which 8 * disc**2, a bound on the
# eigenvector candidates' squared norms, stays finite.
_BIG = 4e153


# The floating-point settings of the two LAPACK seams: every flag ignored, so
# a matrix LAPACK fails on (a singular system, an eigensolver that fails on
# non-finite input) comes back as nan and the rest of its stack is unaffected.
_lapack_quiet = np.errstate(all="ignore")


@_lapack_quiet
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` of float64 (..., n, n) and (..., n, k) stacks,
    with nan where np.linalg.solve of that matrix alone raises.

    The gufunc np.linalg.solve calls, without the wrapper's array checks
    and conversions, which cost more than LAPACK on a few 3x3 systems.
    """
    return _umath_linalg.solve(a, b, signature="dd->d")


@_lapack_quiet
def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` (ascending, lower triangle) of a float64 (..., n, n)
    stack, with nan where np.linalg.eigvalsh of that matrix alone raises."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")


class InsufficientSamplesError(ValueError):
    """Fewer than 3 samples: the 3-parameter quadratic fit is underdetermined."""


class HessianUnavailableError(RuntimeError):
    """The fit system could not be solved even with the ridge fallback."""


@dataclass(frozen=True)
class GradientEstimate:
    """Forward-difference slice gradient plus the probe evaluations behind it.

    ``probes`` holds the two perturbed subspace points (absolute slice
    coordinates theta + eps*e_i) with their f-values so the driver can bank
    them for curvature fitting in later steps.
    """

    g: np.ndarray
    probes: tuple[tuple[np.ndarray, float], ...]


@dataclass(frozen=True)
class FitSystem:
    """Design matrix and targets of the quadratic-model least squares.

    ``min_eig_gram`` is the smallest eigenvalue of phi^T phi; the solver uses
    it to decide between the exact normal-equation solve and the ridge
    fallback.
    """

    phi: np.ndarray  # (s, 3) rows of second-order monomials
    q: np.ndarray  # (s,) residual targets
    min_eig_gram: float


def _all_finite(values) -> bool:
    """True if every float in ``values`` is finite.

    A finite sum proves it in one pass; only a non-finite sum (a nan or an
    inf, or finite values whose sum overflows) checks value by value.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _require_finite(values: list[float], what: str) -> None:
    """Raise FloatingPointError naming ``what`` at the first non-finite value."""
    if not _all_finite(values):
        bad = next(v for v in values if not math.isfinite(v))
        raise FloatingPointError(f"objective returned non-finite value {bad} at a {what}")


@functools.lru_cache(maxsize=8)
def _lift_offsets(n_pairs: int, n: int, d: int, by_probe: bool) -> np.ndarray:
    """The (P, n, 1) flat offsets of the rows of a (P * n, d) block that
    :func:`_lift_index` adds the pairs' coordinates to, read-only."""
    pairs = np.arange(n_pairs)[:, None]
    probes = np.arange(n)
    rows = probes * n_pairs + pairs if by_probe else pairs * n + probes
    offsets = rows[:, :, None] * d
    offsets.flags.writeable = False
    return offsets


def _lift_index(idx: np.ndarray, d: int, n: int, by_probe: bool = False) -> np.ndarray:
    """Flat positions, in a (P * n, d) block of query points, of the pairs'
    coordinates: entry [j, r, c] is where pair j's probe r sets coordinate
    ``idx[j, c]``, shaped like the (P, n, 2) probe points it places.

    The block's rows run pair by pair (pair j's n probes, then pair j + 1's),
    or with ``by_probe`` probe by probe (every pair's probe 0, then every
    pair's probe 1, ...). The row offsets depend only on (P, n, d,
    ``by_probe``), which a run keeps, so they are built once
    (:func:`_lift_offsets`) and each call is one addition of the plan's
    coordinates; the optimizer calls it once per plan.
    """
    return _lift_offsets(len(idx), n, d, by_probe) + idx[:, None, :]


def _probe(
    oracle: CountedOracle,
    x: np.ndarray,
    lift: np.ndarray,
    points: np.ndarray,
    what: str,
) -> list[float]:
    """f at copies of the float array ``x`` with the (P, n, 2) ``points`` put
    at the positions ``lift`` (see :func:`_lift_index`), in the block's row
    order, as a flat list; raises FloatingPointError naming ``what`` if any
    value is non-finite."""
    queried = x[None].repeat(lift.shape[0] * lift.shape[1], axis=0)
    queried.put(lift, points)
    values = list(map(oracle, queried))
    _require_finite(values, what)
    return values


def _gradients(
    oracle: CountedOracle,
    x: np.ndarray,
    lift: np.ndarray,
    theta: np.ndarray,
    steps: np.ndarray,
    eps: float,
    f_x: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-difference gradients of the P pairs ``idx``, 2P queries, given
    ``lift = _lift_index(idx, x.size, 2)``, ``theta = x[idx]``,
    ``steps = eps * _GRAD_STEPS`` and the paid f(x): the (P, 2) gradients, the
    probes' slice points (P, 2, 2) and their (P, 2) values."""
    points = theta[:, None, :] + steps
    values = np.array(_probe(oracle, x, lift, points, "gradient probe")).reshape(len(theta), 2)
    return (values - f_x) / eps, points, values


def estimate_gradient(
    oracle: CountedOracle,
    x: np.ndarray,
    p: PairProjection,
    eps: float,
    f_x: float,
) -> GradientEstimate:
    """Two-point forward-difference gradient of one pair's 2-d slice.

    ``f_x`` is the already-paid value at x, so this costs exactly 2 queries.
    """
    _require_positive("eps", eps)
    x = np.asarray(x, dtype=float)
    idx = np.array([p.pair])
    lift = _lift_index(idx, x.size, 2)
    g, points, values = _gradients(oracle, x, lift, x[idx], eps * _GRAD_STEPS, eps, f_x)
    probes = tuple((points[0, i], float(values[0, i])) for i in range(2))
    return GradientEstimate(g[0], probes)


def quad_monomials(theta_bar: np.ndarray) -> np.ndarray:
    """Second-order monomials [t1*t1/2, t1*t2, t2*t2/2] of slice points.

    Maps a (..., 2) array of points to a C-contiguous (..., 3) array (a
    fancy index on the last axis would not be, and would take matmul off
    BLAS); each entry is (c * t_a) * t_b, the same roundings for any shape.
    """
    t = np.asarray(theta_bar, dtype=float)
    return (_MONO_COEF * t.take(_MONO_A, axis=-1)) * t.take(_MONO_B, axis=-1)


def build_fit_system(
    samples: list[tuple[np.ndarray, float]],
    g_hat: np.ndarray,
    f_theta: float,
) -> FitSystem:
    """Assemble the least-squares system for the 2x2 curvature fit.

    ``samples`` are (theta_bar, f_value) with theta_bar relative to the
    current slice point (current point at the origin). Each target is the
    function value minus the pinned constant and linear model terms:
    q_i = f_i - g_hat . theta_bar_i - f_theta.
    """
    if len(samples) < 3:
        raise InsufficientSamplesError(
            f"quadratic fit needs at least 3 samples, got {len(samples)}"
        )
    g_hat = np.asarray(g_hat, dtype=float)
    phi = np.empty((len(samples), 3))
    q = np.empty(len(samples))
    for i, (theta_bar, f_value) in enumerate(samples):
        tb = np.asarray(theta_bar, dtype=float)
        phi[i] = quad_monomials(tb)
        q[i] = f_value - g_hat @ tb - f_theta
    gram = phi.T @ phi
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    return FitSystem(phi, q, min_eig)


def solve_hessian(sys: FitSystem, gamma_floor: float = GAMMA_FLOOR) -> np.ndarray:
    """Solve the normal equations and arrange the solution as a symmetric 2x2.

    Solves phi^T phi h = phi^T q exactly when the Gram matrix clears
    ``gamma_floor``; otherwise retries with a ridge of 1e-8 * trace/3. Raises
    :class:`HessianUnavailableError` if even that fails, signalling the caller
    to fall back to a scaled gradient step.
    """
    gram = sys.phi.T @ sys.phi
    rhs = sys.phi.T @ sys.q
    try:
        if sys.min_eig_gram >= gamma_floor:
            h = np.linalg.solve(gram, rhs)
        else:
            ridge = 1e-8 * float(np.trace(gram)) / 3.0
            h = np.linalg.solve(gram + ridge * np.eye(3), rhs)
    except np.linalg.LinAlgError as exc:
        raise HessianUnavailableError(str(exc)) from None
    if not np.all(np.isfinite(h)):
        raise HessianUnavailableError("non-finite fit solution")
    return np.array([[h[0], h[1]], [h[1], h[2]]])


def _traces(gram: np.ndarray) -> list[float]:
    """Each 3x3 matrix's trace, summed in np.trace's order."""
    return [(a + b) + c for a, b, c in gram.reshape(-1, 9)[:, ::4].tolist()]


def _fit_one(
    theta_bar: np.ndarray,
    values: np.ndarray,
    lin: np.ndarray,
    f_theta: float,
) -> tuple[list, list[int]]:
    """:func:`_fit_rows` of one pair, given its samples' ddots ``lin``.

    The monomials, pinned targets, trace and ridge are Python floats, the
    roundings of numpy's elementwise ops; the Gram syrk and rhs gemv are the
    2-d ``phi.T.dot``, the BLAS calls of the stacked matmul. ``eigvalsh``
    runs only when the trace clears half the floor, and ``solve`` as in the
    stack.
    """
    t = theta_bar.ravel().tolist()
    s = len(t) // 2
    pq = [m for a, b in zip(t[::2], t[1::2]) for m in ((0.5 * a) * a, a * b, (0.5 * b) * b)]
    pq += [(v - lv) - f_theta for v, lv in zip(values.ravel().tolist(), lin.ravel().tolist())]
    pq = np.array(pq)
    phi = pq[:3 * s].reshape(s, 3)
    gram = phi.T.dot(phi)
    rhs = phi.T.dot(pq[3 * s:])
    (g0, _, _), (_, g1, _), (_, _, g2) = gram.tolist()
    trace = (g0 + g1) + g2  # np.trace's order, as _traces
    if trace < 0.5 * GAMMA_FLOOR:
        outcome = RIDGE
    else:
        e = _eigvalsh(gram)[0]
        outcome = EXACT if e >= GAMMA_FLOOR else RIDGE if e < GAMMA_FLOOR else FAILED
    if outcome != EXACT:
        gram = gram + (0.0 if outcome == FAILED else 1e-8 * trace / 3.0) * _EYE3
    h = _solve(gram, rhs[:, None]).ravel().tolist()
    return [h], [outcome if _all_finite(h) else FAILED]


def _fit_rows(
    theta_bar: np.ndarray,
    values: np.ndarray,
    g_hat: np.ndarray,
    f_theta: float,
) -> tuple[list, list[int]]:
    """:func:`build_fit_system` + :func:`solve_hessian` of P pairs, as Python rows.

    ``theta_bar`` (P, s, 2) holds each pair's samples relative to its slice
    point, ``values`` (P, s) their f-values and ``g_hat`` (P, 2) the pairs'
    gradients. Returns each pair's fitted (h0, h1, h2), the matrix
    [[h0, h1], [h1, h2]], and its outcome code (EXACT, RIDGE or FAILED where
    the per-pair path raises); a failed pair's row is meaningless.

    Accepted rows have the per-pair path's bits: stacked ``matmul``,
    ``eigvalsh`` and ``solve`` call the per-matrix BLAS or LAPACK routine of
    the 2-d calls, provided each 2-element dot is a (..., 1, 2) @ (..., 2, 1)
    matmul (ddot, as ``g_hat @ tb``; elementwise products and a stacked gemv
    round differently) and every matmul operand is C-contiguous or a
    transpose of one. So ``theta_bar`` and ``g_hat`` must be C-contiguous.

    The Gram matrices' smallest eigenvalues decide exact against ridge, but
    when every trace is below half the floor no eigenvalue can clear it
    (lambda_min <= trace / 3, and eigvalsh rounds by a few ulps of the
    trace), so the stack skips ``eigvalsh``. LAPACK failures come back as
    nan for their own pair only: a non-finite Gram matrix's smallest
    eigenvalue is nan, which fails the pair, and a singular system's solution
    row is nan, which fails it through the finiteness check. So one stacked
    ``eigvalsh`` and one stacked ``solve`` serve every pair.

    One pair (P == 1) takes :func:`_fit_one` after the stacked ddot: the
    same roundings with fewer numpy calls (12.5 us against 17.0 us per
    ridge fit of 4 samples), so its row and outcome are those it has in
    any stack.
    """
    n_pairs, s, _ = theta_bar.shape
    if s < 3:
        return [(0.0, 0.0, 0.0)] * n_pairs, [FAILED] * n_pairs
    lin = g_hat[:, None, None, :] @ theta_bar[..., None]
    if n_pairs == 1:
        return _fit_one(theta_bar, values, lin, f_theta)
    phi = quad_monomials(theta_bar)
    q = values - lin[..., 0, 0] - f_theta
    phi_t = phi.transpose(0, 2, 1)
    gram = phi_t @ phi
    rhs = phi_t @ q[..., None]
    traces = _traces(gram)
    if all(t < 0.5 * GAMMA_FLOOR for t in traces):
        outcome = [RIDGE] * n_pairs
    else:
        outcome = [EXACT if e >= GAMMA_FLOOR else RIDGE if e < GAMMA_FLOOR else FAILED
                   for e in _eigvalsh(gram)[:, 0].tolist()]
    system = gram
    if any(o != EXACT for o in outcome):
        # a failed pair's Gram matrix, and so its trace, is not finite: a zero
        # ridge keeps inf * 0 out
        ridge = np.array([0.0 if o == FAILED else 1e-8 * t / 3.0
                          for t, o in zip(traces, outcome)])
        system = gram + ridge[:, None, None] * _EYE3
        if EXACT in outcome:
            system = np.where(np.array([o == EXACT for o in outcome])[:, None, None],
                              gram, system)
    h = _solve(system, rhs).ravel().tolist()
    rows = [h[i:i + 3] for i in range(0, len(h), 3)]
    if not _all_finite(h):  # a singular system's row is nan: a non-finite row fails
        outcome = [o if _all_finite(row) else FAILED for row, o in zip(rows, outcome)]
    return rows, outcome


def _rows(H: np.ndarray) -> list[tuple[float, float, float]]:
    """(a, b, d) of every [[a, b], [c, d]] in the (..., 2, 2) stack ``H``; c is not read."""
    return [(a, b, d) for a, b, _, d in np.asarray(H, dtype=float).reshape(-1, 4).tolist()]


def _larger_rescaled(v_a: tuple, v_b: tuple) -> tuple[tuple, float]:
    """Of two 2-vectors divided by their largest entry, the longer and its squared norm.

    Both are nan when that entry is not finite (a non-finite input), so the
    caller's normalisation never divides by zero.
    """
    s = max(map(abs, v_a + v_b))
    if not s < math.inf:
        return _NAN2, math.nan
    v_a = (v_a[0] / s, v_a[1] / s)
    v_b = (v_b[0] / s, v_b[1] / s)
    vv_a = v_a[0] * v_a[0] + v_a[1] * v_a[1]
    vv_b = v_b[0] * v_b[0] + v_b[1] * v_b[1]
    return (v_a, vv_a) if vv_a >= vv_b else (v_b, vv_b)


def _set_unit_eigvecs(V: list, pending: list, dots: list) -> None:
    """Set V[j] for every (j, v_a, v_b) in ``pending`` from the candidates
    and their squared norms (vv_a, vv_b) in ``dots``: row-major, the longer
    candidate normalised and its perpendicular as V's columns."""
    for (j, v_a, v_b), (vv_a, vv_b) in zip(pending, dots):
        v, vv = (v_a, vv_a) if vv_a >= vv_b else (v_b, vv_b)
        if not _TINY <= vv < math.inf:
            v, vv = _larger_rescaled(v_a, v_b)
        norm = math.sqrt(vv)
        e0 = v[0] / norm
        e1 = v[1] / norm
        V[j] = (e0, -e1, e1, e0)  # columns: e and its perpendicular


def _eigs(rows) -> tuple[list, list]:
    """Closed-form eigendecomposition of every symmetric (a, b, d) row, as lists.

    Returns per pair (lam1, lam2), ordered by descending absolute value (ties
    broken by descending signed value), and the row-major entries of V, whose
    columns are the matching orthonormal eigenvectors.

    The branches (diagonal input, eigenvalue order, eigenvector candidate)
    run on Python floats; the steps whose rounding belongs to a library
    routine run once for all pairs: one ``np.hypot``, and the candidates'
    squared norms as one stacked (n, 1, 2) @ (n, 2, 1) matmul, the ddot of a
    1-d ``v @ v`` (``np.linalg.norm(v)`` is ``sqrt(v @ v)``, so the chosen
    candidate's dot also gives its norm).

    A chosen squared norm that is not a normal number (a candidate below
    about 1e-154 or above 1e154) is recomputed from both candidates rescaled
    by their largest entry, so V stays orthonormal at any finite scale.
    """
    off = [(0.5 * (a - d), b) for a, b, d in rows if b != 0.0]
    disc = np.hypot(*zip(*off)).tolist() if off else []
    lam = []
    V = []
    pending = []  # (pair, candidates) of the non-diagonal pairs
    for a, b, d in rows:
        if b == 0.0:
            # Already diagonal; eigenvectors are the axes.
            if (abs(a), a) >= (abs(d), d):
                lam.append((a, d))
                V.append(_EYE2)
            else:
                lam.append((d, a))
                V.append(_SWAP2)
            continue
        half_tr = 0.5 * (a + d)
        r = disc[len(pending)]  # off and disc list the non-diagonal pairs in order
        hi = half_tr + r
        lo = half_tr - r
        # hi >= lo always; put the larger magnitude first (signed ties keep hi).
        lam1, lam2 = (lo, hi) if abs(lo) > abs(hi) else (hi, lo)
        # Eigenvector for lam1 from (A - lam1 I) v = 0; of the two candidate
        # rows pick the one with the larger norm for stability.
        pending.append((len(V), (b, lam1 - a), (lam1 - d, b)))
        lam.append((lam1, lam2))
        V.append(None)
    if pending:
        cand = np.array([x for _, v_a, v_b in pending for x in v_a + v_b]).reshape(-1, 1, 2)
        # Candidate entries are at most 2 * disc, so below _BIG no squared
        # norm overflows; above it the rescaled path below takes over.
        quiet = max(disc) < _BIG
        with contextlib.nullcontext() if quiet else np.errstate(over="ignore", invalid="ignore"):
            dots = (cand @ cand.transpose(0, 2, 1)).reshape(-1, 2).tolist()
        _set_unit_eigvecs(V, pending, dots)
    return lam, V


def _repair_one(a: float, b: float, d: float, kappa: float) -> tuple[list, list, list]:
    """:func:`_repair` of one non-diagonal row (b != 0), with the same
    library routines called once each: a scalar ``np.hypot``, the
    candidates' squared norms as two 1-d ``ndarray.dot`` ddots, and
    ``(V * lam_bar) @ V.T`` as one 2-d ``ndarray.dot`` gemm."""
    r = float(np.hypot(0.5 * (a - d), b))
    half_tr = 0.5 * (a + d)
    hi = half_tr + r
    lo = half_tr - r
    lam1, lam2 = (lo, hi) if abs(lo) > abs(hi) else (hi, lo)  # as in _eigs
    v_a = (b, lam1 - a)
    v_b = (lam1 - d, b)
    c_a = np.array(v_a)
    c_b = np.array(v_b)
    with contextlib.nullcontext() if r < _BIG else np.errstate(over="ignore", invalid="ignore"):
        dots = [(float(c_a.dot(c_a)), float(c_b.dot(c_b)))]
    V = [None]
    _set_unit_eigvecs(V, [(0, v_a, v_b)], dots)
    v00, v01, v10, v11 = v = V[0]
    l1 = max(abs(lam1), kappa)
    l2 = max(abs(lam2), kappa)
    VL, Vs = np.array((v00 * l1, v01 * l2, v10 * l1, v11 * l2) + v).reshape(2, 2, 2)
    return [VL.dot(Vs.T).ravel().tolist()], [v], [(l1, l2)]


def _repair(rows, kappa: float) -> tuple[list, list, list]:
    """:func:`make_pd` of every (a, b, d) row: row-major A_bar, V and lam_bar.

    A non-diagonal pair's A_bar is ``(V * lam_bar) @ V.T``, with ``V * lam_bar``
    formed on Python floats and the product as one stacked matmul for all such
    pairs, the gemm of the 2-d expression. For a diagonal pair (b == 0) that
    product has exact zeros and ones in V, so it is
    diag(max(|a|, kappa), max(|d|, kappa)) exactly and costs no gemm (an
    infinite eigenvalue, where the gemm would put nan off the diagonal, fails
    the adjugate either way). One non-diagonal row alone takes
    :func:`_repair_one`. ``kappa`` is taken as checked finite and
    positive, by :func:`make_pd` or ``ZosahConfig``.
    """
    if len(rows) == 1 and rows[0][1] != 0.0:
        return _repair_one(*rows[0], kappa)
    lam, V = _eigs(rows)
    lam_bar = []
    A_bar = []
    VL = []
    Vs = []
    pending = []
    for (l1, l2), v, (_, b, _) in zip(lam, V, rows):
        l1 = max(abs(l1), kappa)
        l2 = max(abs(l2), kappa)
        lam_bar.append((l1, l2))
        if b == 0.0:
            A_bar.append((l1, 0.0, 0.0, l2) if v is _EYE2 else (l2, 0.0, 0.0, l1))
            continue
        v00, v01, v10, v11 = v
        pending.append(len(A_bar))
        A_bar.append(None)
        VL += (v00 * l1, v01 * l2, v10 * l1, v11 * l2)
        Vs += v
    if pending:
        VL, Vs = np.array(VL + Vs).reshape(2, -1, 2, 2)
        for j, a in zip(pending, (VL @ Vs.transpose(0, 2, 1)).reshape(-1, 4).tolist()):
            A_bar[j] = a
    return A_bar, V, lam_bar


def make_pd(A: np.ndarray, kappa: float) -> np.ndarray:
    """Positive-definite repair: eigenvalues become max(|lam_i|, kappa).

    Keeps the eigenvectors, flips negative curvature to its magnitude, and
    floors everything at kappa, so the result is symmetric with both
    eigenvalues >= kappa.
    """
    _require_positive("kappa", kappa)
    return np.array(_repair(_rows(A), kappa)[0][0]).reshape(2, 2)


def _adjugate(A_bar: list, g_rows) -> tuple[list, list[int]]:
    """Solve A_bar[j] w = g[j] for every row-major A_bar via the 2x2 adjugate.

    Returns the solutions and the pairs where the adjugate fails: a
    determinant that is not positive and finite (their rows hold nan) or a
    non-finite solution.
    """
    w = []
    failed = []
    for j, ((a, b, _, d), (g0, g1)) in enumerate(zip(A_bar, g_rows)):
        det = a * d - b * b
        if 0.0 < det < math.inf:
            w0 = (d * g0 - b * g1) / det
            w1 = (a * g1 - b * g0) / det
            w.append((w0, w1))
            if math.isfinite(w0) and math.isfinite(w1):
                continue
        else:
            w.append(_NAN2)
        failed.append(j)
    return w, failed


def newton_direction(A_bar: np.ndarray, g_hat: np.ndarray) -> np.ndarray:
    """Solve A_bar w = g_hat for a positive-definite 2x2 via the adjugate.

    Returns nan when A_bar is not numerically positive definite.
    """
    A_bar = np.asarray(A_bar, dtype=float).reshape(1, 4).tolist()
    return np.array(_adjugate(A_bar, [np.asarray(g_hat, dtype=float).tolist()])[0][0])


def _newton_rows(rows, g_rows, kappa: float) -> list[tuple[float, float]]:
    """``newton_direction(make_pd(A, kappa), g)`` of every (a, b, d) row and (g0, g1) row.

    Where the adjugate fails (a repaired condition number above 1/machine
    epsilon) the direction is V diag(1/lam_bar) V^T g, finite if g / kappa is.
    One non-diagonal row alone is repaired by :func:`_repair_one`, whose
    scalar and 2-d library calls give its stacked bits in 8.9 us against
    12.9 us per call; a diagonal row (b == +-0.0) costs no numpy call either
    way.
    """
    A_bar, V, lam_bar = _repair(rows, kappa)
    w, failed = _adjugate(A_bar, g_rows)
    if failed:
        Vf = np.array(V).reshape(-1, 2, 2)[failed]
        gf = np.array(g_rows, dtype=float)[failed, :, None]
        lf = np.array(lam_bar)[failed, :, None]
        for j, wj in zip(failed, (Vf @ ((Vf.transpose(0, 2, 1) @ gf) / lf))[..., 0].tolist()):
            w[j] = tuple(wj)
    return w


def _require_fd_eps(eps: float) -> None:
    """Reject a positive eps whose square, the fd rows' divisor, underflows to 0."""
    if eps * eps == 0.0:
        raise ValueError(
            f"eps must be at least about 1.6e-162 in fd mode, below which eps * eps "
            f"underflows to 0, got {eps:g}"
        )


def _fd_rows(
    oracle: CountedOracle,
    x: np.ndarray,
    lift: np.ndarray,
    theta: np.ndarray,
    steps: np.ndarray,
    eps: float,
    f_x: float,
    f_probes,
) -> list[tuple[float, float, float]]:
    """:func:`fd_subspace_hessian` of the P pairs ``idx`` as (a11, a12, a22) rows,
    given ``lift = _lift_index(idx, x.size, 3, by_probe=True)``,
    ``theta = x[idx]``, ``steps = eps * _FD_STEPS`` and the gradient probe
    values as (f1, f2) rows of Python floats; 3P queries.

    The probes are queried probe by probe: every pair's 2 eps e1, then every
    pair's 2 eps e2, then every pair's eps e1 + eps e2. On the logistic
    objective each axis probe then moves one coordinate from x, the kept
    point, and takes the row path; a mixed probe moves two, is a full
    evaluation and becomes the kept point, so the mixed probes come last.
    With one pair the order is the pair's own."""
    f = _probe(oracle, x, lift, theta[:, None, :] + steps, "curvature probe")
    p = len(f_probes)
    eps2 = eps * eps
    rows = []
    for j, (f1, f2) in enumerate(f_probes):
        f_2e1, f_2e2, f_e1e2 = f[j], f[p + j], f[2 * p + j]
        rows.append((
            (f_2e1 - 2.0 * f1 + f_x) / eps2,
            (f_e1e2 - f1 - f2 + f_x) / eps2,
            (f_2e2 - 2.0 * f2 + f_x) / eps2,
        ))
    return rows


def fd_subspace_hessian(
    oracle: CountedOracle,
    x: np.ndarray,
    p: PairProjection,
    eps: float,
    f_x: float,
    f_probe1: float,
    f_probe2: float,
) -> np.ndarray:
    """Coordinate finite-difference 2x2 curvature of one pair (cache-free ablation).

    Reuses the gradient probe values f(theta + eps e1), f(theta + eps e2) and
    pays exactly 3 new queries: f(theta + 2 eps e1), f(theta + 2 eps e2), and
    f(theta + eps e1 + eps e2).
    """
    _require_positive("eps", eps)
    _require_fd_eps(eps)
    x = np.asarray(x, dtype=float)
    idx = np.array([p.pair])
    lift = _lift_index(idx, x.size, 3)  # one pair: the by-probe order is its own
    f_probes = [(float(f_probe1), float(f_probe2))]
    ((a, b, d),) = _fd_rows(oracle, x, lift, x[idx], eps * _FD_STEPS, eps, f_x, f_probes)
    return np.array([[a, b], [b, d]])
