"""Gradient and curvature estimation for 2-d coordinate slices.

The slice gradient is measured with two forward differences sharing the
already-known value at the current point. The 2x2 curvature matrix comes from
a least-squares fit of a quadratic model to nearby function values: with the
current point mapped to the origin and the constant and linear terms pinned
to f(theta) and the measured gradient, each sample contributes one row of
second-order monomials. The fitted matrix is then eigen-decomposed in closed
form and repaired to be positive definite so the resulting Newton direction
always points downhill for the local model.

The optimizer works on all P pairs of a plan at once: ``estimate_gradients``
and ``fd_hessians`` build every pair's probe points as one (P, n, 2) array,
which ``probe_values`` lifts and queries, and ``fit_hessians`` fits every
pair's model in one stacked pass (monomial design, pinned targets, Gram
matrix, eigenvalue floor test, ridge, one stacked solve). The per-pair
functions (``estimate_gradient``, ``build_fit_system`` + ``solve_hessian``,
``fd_subspace_hessian``) give the same bits. The PD repair and the Newton
solve stay per pair: for a 2x2, scalar arithmetic costs a few numpy calls
where a batched repair costs about thirty, which loses when P is small.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .oracle import CountedOracle
from .subspace import PairProjection

__all__ = [
    "GAMMA_FLOOR",
    "GradientEstimate",
    "FitSystem",
    "InsufficientSamplesError",
    "HessianUnavailableError",
    "probe_values",
    "estimate_gradient",
    "estimate_gradients",
    "quad_monomials",
    "build_fit_system",
    "solve_hessian",
    "fit_hessians",
    "eig2x2",
    "make_pd",
    "newton_direction",
    "fd_subspace_hessian",
    "fd_hessians",
]

# Conditioning floor for the fit's 3x3 Gram matrix; below it the solve
# switches to a ridge fallback.
GAMMA_FLOOR = 1e-10


_EYE3 = np.eye(3)
# Slice displacements, per unit eps, of the gradient probes and of the
# finite-difference curvature probes.
_GRAD_STEPS = np.eye(2)
_FD_STEPS = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
# quad_monomials column c is _MONO_COEF[c] * t[_MONO_A[c]] * t[_MONO_B[c]].
_MONO_COEF = np.array([0.5, 1.0, 0.5])
_MONO_A = np.array([0, 0, 1])
_MONO_B = np.array([0, 1, 1])
# Fitted parameters h -> row-major symmetric [[h0, h1], [h1, h2]].
_SYM_2X2 = np.array([0, 1, 1, 2])


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
    epsilon: float


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


def probe_values(
    oracle: CountedOracle,
    x: np.ndarray,
    idx: np.ndarray,
    points: np.ndarray,
    what: str = "probe",
) -> np.ndarray:
    """Query f at x with pair j's coordinates ``idx[j]`` set to ``points[j, r]``.

    ``idx`` is the (P, 2) array of pair coordinates and ``points`` the
    (P, n, 2) absolute slice coordinates; returns the (P, n) values, queried
    pair by pair in row order (P * n queries). To query what
    :meth:`PairProjection.lift` would build from a displacement delta, pass
    ``x[idx] + delta``. Raises FloatingPointError naming ``what`` if any value
    is non-finite.
    """
    n_pairs, n, _ = points.shape
    queried = np.asarray(x, dtype=float)[None, :].repeat(n_pairs * n, axis=0)
    rows = np.arange(n_pairs)[:, None]
    queried.reshape(n_pairs, n, -1)[rows, :, idx] = points.transpose(0, 2, 1)
    values = np.fromiter(map(oracle, queried), dtype=float, count=n_pairs * n)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise FloatingPointError(f"objective returned non-finite value {bad} at a {what}")
    return values.reshape(n_pairs, n)


def estimate_gradients(
    oracle: CountedOracle,
    x: np.ndarray,
    idx: np.ndarray,
    eps: float,
    f_x: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-point forward-difference gradients of every pair in ``idx`` (P, 2).

    ``f_x`` is the already-paid value at x, so this costs exactly 2P queries.
    Returns ``(g, points, values)``: the (P, 2) slice gradients, the probes'
    absolute slice coordinates theta + eps*e_i as (P, 2, 2), and their (P, 2)
    f-values, ready to bank for later curvature fits.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=float)
    points = x[idx][:, None, :] + eps * _GRAD_STEPS
    values = probe_values(oracle, x, idx, points, "gradient probe")
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
    g, points, values = estimate_gradients(oracle, x, np.array([p.pair]), eps, f_x)
    probes = tuple((points[0, i], float(values[0, i])) for i in range(2))
    return GradientEstimate(g[0], probes, eps)


def quad_monomials(theta_bar: np.ndarray) -> np.ndarray:
    """Second-order monomials [t1*t1/2, t1*t2, t2*t2/2] of slice points.

    Maps a (..., 2) array of points to a C-contiguous (..., 3) array (a
    fancy index on the last axis would not be, and would take matmul off
    BLAS); each entry is (c * t_a) * t_b, the same roundings for any shape.
    """
    tb = np.asarray(theta_bar, dtype=float)
    return (_MONO_COEF * np.take(tb, _MONO_A, axis=-1)) * np.take(tb, _MONO_B, axis=-1)


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


def solve_hessian(
    sys: FitSystem,
    gamma_floor: float = GAMMA_FLOOR,
    ridge: float | None = None,
) -> np.ndarray:
    """Solve the normal equations and arrange the solution as a symmetric 2x2.

    Solves phi^T phi h = phi^T q exactly when the Gram matrix clears
    ``gamma_floor``; otherwise retries with a small ridge (default
    1e-8 * trace/3). Raises :class:`HessianUnavailableError` if even that
    fails, signalling the caller to fall back to a scaled gradient step.
    """
    gram = sys.phi.T @ sys.phi
    rhs = sys.phi.T @ sys.q
    try:
        if sys.min_eig_gram >= gamma_floor:
            h = np.linalg.solve(gram, rhs)
        else:
            if ridge is None:
                ridge = 1e-8 * float(np.trace(gram)) / 3.0
            h = np.linalg.solve(gram + ridge * np.eye(3), rhs)
    except np.linalg.LinAlgError as exc:
        raise HessianUnavailableError(str(exc)) from None
    if not np.all(np.isfinite(h)):
        raise HessianUnavailableError("non-finite fit solution")
    return np.array([[h[0], h[1]], [h[1], h[2]]])


def fit_hessians(
    theta_bar: np.ndarray,
    values: np.ndarray,
    g_hat: np.ndarray,
    f_theta: float,
    gamma_floor: float = GAMMA_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`build_fit_system` and :func:`solve_hessian` for P pairs at once.

    ``theta_bar`` (P, s, 2) holds each pair's samples relative to its current
    slice point, ``values`` (P, s) their f-values and ``g_hat`` (P, 2) the
    pairs' gradients. Returns ``(H, failed)``: the (P, 2, 2) fitted matrices
    and a (P,) mask of the pairs the per-pair path rejects (fewer than 3
    samples, a singular or non-finite system, a non-finite solution). A
    failed pair's matrix is meaningless; the caller falls back to kappa*I.

    Every accepted pair's matrix has the bits of the per-pair path: stacked
    ``matmul``, ``eigvalsh`` and ``solve`` call the per-matrix BLAS or LAPACK
    routine the 2-d calls use, provided that each 2-element dot goes through
    a (..., 1, 2) @ (..., 2, 1) matmul (ddot, as ``g_hat @ tb``; elementwise
    products and a stacked gemv round differently) and every matmul operand
    is C-contiguous or a transpose of one (otherwise numpy leaves BLAS).
    """
    theta_bar = np.ascontiguousarray(theta_bar, dtype=float)
    n_pairs, s, _ = theta_bar.shape
    if s < 3:
        return np.zeros((n_pairs, 2, 2)), np.ones(n_pairs, dtype=bool)
    phi = quad_monomials(theta_bar)
    lin = np.ascontiguousarray(g_hat, dtype=float)[:, None, None, :] @ theta_bar[..., None]
    q = values - lin[..., 0, 0] - f_theta
    phi_t = phi.transpose(0, 2, 1)
    gram = phi_t @ phi
    rhs = phi_t @ q[..., None]
    failed = np.zeros(n_pairs, dtype=bool)
    try:
        min_eig = np.linalg.eigvalsh(gram)[:, 0]
    except np.linalg.LinAlgError:  # a non-finite Gram matrix fails the whole stack
        failed = ~np.isfinite(gram).all(axis=(1, 2))
        gram[failed] = _EYE3
        min_eig = np.linalg.eigvalsh(gram)[:, 0]
    exact = min_eig >= gamma_floor
    system = gram
    if not exact.all():
        trace = gram[:, 0, 0] + gram[:, 1, 1] + gram[:, 2, 2]  # np.trace's order
        ridge = 1e-8 * trace / 3.0
        system = np.where(exact[:, None, None], gram, gram + ridge[:, None, None] * _EYE3)
    try:
        h = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError:  # one singular system fails the stack: retry per pair
        h = np.full((n_pairs, 3), np.nan)
        for j in range(n_pairs):
            with contextlib.suppress(np.linalg.LinAlgError):
                h[j] = np.linalg.solve(system[j], rhs[j, :, 0])
    failed |= ~np.isfinite(h).all(axis=1)
    return h[:, _SYM_2X2].reshape(n_pairs, 2, 2), failed


def eig2x2(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    Returns (lam, V): eigenvalues ordered by descending absolute value
    (ties broken by descending signed value) and the matching orthonormal
    eigenvectors as columns of V.
    """
    a = float(A[0, 0])
    b = float(A[0, 1])
    d = float(A[1, 1])

    if b == 0.0:
        # Already diagonal; eigenvectors are the axes.
        if (abs(a), a) >= (abs(d), d):
            return np.array([a, d]), np.eye(2)
        return np.array([d, a]), np.array([[0.0, 1.0], [1.0, 0.0]])

    half_tr = 0.5 * (a + d)
    disc = float(np.hypot(0.5 * (a - d), b))
    hi = half_tr + disc
    lo = half_tr - disc
    # hi >= lo always; put the larger magnitude first (signed ties keep hi).
    lam1, lam2 = (lo, hi) if abs(lo) > abs(hi) else (hi, lo)

    # Eigenvector for lam1 from (A - lam1 I) v = 0; of the two candidate rows
    # pick the one with the larger norm for stability.
    v_a = np.array([b, lam1 - a])
    v_b = np.array([lam1 - d, b])
    v = v_a if v_a @ v_a >= v_b @ v_b else v_b
    e1 = v / np.linalg.norm(v)
    e2 = np.array([-e1[1], e1[0]])  # perpendicular; the other eigenvector
    return np.array([lam1, lam2]), np.column_stack([e1, e2])


def make_pd(A: np.ndarray, kappa: float = 0.1) -> np.ndarray:
    """Positive-definite repair: eigenvalues become max(|lam_i|, kappa).

    Keeps the eigenvectors, flips negative curvature to its magnitude, and
    floors everything at kappa, so the result is symmetric with both
    eigenvalues >= kappa.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    lam, V = eig2x2(A)
    lam_bar = np.maximum(np.abs(lam), kappa)
    return (V * lam_bar) @ V.T


def newton_direction(A_bar: np.ndarray, g_hat: np.ndarray) -> np.ndarray:
    """Solve A_bar w = g_hat for a positive-definite 2x2 via the adjugate."""
    a = float(A_bar[0, 0])
    b = float(A_bar[0, 1])
    d = float(A_bar[1, 1])
    det = a * d - b * b
    g0 = float(g_hat[0])
    g1 = float(g_hat[1])
    return np.array([(d * g0 - b * g1) / det, (a * g1 - b * g0) / det])


def fd_hessians(
    oracle: CountedOracle,
    x: np.ndarray,
    idx: np.ndarray,
    eps: float,
    f_x: float,
    f_probes: np.ndarray,
) -> np.ndarray:
    """Coordinate finite-difference 2x2 curvature of every pair in ``idx``.

    ``f_probes`` (P, 2) are the gradient probe values f(theta + eps e1),
    f(theta + eps e2); this pays exactly 3P new queries, per pair
    f(theta + 2 eps e1), f(theta + 2 eps e2) and f(theta + eps e1 + eps e2),
    and returns the (P, 2, 2) matrices.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=float)
    points = x[idx][:, None, :] + eps * _FD_STEPS
    f = probe_values(oracle, x, idx, points, "curvature probe")
    eps2 = eps * eps
    H = np.empty((len(idx), 4))
    H[:, ::3] = (f[:, :2] - 2.0 * f_probes + f_x) / eps2  # a11, a22
    H[:, 1:3] = ((f[:, 2] - f_probes[:, 0] - f_probes[:, 1] + f_x) / eps2)[:, None]  # a12
    return H.reshape(-1, 2, 2)


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
    f_probes = np.array([[f_probe1, f_probe2]], dtype=float)
    return fd_hessians(oracle, x, np.array([p.pair]), eps, f_x, f_probes)[0]
