"""Coarse Ricci curvature of diffusions: the pair formula, its directional
limit, the constrained variant for geodesically invariant tensor fields,
and a direct Monte Carlo estimator from the Wasserstein definition.

kappa(x, y) = -l1.F(x) - l2.F(y) - (1/2)(q1:A(x) + q2:A(y))
              + tr sqrt(A(x) q12 A(y) q12^T)

with the distance jet in the normalized convention of manifolds.DistanceJet.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coupling import _check_invertible, tr_sqrt_sandwich
from .errors import (
    CutLocusRiskWarning,
    HViolationError,
    InputError,
    NonPositiveSpectrumError,
    TermMismatchError,
)
from .fields import DiffusionSpec, h_residual
from .manifolds import (EUCLIDEAN, HYPERBOLIC, ModelManifold, Point, TangentVector, _philox,
                        _scipy_routine)

_EPS = float(np.finfo(float).eps)
_UNIT_TOL = 1e-9  # relative miss allowed in a direction's norm near the pole,
_UNIT_ULPS = 64  # and in eps per (x_t/r)^2 far out on the hyperboloid
_H_TOL = 1e-8  # admissibility residual allowed, relative to |A(x)|, before
               # the constrained curvature is considered undefined
_ROW_CAP = 1 << 14  # rows the direct estimator steps together
_NOISE_FLOATS = 1 << 16  # numbers in its noise buffer (512 KB; more buys nothing)
_CLOUD_CAP = 4096  # points per cloud; the assignment's cost matrix is then at
                   # most 128 MB, and building it takes 2-3 times that (dist_many
                   # sums a column at a time up to an ambient dimension of 7).
                   # One cost matrix is alive at a time (Bellman-Ford copies
                   # the first cloud's once), and the warm start's distance
                   # matrix is dropped before the cost is built


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Curvature value with its additive term breakdown.

    terms always carries drift_term, riemann_term and gradient_A_penalty and
    sums to kappa; for pair curvatures riemann_term holds the whole
    jet-quadratic contribution (trace terms plus the transport gain).
    magnitude is the sum of the absolute values of the parts that kappa and
    the terms were added up from (by default the terms').  kappa and the sum
    of the terms are each at most three additions of those parts, and each
    addition rounds by at most eps/2 * magnitude, so they may differ by
    4 eps * magnitude and no more.
    """

    kappa: float
    terms: dict
    location: tuple
    magnitude: float | None = None

    def __post_init__(self):
        total = sum(self.terms.values())
        size = (sum(abs(v) for v in self.terms.values()) if self.magnitude is None
                else self.magnitude)
        if not abs(total - self.kappa) <= 4.0 * _EPS * size:  # NaN fails too
            raise TermMismatchError(f"term breakdown sums to {total!r}, not to kappa = "
                                    f"{self.kappa!r}")


def _lyapunov_solve(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Solve A N + N A = M for symmetric positive definite A (eigenbasis)."""
    w, v = np.linalg.eigh(A)
    if w.min() <= 0:
        raise NonPositiveSpectrumError("Lyapunov solve needs a positive definite matrix")
    Mt = v.T @ M @ v
    Nt = Mt / (w[:, None] + w[None, :])
    return v @ Nt @ v.T


def _pair_terms(spec: DiffusionSpec, jet) -> tuple[np.ndarray, np.ndarray, float, float]:
    """A(x) and A(y) in the jet's frames, the drift term and the jet-quadratic
    trace term of the pair curvatures at the jet's points."""
    m = spec.manifold
    A_x = spec.diffusion.matrix(jet.x, jet.frame_x)
    A_y = spec.diffusion.matrix(jet.y, jet.frame_y)
    fx = m.to_frame(jet.frame_x, spec.drift.vector(jet.x))
    fy = m.to_frame(jet.frame_y, spec.drift.vector(jet.y))
    drift_term = -float(jet.l1 @ fx) - float(jet.l2 @ fy)
    quad = -0.5 * (float(np.sum(jet.q1 * A_x)) + float(np.sum(jet.q2 * A_y)))
    return A_x, A_y, drift_term, quad


def _pair_kappa(jet, A_x, A_y, drift_term: float, quad: float) -> tuple[float, float]:
    """kappa_pair's value from the jet and its _pair_terms, and the transport gain."""
    gain = tr_sqrt_sandwich(A_x, jet.q12, A_y)
    return drift_term + quad + gain, gain


def kappa_pair(spec: DiffusionSpec, x: Point, y: Point) -> CurvatureReport:
    """Coarse Ricci curvature between two distinct points."""
    jet = spec.manifold.distance_jet(x, y)
    A_x, A_y, drift_term, quad = _pair_terms(spec, jet)
    kappa, gain = _pair_kappa(jet, A_x, A_y, drift_term, quad)
    return CurvatureReport(
        kappa=kappa,
        terms={"drift_term": drift_term, "riemann_term": quad + gain, "gradient_A_penalty": 0.0},
        location=(x, y),
        magnitude=abs(drift_term) + abs(quad) + abs(gain),
    )


def h_check(spec: DiffusionSpec, x: Point, u: TangentVector) -> tuple[float, bool]:
    """The geodesic-invariance residual at (x, u), a derivative along a unit
    vector, and whether it is <= _H_TOL |A(x)|_F / r."""
    res = h_residual(spec, x, u)
    size = np.linalg.norm(spec.diffusion.matrix(x, spec.manifold.frame(x)))
    return res, bool(res <= _H_TOL * size / spec.manifold.radius)


def _check_h(spec: DiffusionSpec, x: Point, u: TangentVector):
    res, ok = h_check(spec, x, u)
    if not ok:
        raise HViolationError(f"admissibility residual {res:.3e} exceeds {_H_TOL:.0e} times |A(x)|/r")


def _dir_terms(spec: DiffusionSpec, x: Point,
               u: TangentVector) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Check that u is a unit vector; then A and its derivative along u in the
    frame led by u, the drift term and the Riemann term of the directional
    curvatures.  On the hyperboloid u's Lorentz norm sums terms of size
    (x_t/r)^2 |u|^2, so the check allows that many times _UNIT_ULPS eps."""
    m = spec.manifold
    nu = m.norm(u)
    scale = (x.coords[-1] / m.radius) ** 2 if m.kind == HYPERBOLIC else 1.0
    if not math.isclose(nu, 1.0, rel_tol=max(_UNIT_TOL, _UNIT_ULPS * _EPS * scale)):
        raise InputError("direction must be a unit tangent vector")
    E = m.frame(x, first=u.components / nu)
    A = spec.diffusion.matrix(x, E)
    _check_invertible(np.linalg.eigvalsh(A))
    dA = spec.diffusion.derivative(x, E)
    drift_term = -spec.drift.du_uu(x, u)
    riemann_term = 0.5 * m.sectional_curvature * (float(np.trace(A)) - float(A[0, 0]))
    return A, dA, drift_term, riemann_term


def kappa_dir(spec: DiffusionSpec, x: Point, u: TangentVector) -> CurvatureReport:
    """Directional coarse Ricci curvature (the limit of kappa_pair along the
    geodesic in direction u)."""
    A, dA, drift_term, riemann_term = _dir_terms(spec, x, u)
    if spec.manifold.dim > 1:
        Abar = A[1:, 1:]
        Mbar = dA[1:, 1:]
        N = _lyapunov_solve(Abar, Mbar)
        penalty = -0.25 * float(np.sum(Mbar * N))
    else:
        penalty = 0.0
    return CurvatureReport(
        kappa=drift_term + riemann_term + penalty,
        terms={"drift_term": drift_term, "riemann_term": riemann_term,
               "gradient_A_penalty": penalty},
        location=(x, u),
    )


def kappa_dir_by_limit(spec: DiffusionSpec, x: Point, u: TangentVector,
                       deltas=(0.1, 0.05, 0.025)) -> float:
    """Extrapolation of kappa_pair(x, exp_x(delta u)) to delta -> 0 by
    polynomial (Neville) extrapolation over a ladder of delta in (0, cut
    threshold) whose images are on the space (ModelManifold._on_space)."""
    deltas = sorted(set(float(d) for d in deltas), reverse=True)
    if len(deltas) < 1:
        raise InputError("need at least one delta")
    if not all(0.0 < d < spec.manifold.cut_threshold for d in deltas):  # NaN, inf fail too
        raise InputError(f"each delta must lie in (0, {spec.manifold.cut_threshold:.17g})")
    m, ys = spec.manifold, []
    for d in deltas:  # every delta is checked before any kappa is computed
        with np.errstate(over="ignore", invalid="ignore"):  # a bad image is reported below
            y = m.exp_many(x.coords, d * u.components)
            if not (m._on_space(y) and np.isfinite(m.dist_many(x.coords, y))):
                raise InputError(f"delta {d!r} takes exp_x(delta u) off the space")
        ys.append(Point(m, y))
    return _neville_at_zero(np.asarray(deltas), np.asarray([kappa_pair(spec, x, y).kappa for y in ys]))


def _neville_at_zero(xs: np.ndarray, ys: np.ndarray) -> float:
    n = len(xs)
    tab = ys.astype(float).copy()
    for k in range(1, n):
        for i in range(n - k):
            tab[i] = (xs[i + k] * tab[i] - xs[i] * tab[i + 1]) / (xs[i + k] - xs[i])
    return float(tab[0])


def kappa_tilde_dir(spec: DiffusionSpec, x: Point, u: TangentVector) -> CurvatureReport:
    """Directional curvature of the variance-cancelling coupling, defined
    when the diffusion tensor is geodesically invariant in direction u.
    Reproduces the paper's curvature of the coupling that cancels the distance's variance."""
    _check_h(spec, x, u)
    A, dA, drift_term, riemann_term = _dir_terms(spec, x, u)
    a00 = float(A[0, 0])
    term3 = -float(dA[:, 0] @ dA[:, 0]) / (2.0 * a00)
    if spec.manifold.dim > 1:
        Aprime = A - np.outer(A[:, 0], A[:, 0]) / a00
        B = dA - (np.outer(dA[:, 0], A[:, 0]) + np.outer(A[:, 0], dA[:, 0])) / a00
        Abar = Aprime[1:, 1:]
        Bbar = B[1:, 1:]
        N = _lyapunov_solve(Abar, Bbar)
        term4 = -0.25 * float(np.sum(Bbar * N))
    else:
        term4 = 0.0
    return CurvatureReport(
        kappa=drift_term + riemann_term + term3 + term4,
        terms={"drift_term": drift_term, "riemann_term": riemann_term,
               "gradient_A_penalty": term3 + term4},
        location=(x, u),
        magnitude=abs(drift_term) + abs(riemann_term) + abs(term3) + abs(term4),
    )


def kappa_tilde_pair(spec: DiffusionSpec, x: Point, y: Point) -> float:
    """Pair curvature of the variance-cancelling coupling: the transport gain
    splits into a rank-one part (fixed by cancelling the distance variance)
    plus the optimal gain over the reduced tensors.
    Reproduces the paper's curvature of that coupling at two points (see kappa_tilde_dir)."""
    jet = spec.manifold.distance_jet(x, y)
    _check_h(spec, x, jet.u_xy)
    A_x, A_y, drift_term, quad = _pair_terms(spec, jet)
    c0 = np.outer(A_x[:, 0], A_y[:, 0]) / float(A_x[0, 0])
    cross = -float(np.sum(c0 * jet.q12))
    Axp = A_x - np.outer(A_x[:, 0], A_x[:, 0]) / float(A_x[0, 0])
    Ayp = A_y - np.outer(A_y[:, 0], A_y[:, 0]) / float(A_y[0, 0])
    gain = tr_sqrt_sandwich(Axp, jet.q12, Ayp)
    return drift_term + quad + cross + gain


def sqrt_perturbation_traces(M, N) -> tuple[float, float]:
    """First- and second-order coefficients of tr sqrt(M^2 + eps N) around
    eps = 0, for M with positive eigenvalues.
    Reproduces the paper's second-order expansion of the trace of a perturbed square root."""
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    if M.shape != N.shape or M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("M and N must be square matrices of equal shape")
    scale = max(float(np.abs(M).max()), 1.0)
    if np.abs(M - M.T).max() <= 1e-12 * scale:
        lam, v = np.linalg.eigh(0.5 * (M + M.T))
        Nt = v.T @ N @ v
    else:
        w, v = np.linalg.eig(M)
        if np.abs(w.imag).max() > 1e-10 * scale:
            raise NonPositiveSpectrumError("M must have real positive eigenvalues")
        lam = w.real
        Nt = np.linalg.solve(v, N @ v).real
    if lam.min() <= 0:
        raise NonPositiveSpectrumError("M must have positive eigenvalues")
    tr_h = 0.5 * float(np.sum(np.diag(Nt) / lam))
    S = lam[:, None] + lam[None, :]
    tr_k = -float(np.sum(Nt * Nt.T / (4.0 * lam[:, None] * lam[None, :] * S)))
    return tr_h, tr_k


# ---------------------------------------------------------------------------
# direct Monte Carlo estimator of the definition


def estimate_kappa_direct(spec: DiffusionSpec, x: Point, y: Point,
                          t_ladder=(0.02, 0.01), samples: int = 4096,
                          seed: int = 0, batches: int = 16,
                          substeps: int = 200) -> tuple[float, tuple[float, float]]:
    """Monte Carlo estimate of (d(x,y) - W1(law_x(t), law_y(t))) / (t d(x,y)),
    extrapolated in t.

    W1 between equal-size empirical clouds is computed by exact optimal
    assignment.  The two clouds move by run_coupled's coupled step, so they
    share their noise (transported along the connecting geodesics on curved
    spaces): the marginal laws are unaffected, while the assignment
    estimator loses the order-statistic bias that independent clouds suffer
    in dimension >= 2.  The clouds of every (t, batch) step as one stacked,
    column-major block of rows through the kernel, each row with its t's step
    size, in groups of whole clouds and at most _ROW_CAP rows; each cloud
    draws from its own stream, into a column-major noise buffer of at most
    _NOISE_FLOATS numbers or one step's.  A cloud holds samples // batches
    points, at most _CLOUD_CAP, since the assignment's cost matrix grows with
    its square (up to ambient dimension 7 without a k-times larger broadcast).
    The clouds are solved one after another on the calling thread, so one
    cost matrix is alive at a time.  The first is solved on its centred cost;
    every later one, at every t, on its cost shifted by the c-transform of
    the first's Kantorovich potentials (_warm_start), or centred if those
    cannot be recovered.  W1 is the mean distance over the chosen pairs, so
    it never depends on the shift.
    Returns (estimate, (lo, hi)); the interval combines a 95% normal CI
    from the batch spread with the size of the Richardson correction (a
    conservative gauge of the remaining O(t^2) truncation).
    """
    from .simulate import (  # import cycle
        _check_step, _coupled_step, _noise_steps, _pairs, _Scratch, _step)

    m = spec.manifold
    t_ladder = sorted(set(float(t) for t in t_ladder), reverse=True)
    if len(t_ladder) < 1:
        raise InputError("need at least one t value")
    if samples < batches or batches < 2 or substeps < 1:
        raise InputError("need samples >= batches >= 2 and substeps >= 1")
    if samples // batches > _CLOUD_CAP:
        raise InputError(f"the direct estimator takes at most {_CLOUD_CAP} points per cloud; "
                         f"{samples} samples in {batches} batches give {samples // batches}")
    d0 = m.distance(x, y)
    if d0 <= 0:
        raise InputError("points must be distinct")
    if spec.diffusion.constant_inverse_metric is None:
        raise InputError("the direct estimator supports metric-proportional diffusions")
    per, k = samples // batches, m.ambient_dim
    clouds = [(it, b) for it in range(len(t_ladder)) for b in range(batches)]
    crossed = False

    def stepped():
        nonlocal crossed
        size = max(1, _ROW_CAP // per)
        for g0 in range(0, len(clouds), size):
            group = clouds[g0:g0 + size]
            rngs = [_philox(seed, (it << 32) | b) for it, b in group]
            h = _step(spec, np.repeat([t_ladder[it] / substeps for it, _ in group], per)[:, None])
            s = _Scratch(np.empty((len(h.dt), k), order="F"))  # the group's own
            XY = s.both["X0"]  # X over Y; after a step XY and d are arrays of s
            XY[0], XY[1] = x.coords, y.coords
            d = m.dist_many(*XY)
            for z in _noise_steps(rngs, per, k, substeps, max(1, _NOISE_FLOATS // (len(d) * k))):
                with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
                    XY = _coupled_step(spec, _pairs(spec, *XY, d, s, XY), z, h)
                    d = m._dist(*XY, s, "d")
                top = float(d.max())
                _check_step(m, math.isfinite(top), XY)
                crossed = crossed or top > m.cut_threshold
            for j in range(len(group)):
                yield XY[0, j * per:(j + 1) * per], XY[1, j * per:(j + 1) * per]

    w1 = _cloud_w1s(m, stepped())
    kap = np.array([(d0 - w) / (t_ladder[it] * d0) for (it, _), w in zip(clouds, w1)])
    kap = kap.reshape(len(t_ladder), batches)
    if crossed:
        warnings.warn("sample paths approached the cut locus; estimate may be biased",
                      CutLocusRiskWarning)
    per_batch = np.array([_neville_at_zero(np.asarray(t_ladder), kap[:, b])
                          for b in range(batches)])
    est = float(per_batch.mean())
    se = float(per_batch.std(ddof=1) / math.sqrt(batches))
    trunc = abs(est - float(kap[-1].mean())) if len(t_ladder) > 1 else 0.0
    half = 1.96 * se + trunc
    return est, (est - half, est + half)


def _cloud_w1s(m: ModelManifold, clouds) -> list[float]:
    """_assignment_w1 of each cloud pair (X, Y) that `clouds` yields, in
    order, on the calling thread: the first on its centred cost, every later
    one shifted by the first's _warm_start."""
    out, shift = [], None
    for X, Y in clouds:
        w1, cols = _assignment_w1(m, X, Y, shift)
        if not out:
            shift = _warm_start(m, X, Y, cols)
        out.append(w1)
    return out


def linear_sum_assignment(cost: np.ndarray):
    """scipy.optimize.linear_sum_assignment (Crouse 2016), the very function,
    taken from its compiled module scipy.optimize._lsap (_scipy_routine): only
    the assignments need scipy.optimize, most of the package's import cost."""
    return _scipy_routine("optimize._lsap", "linear_sum_assignment", "scipy.optimize")(cost)


def _assignment_w1(m: ModelManifold, X: np.ndarray, Y: np.ndarray, shift=None):
    """Exact W1 between two equal-size empirical clouds, and the column
    assigned to each row (None on the line, which sorts).  The cost is
    dist_many less u_i + v_j, which keeps the optimal permutations: with a
    shift, u = shift(X), taken before the cost is built, and v_j the least
    entry of column j of the cost less u; else the row and then the column
    means (1.5-1.7x quicker solves than none).  W1 is the mean of dist_many
    over the chosen pairs, so it never depends on the shift: bit-equal when
    the permutation is, within rounding when a near-tie picks another."""
    if m.kind == EUCLIDEAN and m.dim == 1:
        return float(np.abs(np.sort(X[:, 0]) - np.sort(Y[:, 0])).mean()), None
    u = None if shift is None else shift(X)
    cost = m.dist_many(X[:, None, :], Y[None, :, :])
    if u is None:
        cost -= cost.mean(axis=1, keepdims=True)
        cost -= cost.mean(axis=0)
    else:
        cost -= u[:, None]
        cost -= cost.min(axis=0)
    rows, cols = linear_sum_assignment(cost)
    return float(m.dist_many(X[rows], Y[cols]).mean()), cols


def _warm_start(m: ModelManifold, X: np.ndarray, Y: np.ndarray, cols):
    """The row shift of the clouds after the first, X and Y with optimal
    assignment cols: the c-transform u(X'_i) = min_j d(X'_i, Y_j) - v_j of
    their exact column duals v (Villani 2009, ch. 5), its distance matrix
    dropped on return.  None (the centred cost) on the line (cols None) and
    when Bellman-Ford does not settle."""
    if cols is None:
        return None
    duals = _kantorovich_duals(m.dist_many(X[:, None, :], Y[None, :, :]), cols)
    if duals is None:
        return None
    v, Y = duals[1], Y.copy()  # the clouds may be views of the stepping's scratch

    def shift(Z):
        d = m.dist_many(Z[:, None, :], Y[None, :, :])
        d -= v
        return d.min(axis=1)

    return shift


def _kantorovich_duals(cost: np.ndarray, cols: np.ndarray):
    """Exact duals (u, v) of the assignment `cost` for its optimal permutation
    cols (u_i + v_j <= cost_ij up to rounding, equal at j = cols[i]), or None
    if Bellman-Ford over the edges cols[i] -> j of length cost_ij -
    cost_i,cols[i], all columns at once, has not settled after n rounds (a
    negative cycle of rounding).  Overwrites cost."""
    n = len(cols)
    diag = cost[np.arange(n), cols]
    cost -= diag[:, None]
    v, moved = np.zeros(n), np.ones(n, dtype=bool)
    for _ in range(n):
        rows = np.flatnonzero(moved)
        reach = cost[rows]
        reach += v[cols[rows], None]
        reach = reach.min(axis=0)
        moved = (reach < v)[cols]
        if not moved.any():
            return diag - v[cols], v
        v = np.minimum(v, reach)
    return None
