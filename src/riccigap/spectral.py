"""Spectral gaps of discretized reversible generators on the circle and on
zonal spheres, and every curvature-based lower bound evaluated on the same
problem.

All gaps and bounds are reported for the generator normalization
L = (1/2)(Laplacian - grad(phi).grad); classical formulas stated for the
full Laplacian are rescaled by the caller (the report pipeline does this).

Discretization is in divergence form on a half-cell-offset grid, which
makes the operator exactly self-adjoint for the discrete reversible
weights and second-order accurate.

Every operator -L = W^{-1} B^T C B + diag(kill) is stored as its edge
conductances C, node weights W and killing rate (B the periodic difference
operator).  Every gap is the lowest eigenvalue of one positive-definite
symmetric tridiagonal matrix built from them (_ground), found by
Sturm-sequence bisection (LAPACK stebz) in O(m) time and memory.  The zero
mode is removed by structure, not by a tolerance: a zonal gap is the ground
state of the dual path on the edges, and the circle splits by the mirror
symmetry i -> -i into an even path and an odd one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    DimensionOneError,
    GridSizeError,
    InputError,
    NonPositiveCurvatureError,
)
from .fields import DiffusionSpec, PotentialDrift, ZonalPolynomial, reversible_potential
from .manifolds import SPHERE, ModelManifold, _scipy_routine


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Grid generator -L = W^{-1} B^T C B + diag(kill) with its reversible
    weights.

    kind: "s1" (uniform angle grid) or "s2-zonal" / "s2-azimuthal"
    (half-cell colatitude grid with sin(theta) weights).  cond[i] is the
    conductance of the edge i -> i+1, indices mod m; cond[-1] is the wrap,
    zero on the zonal sectors.  weights are the discrete reversible measure,
    normalized to total mass one.  kill is the azimuthal sector's
    angular-momentum term 1/(2 r^2 sin^2 theta), zero elsewhere.
    """

    kind: str
    radius: float
    theta: np.ndarray
    cond: np.ndarray
    weights: np.ndarray
    potential: ZonalPolynomial
    kill: np.ndarray | float = 0.0

    @property
    def size(self) -> int:
        return self.theta.size

    @property
    def matrix(self) -> np.ndarray:
        """Dense m x m view of the three-point stencil, built on each access;
        for inspection only, no computation in this module reads it."""
        lower = np.roll(self.cond, 1) / self.weights
        upper = self.cond / self.weights
        return _periodic_three_point(lower, -(lower + upper) - self.kill, upper).toarray()

    def apply(self, f: np.ndarray) -> np.ndarray:
        """L f on the grid: the divergence of the edge currents c (f' - f),
        so a sector with zero kill maps constants to exactly zero."""
        current = self.cond * (np.roll(f, -1) - f)
        return (current - np.roll(current, 1)) / self.weights - self.kill * f


def _periodic_three_point(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
    """Sparse m x m matrix with L[i, i-1] = lower[i], L[i, i] = diag[i] and
    L[i, i+1] = upper[i], indices mod m."""
    from scipy.sparse import csr_array

    m = diag.size
    idx = np.arange(m)
    return csr_array((np.concatenate([lower, diag, upper]),
                      (np.tile(idx, 3), np.concatenate([idx - 1, idx, idx + 1]) % m)),
                     shape=(m, m))


@np.errstate(over="ignore", invalid="ignore")  # overflow is rejected below
def _operator(kind: str, radius: float, theta: np.ndarray, w: np.ndarray, upper: np.ndarray,
              potential: ZonalPolynomial, kill=0.0) -> DiscretizedOperator:
    """Normalize the weights and take the conductances c_i = w_i L[i, i+1];
    InputError if any of them overflows."""
    w = w / w.sum()
    cond = w * upper
    if not all(np.isfinite(a).all() for a in (w, cond, kill)):
        raise InputError("the discretized operator overflows: the potential is too large")
    return DiscretizedOperator(kind, radius, theta, cond, w, potential, kill)


@np.errstate(over="ignore", invalid="ignore")  # overflow is rejected by _operator
def discretize_s1(potential: ZonalPolynomial, m: int, radius: float = 1.0) -> DiscretizedOperator:
    """L = (1/(2 r^2)) e^{phi} d/dth (e^{-phi} d/dth) on the circle,
    periodic uniform grid."""
    if m < 16:
        raise GridSizeError("need at least 16 grid points")
    h = 2.0 * math.pi / m
    theta = h * np.arange(m)
    b = np.exp(-potential.value(theta + 0.5 * h))   # conductances at i+1/2
    phi_i = potential.value(theta)
    scale = 1.0 / (2.0 * radius**2 * h**2) * np.exp(phi_i)
    return _operator("s1", radius, theta, np.exp(-phi_i), scale * b, potential)


@np.errstate(over="ignore", invalid="ignore")  # overflow is rejected by _operator
def _zonal_operator(kind: str, potential: ZonalPolynomial, m: int,
                    radius: float) -> DiscretizedOperator:
    """Half-cell colatitude grid with zero conductance across the poles (the
    wrap); the azimuthal sector adds its angular-momentum killing rate."""
    if m < 16:
        raise GridSizeError("need at least 16 grid points")
    h = math.pi / m
    theta = (np.arange(m) + 0.5) * h
    edges = np.arange(m + 1) * h
    c = np.sin(edges) * np.exp(-potential.value(edges))  # conductance at cell edges
    c[-1] = 0.0
    phi_i = potential.value(theta)
    sin_i = np.sin(theta)
    scale = 1.0 / (2.0 * radius**2 * h**2) * np.exp(phi_i)
    kill = 1.0 / (2.0 * radius**2 * sin_i**2) if kind == "s2-azimuthal" else 0.0
    return _operator(kind, radius, theta, sin_i * np.exp(-phi_i), scale * c[1:] / sin_i,
                     potential, kill)


def discretize_zonal(potential: ZonalPolynomial, m: int, radius: float = 1.0) -> DiscretizedOperator:
    """Zonal sector of L = (1/2)(Laplacian - grad(phi).grad) on the
    2-sphere, for colatitude potentials; half-cell grid avoids the poles."""
    return _zonal_operator("s2-zonal", potential, m, radius)


def azimuthal_operator(potential: ZonalPolynomial, m: int, radius: float = 1.0) -> DiscretizedOperator:
    """First angular-momentum sector: the zonal operator plus the
    1/(2 r^2 sin^2 theta) centrifugal killing rate.  Its lowest eigenvalue
    competes with the zonal gap for the full spectral gap."""
    return _zonal_operator("s2-azimuthal", potential, m, radius)


def _reversible_potential(spec: DiffusionSpec) -> ZonalPolynomial:
    """The potential of a spec of the form (1/2)(Laplacian - grad(phi).grad);
    InputError for any other diffusion tensor or drift."""
    if spec.diffusion.constant_inverse_metric != 1.0:
        raise InputError("expected the unit metric-proportional diffusion")
    pot = spec.potential or ZonalPolynomial((0.0,))
    drift = spec.drift
    if not ((drift.is_zero and pot.is_zero)
            or (isinstance(drift, PotentialDrift) and drift.potential == pot)):
        raise InputError("expected the drift -(1/2) grad(phi) of the spec's potential")
    return pot


def _ground(cond: np.ndarray, w: np.ndarray, v=0.0) -> float:
    """Lowest eigenvalue, by bisection, of the Dirichlet path with node
    weights w, killing rate v and conductances cond (the two end entries tie
    the ends to the boundary): the positive-definite tridiagonal
    W^{-1/2} B^T C B W^{-1/2} + diag(v), or InputError if w or the matrix
    overflows.  LAPACK's dstebz, with the arguments eigh_tridiagonal(d, e,
    eigvals_only=True, select="i", select_range=(0, 0)) passes it, taken from
    scipy.linalg._flapack without importing scipy.linalg (_scipy_routine);
    DegenerateSpectrumError unless it finds one eigenvalue with info 0."""
    dstebz = _scipy_routine("linalg._flapack", "dstebz", "scipy.linalg.lapack")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = (cond[:-1] + cond[1:]) / w + v
        e = -cond[1:-1] / np.sqrt(w[:-1] * w[1:])
    if not all(np.isfinite(a).all() for a in (w, d, e)):
        raise InputError("the discretized operator overflows: the potential is too large")
    found, lam, _, _, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if found != 1 or info != 0:
        raise DegenerateSpectrumError(f"dstebz found {found} ground eigenvalues, info {info}")
    return float(lam[0])


def _conductances(op: DiscretizedOperator) -> np.ndarray:
    """op.cond, checked: a connected path or cycle has a simple zero mode
    (Perron-Frobenius), so only a zero edge degenerates it."""
    c = op.cond
    if not (np.isfinite(c).all() and c[:-1].min() > 0):
        raise DegenerateSpectrumError("an edge conductance is zero or not finite")
    return c


@np.errstate(over="ignore", divide="ignore")  # _ground rejects overflow
def spectral_gap(op: DiscretizedOperator) -> float:
    """Smallest nonzero eigenvalue of -L in the weighted inner product.

    On a path, -L = W^{-1} B^T C B has the nonzero spectrum of the Dirichlet
    path on the edges, C^{1/2} B W^{-1} B^T C^{1/2} (weights 1/c,
    conductances 1/w).  A cycle symmetric under i -> -i splits into its even
    functions, a path on nodes 0..m/2 with doubled conductances and inner
    weights, and its odd ones, a Dirichlet path (for odd m the self-mirror
    edge adds 2c to the last diagonal entry)."""
    c, w = _conductances(op), op.weights
    if c[-1] == 0.0:
        return _ground(1.0 / w, 1.0 / c[:-1])
    if any(np.abs(a - a[::-1]).max() > 1e-8 * np.abs(a).max() for a in (c, w[1:])):
        raise InputError("the cycle operator is not symmetric under i -> -i")
    m = op.size
    k, half = m // 2, (m + 1) // 2
    w_even = w[:k + 1].copy()
    w_even[1:half] *= 2.0
    odd = c[:k] if m % 2 == 0 else np.append(c[:k], 2.0 * c[k])
    return min(_ground(1.0 / w_even, 0.5 / c[:k]), _ground(odd, w[1:half]))


@np.errstate(over="ignore")  # _ground rejects overflow
def lowest_eigenvalue(op: DiscretizedOperator) -> float:
    """Ground eigenvalue of -L = W^{-1} B^T C B + diag(kill) on a sector with
    zero wrap, such as the azimuthal one: the path with free ends, node
    weights op.weights and killing rate op.kill."""
    c = _conductances(op)
    if c[-1] != 0.0:
        raise InputError("lowest_eigenvalue takes a sector with zero wrap")
    return _ground(np.concatenate(([0.0], c)), op.weights, op.kill)


def _richardson(gaps, m: int):
    """(4 g(2m) - g(m))/3, which removes the O(h^2) discretization error."""
    return (4.0 * gaps(2 * m) - gaps(m)) / 3.0


def sphere_spectrum(potential: ZonalPolynomial, m: int, radius: float = 1.0) -> dict:
    """Spectral gap of the full generator on the 2-sphere with a zonal
    potential: the minimum of the zonal-sector gap and the first azimuthal
    sector's ground eigenvalue, each Richardson-extrapolated over (m, 2m)."""
    gz, ga = _richardson(lambda mm: np.array([
        spectral_gap(discretize_zonal(potential, mm, radius)),
        lowest_eigenvalue(azimuthal_operator(potential, mm, radius))]), m)
    return {"zonal": float(gz), "azimuthal": float(ga), "lambda1": float(min(gz, ga))}


def s1_spectrum(potential: ZonalPolynomial, m: int, radius: float = 1.0) -> dict:
    """Spectral gap on the circle, Richardson-extrapolated over (m, 2m)."""
    return {"lambda1": _richardson(
        lambda mm: spectral_gap(discretize_s1(potential, mm, radius)), m)}


# ---------------------------------------------------------------------------
# lower-bound formulas (stated for the full Laplacian; callers rescale)


def lichnerowicz_bound(n: int, K: float) -> float:
    """n K/(n-1) for Ricci >= K > 0 (generator: full Laplacian)."""
    if n < 2:
        raise DimensionOneError("the dimensional improvement needs n >= 2")
    if K < 0:
        raise NonPositiveCurvatureError("needs a nonnegative Ricci lower bound")
    return n * K / (n - 1)


def chen_wang_bounds(n: int, K: float, D: float) -> list[tuple[str, float]]:
    """Diameter-refined gap bounds (generator: full Laplacian).  Returns the
    applicable (label, value) branches.

    The K >= 0 additive branch carries an explicit factor K on the max(...)
    term; the flat-circle case (K = 0, D = pi, gap 1) forces that reading.
    """
    if n < 1 or D <= 0:
        raise InputError("need n >= 1 and D > 0")
    out = []
    if K >= 0:
        out.append(("additive", math.pi**2 / D**2
                    + max(math.pi / (4 * n), 1 - 2 / math.pi) * K))
        if n > 1:
            arg = min(max(D * math.sqrt(K * (n - 1)) / 2, 0.0), math.pi / 2)
            denom = (n - 1) * (1 - math.cos(arg) ** n)
            if denom > 0:
                out.append(("cosine", n * K / denom))
    if K <= 0:
        out.append(("additive-negative", math.pi**2 / D**2 + (math.pi / 2 - 1) * K))
        if n > 1:
            out.append(("cosh", math.pi**2 * math.sqrt(1 - 2 * D**2 * K / math.pi**4)
                        / (D**2 * math.cosh(D * math.sqrt(-K * (n - 1)) / 2))))
    return out


def harmonic_mean_bound(kappa_values, weights) -> float:
    """1 / integral of 1/kappa dpi over the quadrature grid."""
    k = np.asarray(kappa_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if k.shape != w.shape:
        raise InputError("curvature values and weights must align")
    if k.min() <= 0:
        raise NonPositiveCurvatureError(f"curvature min {k.min():.3e} is not positive")
    return float(1.0 / np.sum(w / k))


def _dimensional_bound(values: np.ndarray, weights: np.ndarray,
                       fac: float) -> tuple[float, float]:
    """(c, value) maximizing f(c) = fac c + harmonic mean of (values - c) over
    c in [0, min(values)].  f is concave (a weighted harmonic mean is a concave
    power mean): Newton steps on f' = fac - S1/S0^2 (Sk the weighted sum of
    (values - c)^-(k+1)) find its root to a few ulps, each narrowing a bracket
    and bisecting it instead if they leave it.  Both ends are evaluated exactly."""
    hi = float(values.min())

    def val(c):
        gap = values - c
        if gap.min() <= 0:
            return fac * c
        return fac * c + 1.0 / float(np.sum(weights / gap))

    a, b, c = 0.0, hi, 0.0
    with np.errstate(all="ignore"):  # an inf or nan step bisects
        for _ in range(200):
            inv = 1.0 / (values - c)
            r0 = weights * inv
            r1 = r0 * inv
            s0, s1, s2 = r0.sum(), r1.sum(), np.dot(r1, inv)
            g = fac - s1 / s0**2
            if g == 0:
                break
            a, b = (c, b) if g > 0 else (a, c)
            step = float(c + g * s0**3 / (2.0 * (s2 * s0 - s1 * s1)))
            step = step if a < step < b else 0.5 * (a + b)
            c, moved = step, abs(step - c)
            if moved <= 2.0 * np.finfo(float).eps * step:  # or no float is left to bisect
                break
    value, c = max([(val(0.0), 0.0), (val(hi), hi), (val(c), c)], key=lambda p: p[0])
    return c, value


def interpolated_bound(ric_values, weights, n: int) -> tuple[float, float]:
    """max over c in [0, K] of n c/(n-1) + harmonic mean of (Ric - c);
    c = 0 recovers the plain harmonic-mean bound, c = K the
    dimensional-improvement endpoint."""
    if n < 2:
        raise DimensionOneError("the interpolated bound needs n >= 2")
    ric = np.asarray(ric_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if ric.min() <= 0:
        raise NonPositiveCurvatureError("needs positive curvature on the grid")
    return _dimensional_bound(ric, w, n / (n - 1))


def _zonal_potential(spec: DiffusionSpec) -> ZonalPolynomial:
    m = spec.manifold
    if m.kind != SPHERE or m.dim != 2:
        raise InputError("the zonal curvature fields are implemented on 2-spheres")
    return _reversible_potential(spec)


def _zonal_curvature(pot: ZonalPolynomial, theta: np.ndarray, radius: float,
                     slack: float) -> np.ndarray:
    """Half the minimum over unit directions u of
    Ric(u,u) + Hess(phi)(u,u) - (grad(phi).u)^2/slack at colatitudes theta
    on the 2-sphere.  The quantity is linear in cos^2 of the angle between
    u and the meridian, so the minimum is at the meridian or the parallel;
    slack = inf drops the penalty."""
    r2 = radius**2
    c = np.cos(theta)
    h_tt = pot.d2theta(theta) / r2                 # Hess(phi) along the meridian
    h_pp = -pot.dp(c) * c / r2                     # ... and along the parallel
    pen = (pot.dtheta(theta) / radius) ** 2 / slack   # (d phi / d arclength)^2 / slack
    return 0.5 * np.minimum(1.0 / r2 + h_tt - pen, 1.0 / r2 + h_pp)


def bakry_emery_rho(spec: DiffusionSpec, n_prime: float):
    """Optimal curvature function of the dimension-n_prime
    curvature-dimension inequality for a zonal reversible diffusion on the
    2-sphere: at each point, half the minimum over unit directions of
    Ric(u,u) + Hess(phi)(u,u) - (grad(phi).u)^2/(n_prime - n).

    Returns rho(theta_array), in closed form (see _zonal_curvature).
    """
    pot = _zonal_potential(spec)
    n = spec.manifold.dim
    if n_prime < n:
        raise DimensionMismatchError("effective dimension below the manifold dimension")
    if n_prime == n and not pot.is_zero:
        raise DimensionMismatchError(
            "effective dimension equal to the manifold dimension needs a zero potential")
    slack = math.inf if n_prime == n else n_prime - n

    def rho(theta):
        out = _zonal_curvature(pot, np.atleast_1d(np.asarray(theta, dtype=float)),
                               spec.manifold.radius, slack)
        return out if out.size > 1 else float(out[0])

    return rho


def cd_bound(rho_values, weights, n_prime: float) -> tuple[float, float]:
    """max over c in [0, R] of n' c/(n'-1) + harmonic mean of (rho - c),
    R the infimum of rho on the grid; c = R gives n' R/(n'-1)."""
    rho = np.asarray(rho_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if rho.min() <= 0:
        raise NonPositiveCurvatureError("needs positive curvature-dimension curvature")
    fac = 1.0 if n_prime == math.inf else n_prime / (n_prime - 1)
    return _dimensional_bound(rho, w, fac)


# ---------------------------------------------------------------------------
# Gamma calculus on the grid


def gamma_operators(op: DiscretizedOperator, f) -> tuple[np.ndarray, np.ndarray]:
    """Discrete carre du champ and its iteration:
    Gamma(f) = (L(f^2) - 2 f Lf)/2,
    Gamma2(f) = (L Gamma(f) - 2 Gamma(f, Lf))/2."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.size,):
        raise InputError("grid function has the wrong size")
    L = op.apply

    def gamma_bilinear(a, b):
        return 0.5 * (L(a * b) - a * L(b) - b * L(a))

    g = gamma_bilinear(f, f)
    lf = L(f)
    g2 = 0.5 * (L(g) - 2.0 * gamma_bilinear(f, lf))
    return g, g2


def cd_inequality_residual(op: DiscretizedOperator, f, rho_values, n_prime: float,
                           exclude_cells: int = 2) -> float:
    """Most negative value of Gamma2 - rho Gamma - (Lf)^2/n' away from the
    poles (nonnegative means the curvature-dimension inequality holds)."""
    g, g2 = gamma_operators(op, f)
    lf = op.apply(np.asarray(f, dtype=float))
    rho = np.asarray(rho_values, dtype=float)
    slack = g2 - rho * g - lf**2 / n_prime
    if exclude_cells > 0:
        slack = slack[exclude_cells:-exclude_cells]
    return float(slack.min())


# ---------------------------------------------------------------------------
# semigroup identity for the derivative of the squared gradient norm


@dataclass(frozen=True)
class S1Coefficients:
    """Closed-form generator data on the circle: L = (1/2) a(x) d^2 + F(x) d."""

    a: object
    da: object
    F: object
    dF: object


@dataclass(frozen=True)
class S1TestFunction:
    """Three-times differentiable test function with closed-form derivatives."""

    f: object
    df: object
    d2f: object
    d3f: object


def build_s1_generator(coeffs: S1Coefficients, m: int):
    """Central-difference matrix of L = (1/2) a d^2 + F d on the periodic
    grid, sparse; returns (grid, matrix)."""
    h = 2.0 * math.pi / m
    x = h * np.arange(m)
    a = np.asarray(coeffs.a(x), dtype=float)
    Fv = np.asarray(coeffs.F(x), dtype=float)
    if a.min() <= 0:
        raise InputError("the diffusion coefficient must be positive")
    return x, _periodic_three_point(0.5 * a / h**2 - Fv / (2 * h), -a / h**2,
                                    0.5 * a / h**2 + Fv / (2 * h))


def lipschitz_derivative_identity_check(coeffs: S1Coefficients, fn: S1TestFunction,
                                        m: int = 1024) -> float:
    """Sup-norm residual between the time derivative at zero of the squared
    gradient norm of the semigroup (the action of the matrix exponential on
    the grid, finite differenced at t = 1e-5 and 5e-6 and extrapolated
    linearly to t = 0) and its closed-form expression

        h (2 L h + u a' h' u) + h^2 (2 u F' u)

    with h = |f'| and u = sign(f'), evaluated away from critical points of
    f (cells with |f'| < 1e-3 are excluded)."""
    from scipy.sparse.linalg import expm_multiply

    x, L = build_s1_generator(coeffs, m)
    f = np.asarray(fn.f(x), dtype=float)
    df = np.asarray(fn.df(x), dtype=float)
    d2f = np.asarray(fn.d2f(x), dtype=float)
    d3f = np.asarray(fn.d3f(x), dtype=float)
    h = 2.0 * math.pi / m

    def grad(v):
        return (np.roll(v, -1) - np.roll(v, 1)) / (2 * h)

    psi0 = grad(f) ** 2
    t0, t1 = 1e-5, 5e-6
    d0, d1 = ((grad(expm_multiply(t * L, f)) ** 2 - psi0) / t for t in (t0, t1))
    lhs = (t0 * d1 - t1 * d0) / (t0 - t1)
    hgrid = np.abs(df)
    u = np.sign(df)
    dh = u * d2f
    d2h = u * d3f
    a = np.asarray(coeffs.a(x), dtype=float)
    dav = np.asarray(coeffs.da(x), dtype=float)
    Fv = np.asarray(coeffs.F(x), dtype=float)
    dFv = np.asarray(coeffs.dF(x), dtype=float)
    lh = 0.5 * a * d2h + Fv * dh
    rhs = hgrid * (2.0 * lh + dav * dh) + hgrid**2 * (2.0 * dFv)
    mask = hgrid >= 1e-3
    if not np.any(mask):
        raise InputError("test function is constant to tolerance")
    return float(np.abs(lhs[mask] - rhs[mask]).max())


# ---------------------------------------------------------------------------
# full report: computed gap plus every applicable lower bound


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Computed spectral gap of one problem together with every applicable
    lower bound, all in the half-Laplacian normalization."""

    manifold: str
    potential: str
    m: int
    n_prime: float | None
    lambda1: float
    lambda1_zonal: float
    lambda1_azimuthal: float | None
    K: float
    diameter: float
    lichnerowicz: float | None
    chen_wang: list | None
    harmonic_mean: float | None
    interpolated: tuple | None
    bakry_emery_cd: tuple | None

    def applicable_bounds(self) -> list[tuple[str, float]]:
        out = []
        if self.lichnerowicz is not None:
            out.append(("lichnerowicz", self.lichnerowicz))
        for label, v in self.chen_wang or []:
            out.append((f"chen-wang-{label}", v))
        if self.harmonic_mean is not None:
            out.append(("harmonic-mean", self.harmonic_mean))
        if self.interpolated is not None:
            out.append(("interpolated", self.interpolated[1]))
        if self.bakry_emery_cd is not None:
            out.append(("curvature-dimension", self.bakry_emery_cd[2]))
        return out


def effective_kappa_grid(spec: DiffusionSpec, theta: np.ndarray) -> np.ndarray:
    """inf over unit directions of the directional coarse Ricci curvature at
    the zonal points x(theta) (half-Laplacian units): the closed form of
    min(kappa_dir(e_theta), kappa_dir(e_psi)) for reversible potential specs."""
    return _zonal_curvature(_zonal_potential(spec), np.asarray(theta, dtype=float),
                            spec.manifold.radius, math.inf)


def s1_effective_kappa(potential: ZonalPolynomial, theta: np.ndarray,
                       radius: float = 1.0) -> np.ndarray:
    """Effective curvature on the circle: (1/2) phi'' (flat Ricci)."""
    return 0.5 * potential.d2theta(theta) / radius**2


def bounds_report(manifold: ModelManifold, potential: ZonalPolynomial, m: int,
                  n_prime: float | None = None) -> BoundsReport:
    """Evaluate the discretized gap and all applicable lower bounds for the
    reversible diffusion (1/2)(Laplacian - grad(phi).grad) on the circle or
    zonal 2-sphere."""
    if manifold.kind != SPHERE or manifold.dim not in (1, 2):
        raise InputError("bounds reports cover sphere:1:r and sphere:2:r")
    n, r = manifold.dim, manifold.radius
    diam = math.pi * r
    if n == 1:
        lam = s1_spectrum(potential, m, r)["lambda1"]
        gaps = {"lambda1": lam, "zonal": lam, "azimuthal": None}
        op = discretize_s1(potential, m, r)
        kgrid = s1_effective_kappa(potential, op.theta, r)
    else:
        spec = reversible_potential(manifold, potential)
        gaps = sphere_spectrum(potential, m, r)
        op = discretize_zonal(potential, m, r)
        kgrid = effective_kappa_grid(spec, op.theta)
    K = float(kgrid.min())
    lich = chen = harmonic = interp = cd = None
    if potential.is_zero:
        k_ric = (n - 1) / r**2
        if n > 1:
            lich = 0.5 * lichnerowicz_bound(n, k_ric)
        chen = [(lbl, 0.5 * v) for lbl, v in chen_wang_bounds(n, k_ric, diam)]
    if n > 1 and K > 0:
        harmonic = harmonic_mean_bound(kgrid, op.weights)
        interp = interpolated_bound(kgrid, op.weights, n)
    if n > 1 and n_prime is not None:
        rho = bakry_emery_rho(spec, n_prime)(op.theta)
        if rho.min() > 0:
            c, v = cd_bound(rho, op.weights, n_prime)
            cd = (n_prime, c, v)
    return BoundsReport(
        manifold=f"sphere:{n}:{r:g}", potential=str(potential), m=m, n_prime=n_prime,
        lambda1=gaps["lambda1"], lambda1_zonal=gaps["zonal"],
        lambda1_azimuthal=gaps["azimuthal"], K=K, diameter=diam,
        lichnerowicz=lich, chen_wang=chen, harmonic_mean=harmonic,
        interpolated=interp, bakry_emery_cd=cd,
    )
