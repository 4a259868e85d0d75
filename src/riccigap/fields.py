"""Diffusion data on model manifolds: tensor fields A, drift fields F,
zonal potentials, and the construction of geodesically invariant tensor
fields from curvature-like 4-tensors.

Generator convention throughout the package: L = (1/2) A^{ij} grad^2_{ij}
+ F^i grad_i.  "Brownian motion" means A = g^{-1}, F = 0, i.e. L is half
the Laplace-Beltrami operator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonPSDWarning
from .manifolds import (EUCLIDEAN, SPHERE, ModelManifold, Point, TangentVector, _ALLOCATING,
                        _philox, _trig)

_FD_STEP = 1e-5  # central-difference step along geodesics for black-box fields
_ENTRY_MAX = math.sqrt(np.finfo(float).max)  # a tensor entry whose square is finite


# ---------------------------------------------------------------------------
# diffusion tensor fields


class TensorField:
    """Field of symmetric PSD tensors A(x), reported in orthonormal frames.

    A subclass implements matrix(x, frame), the n x n matrix of A at x with
    respect to the orthonormal tangent frame given as columns.
    derivative(x, frame), the covariant derivative of A along the first
    frame vector in the same frame, defaults to a central difference of step
    _FD_STEP along the geodesic with parallel-transported frames; a subclass
    may override it with a closed form.
    """

    #: scale c when the field is exactly c * g^{-1} (enables fast paths)
    constant_inverse_metric: float | None = None

    def matrix(self, x: Point, frame: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, x: Point, frame: np.ndarray) -> np.ndarray:
        m = x.manifold
        u = frame[:, 0].copy()
        out = []
        for s in (_FD_STEP, -_FD_STEP):
            y = m.exp_map(x, TangentVector(x, s * u))
            fy = frame.copy()  # transport along u fixes the columns orthogonal to it
            fy[:, 0] = m._velocity(x.coords, u, *_trig(m.kind, s / m.radius), _ALLOCATING)
            out.append(self.matrix(y, fy))
        return (out[0] - out[1]) / (2.0 * _FD_STEP)


class InverseMetricField(TensorField):
    """A = c * g^{-1} (c > 0); covariantly constant."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise InputError("scale must be positive")
        self.scale = float(scale)
        self.constant_inverse_metric = self.scale

    def matrix(self, x: Point, frame: np.ndarray) -> np.ndarray:
        return self.scale * np.eye(x.manifold.dim)

    def derivative(self, x: Point, frame: np.ndarray) -> np.ndarray:
        return np.zeros((x.manifold.dim, x.manifold.dim))


class ScalarScaledMetricField(TensorField):
    """A = s(x) * g^{-1} for a smooth positive scalar s; generically breaks
    geodesic invariance of the contracted field."""

    def __init__(self, fn):
        self.fn = fn

    def matrix(self, x: Point, frame: np.ndarray) -> np.ndarray:
        return float(self.fn(x)) * np.eye(x.manifold.dim)


class ConstantFrameField(TensorField):
    """Constant matrix attached to deterministic frames (testing helper on
    Euclidean space, where frames are globally parallel)."""

    def __init__(self, mat: np.ndarray):
        self.mat = np.asarray(mat, dtype=float)

    def matrix(self, x: Point, frame: np.ndarray) -> np.ndarray:
        if x.manifold.kind != EUCLIDEAN:
            raise InputError("ConstantFrameField is only parallel on Euclidean space")
        E = frame
        return E.T @ self.mat @ E

    def derivative(self, x: Point, frame: np.ndarray) -> np.ndarray:
        return np.zeros((x.manifold.dim, x.manifold.dim))


# ---------------------------------------------------------------------------
# curvature-like tensors and the invariant field construction


def _check_riemann_symmetries(T: np.ndarray):
    # single Kulkarni-Nomizu products are bitwise symmetric; sums of them
    # carry 1-ulp Bianchi residuals, so "exact" means machine roundoff here
    tol = 8.0 * np.finfo(float).eps * max(float(np.abs(T).max()), 1.0)
    if np.abs(T + np.transpose(T, (1, 0, 2, 3))).max() > tol:
        raise InputError("tensor is not antisymmetric in the first index pair")
    if np.abs(T + np.transpose(T, (0, 1, 3, 2))).max() > tol:
        raise InputError("tensor is not antisymmetric in the second index pair")
    if np.abs(T - np.transpose(T, (2, 3, 0, 1))).max() > tol:
        raise InputError("tensor is not symmetric under pair swap")
    bianchi = T + np.transpose(T, (1, 2, 0, 3)) + np.transpose(T, (2, 0, 1, 3))
    if np.abs(bianchi).max() > tol:
        raise InputError("tensor violates the first Bianchi identity")


@dataclass(frozen=True, eq=False)
class RiemannLikeTensor:
    """4-index array over the ambient space with the algebraic symmetries of
    a curvature tensor (antisymmetry in both pairs, pair-swap symmetry, and
    the first Bianchi identity), all exact."""

    entries: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.entries, dtype=float)
        if T.ndim != 4 or len(set(T.shape)) != 1:
            raise InputError("expected a 4-index array with equal axis lengths")
        if not np.abs(T).max() <= _ENTRY_MAX:  # NaN compares false
            raise InputError(f"tensor entries must be finite and at most {_ENTRY_MAX:.4g} in size")
        _check_riemann_symmetries(T)
        object.__setattr__(self, "entries", T)

    @property
    def ambient_dim(self) -> int:
        return self.entries.shape[0]


def kulkarni_nomizu(h: np.ndarray, k: np.ndarray) -> RiemannLikeTensor:
    """Kulkarni-Nomizu product of two symmetric matrices: always satisfies
    the curvature symmetries, exactly in floating point."""
    with np.errstate(over="ignore", invalid="ignore"):  # RiemannLikeTensor rejects inf, NaN
        h = 0.5 * (np.asarray(h, float) + np.asarray(h, float).T)
        k = 0.5 * (np.asarray(k, float) + np.asarray(k, float).T)
        T = (np.einsum("ik,jl->ijkl", h, k) + np.einsum("jl,ik->ijkl", h, k)
             - np.einsum("il,jk->ijkl", h, k) - np.einsum("jk,il->ijkl", h, k))
    return RiemannLikeTensor(T)


def constant_curvature_tensor(ambient_dim: int, scale: float = 1.0) -> RiemannLikeTensor:
    """T(x,v,x,v) = scale * (|x|^2 |v|^2 - <x,v>^2): the round tensor.
    Reproduces the paper's curvature-like tensor whose invariant field is the metric."""
    return kulkarni_nomizu(0.5 * scale * np.eye(ambient_dim), np.eye(ambient_dim))


def random_riemann_like(ambient_dim: int, seed: int, terms: int = 3,
                        psd: bool = True) -> RiemannLikeTensor:
    """Random curvature-like tensor as a combination of Kulkarni-Nomizu
    squares.  With psd=True all coefficients are positive and the factors
    are SPD, which makes the induced tensor field nonnegative."""
    rng = _philox(seed, 0x7E45)
    k = ambient_dim
    total = np.zeros((k, k, k, k))
    for _ in range(terms):
        g = rng.standard_normal((k, k))
        h = g @ g.T / k + 0.1 * np.eye(k)
        c = rng.uniform(0.2, 1.0)
        if not psd:
            h = 0.5 * (g + g.T)
            c = rng.uniform(-1.0, 1.0)
        total = total + c * kulkarni_nomizu(h, h).entries
    return RiemannLikeTensor(total)


class TensorConstructedField(TensorField):
    """Tensor field defined by contracting a curvature-like ambient tensor
    with the position: A(x)(v, v)-quadratic form = T(x, v, x, v).

    On all three model spaces the contraction of A with the squared unit
    velocity is constant along geodesics, so the field satisfies the
    geodesic-invariance condition exactly.  Euclidean points are lifted to
    the affine hyperplane (x, 1) in R^{n+1}.
    """

    def __init__(self, manifold: ModelManifold, tensor: RiemannLikeTensor):
        need = manifold.dim + 1
        if tensor.ambient_dim != need:
            raise InputError(f"tensor must act on R^{need}")
        self.manifold = manifold
        self.tensor = tensor

    def _lift_point(self, x: Point) -> np.ndarray:
        if self.manifold.kind == EUCLIDEAN:
            return np.concatenate([x.coords, [1.0]])
        return x.coords

    def _lift_frame(self, frame: np.ndarray) -> np.ndarray:
        if self.manifold.kind == EUCLIDEAN:
            return np.vstack([frame, np.zeros((1, frame.shape[1]))])
        return frame

    def matrix(self, x: Point, frame: np.ndarray) -> np.ndarray:
        xa = self._lift_point(x)
        E = self._lift_frame(frame)
        T2 = np.einsum("ijkl,i,k->jl", self.tensor.entries, xa, xa)
        A = E.T @ T2 @ E
        return 0.5 * (A + A.T)

    def derivative(self, x: Point, frame: np.ndarray) -> np.ndarray:
        # d/dt T(gamma, e_a, gamma, e_b) along the geodesic in direction
        # frame[:,0] with parallel frames; the frame-velocity terms vanish
        # because they are proportional to the position, which the tensor
        # kills inside an antisymmetric pair.
        xa = self._lift_point(x)
        E = self._lift_frame(frame)
        ua = E[:, 0]
        M1 = np.einsum("ijkl,i,k->jl", self.tensor.entries, ua, xa)
        dA = E.T @ (M1 + M1.T) @ E
        return 0.5 * (dA + dA.T)


def h_admissible_field(manifold: ModelManifold, tensor: RiemannLikeTensor) -> TensorConstructedField:
    """Build the geodesically invariant tensor field induced by a
    curvature-like tensor, warning if it fails positive semidefiniteness at
    32 sampled points (a fixed stream)."""
    fld = TensorConstructedField(manifold, tensor)
    rng = _philox(0, 0xAD31)
    worst = math.inf
    for _ in range(32):
        x = manifold.random_point(rng)
        A = fld.matrix(x, manifold.frame(x))
        w = np.linalg.eigvalsh(A)
        worst = min(worst, float(w.min()) / max(float(np.abs(A).max()), 1.0))
    if worst < -1e-9:
        warnings.warn(
            f"constructed field is not PSD at sampled points (worst relative eigenvalue {worst:.3e})",
            NonPSDWarning,
        )
    return fld


def h_residual(spec: "DiffusionSpec", x: Point, u: TangentVector) -> float:
    """|grad_u A contracted three times with u|: zero iff the contraction of
    A with the squared unit velocity is constant along the geodesic through
    x in direction u."""
    m = spec.manifold
    nu = m.norm(u)
    if nu <= 0:
        raise InputError("direction must be nonzero")
    uhat = TangentVector(x, u.components / nu)
    E = m.frame(x, first=uhat.components)
    dA = spec.diffusion.derivative(x, E)
    return abs(float(dA[0, 0]))


# ---------------------------------------------------------------------------
# potentials (zonal polynomials in cos(colatitude))


@dataclass(frozen=True)
class ZonalPolynomial:
    """phi = p(cos(theta)) with theta the colatitude (spheres) or the angle
    coordinate (circle); p given by its coefficient list, low order first."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            object.__setattr__(self, "coeffs", (0.0,))
        c = np.asarray(self.coeffs, float)
        der = np.polynomial.polynomial.polyder
        object.__setattr__(self, "_coeffs", tuple(tuple(a[::-1]) for a in (c, der(c), der(c, 2))))

    def p(self, c, order=0):
        """The order-th derivative of p at c, by polyval's own operations in its order."""
        top, *rest = self._coeffs[order]  # high order first
        y = top + c * 0
        for a in rest:
            y = a + y * c
        return y

    def dp(self, c):
        return self.p(c, 1)

    def d2p(self, c):
        return self.p(c, 2)

    # values on the angular coordinate
    def value(self, theta):
        return self.p(np.cos(theta))

    def dtheta(self, theta):
        return -self.dp(np.cos(theta)) * np.sin(theta)

    def d2theta(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        return self.d2p(c) * s**2 - self.dp(c) * c

    @property
    def is_zero(self) -> bool:
        return all(abs(c) < 1e-300 for c in self.coeffs[1:]) or len(self.coeffs) == 1

    def __str__(self):
        return "poly:" + ",".join(f"{c:g}" for c in self.coeffs)


def parse_potential(text: str) -> ZonalPolynomial:
    """Potential mini-language: "0", "<a>", "<a>*cos", "<a>*cos^k", "cos",
    "cos^k", or "poly:c0,c1,..." (polynomial in cos theta)."""
    t = text.strip().lower()
    if t in ("", "0", "none"):
        return ZonalPolynomial((0.0,))
    if t.startswith("poly:"):
        try:
            coeffs = tuple(float(c) for c in t[5:].split(","))
        except ValueError as exc:
            raise InputError(f"bad polynomial potential {text!r}") from exc
        return ZonalPolynomial(coeffs)
    a = 1.0
    body = t
    if "*" in t:
        head, body = t.split("*", 1)
        try:
            a = float(head)
        except ValueError as exc:
            raise InputError(f"bad potential coefficient in {text!r}") from exc
    if body.startswith("cos"):
        power = 1
        if body.startswith("cos^"):
            try:
                power = int(body[4:])
            except ValueError as exc:
                raise InputError(f"bad cosine power in {text!r}") from exc
        elif body != "cos":
            raise InputError(f"bad potential expression {text!r}")
        if power < 1:
            raise InputError("cosine power must be >= 1")
        coeffs = [0.0] * power + [a]
        return ZonalPolynomial(tuple(coeffs))
    try:
        return ZonalPolynomial((float(t),))
    except ValueError as exc:
        raise InputError(f"bad potential expression {text!r}") from exc


# ---------------------------------------------------------------------------
# drift fields


class DriftField:
    """Vector field F.  A subclass implements vector_many(manifold, X), the
    ambient tangent components of F at each row of stacked points X, and
    du_uu(x, u), <u, grad_u F> for a unit tangent u, in closed form;
    vector(x) is vector_many at one point."""

    is_zero = False

    def vector(self, x: Point) -> np.ndarray:
        return self.vector_many(x.manifold, x.coords)

    def vector_many(self, manifold: ModelManifold, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def du_uu(self, x: Point, u: TangentVector) -> float:
        raise NotImplementedError


class ZeroDrift(DriftField):
    is_zero = True

    def vector_many(self, manifold: ModelManifold, X: np.ndarray) -> np.ndarray:
        return np.zeros_like(X)

    def du_uu(self, x: Point, u: TangentVector) -> float:
        return 0.0


class LinearDrift(DriftField):
    """F(x) = -rate * x on Euclidean space (Ornstein-Uhlenbeck drift)."""

    def __init__(self, rate: float = 1.0):
        self.rate = float(rate)

    def vector_many(self, manifold: ModelManifold, X: np.ndarray) -> np.ndarray:
        if manifold.kind != EUCLIDEAN:
            raise InputError("linear drift is defined on Euclidean space")
        return -self.rate * X

    def du_uu(self, x: Point, u: TangentVector) -> float:
        return -self.rate


class PotentialDrift(DriftField):
    """F = -(1/2) grad(phi) for a zonal potential on a sphere (the drift of
    the reversible generator (1/2)(Laplacian - grad(phi).grad))."""

    def __init__(self, potential: ZonalPolynomial):
        self.potential = potential

    def vector_many(self, manifold: ModelManifold, X: np.ndarray) -> np.ndarray:
        if manifold.kind != SPHERE:
            raise InputError("zonal potential drift is defined on spheres")
        t = X[..., -1]  # grad(phi) = g e_t, projected by project_tangent's operations:
        g = self.potential.dp(t / manifold.radius) / manifold.radius  # <g e_t, X> = +0 + g t
        q = np.add(0.0, g * t) / manifold._ip(X, X, _ALLOCATING)
        F = np.subtract(0.0, q[..., None] * X)
        F[..., -1] = g - q * t
        return np.multiply(-0.5, F, out=F)

    def hess_uu(self, x: Point, u: TangentVector) -> float:
        """Hessian of phi along the unit tangent u (second derivative of phi
        along the geodesic)."""
        m = x.manifold
        c = float(x.coords[-1] / m.radius)
        ul = float(u.components[-1])
        r = m.radius
        return float(self.potential.d2p(c)) * ul**2 / r**2 - float(self.potential.dp(c)) * c / r**2

    def du_uu(self, x: Point, u: TangentVector) -> float:
        return -0.5 * self.hess_uu(x, u)


# ---------------------------------------------------------------------------
# diffusion specifications


@dataclass(frozen=True, eq=False)
class DiffusionSpec:
    """A diffusion L = (1/2) A^{ij} grad^2_{ij} + F^i grad_i on a model
    manifold, with the optional potential recording the reversible form
    F = -(1/2) g^{-1} grad(phi)."""

    manifold: ModelManifold
    diffusion: TensorField
    drift: DriftField
    potential: ZonalPolynomial | None = None
    label: str = ""


def brownian(manifold: ModelManifold, scale: float = 1.0) -> DiffusionSpec:
    """A = scale * g^{-1}, no drift; scale=1 gives half the Laplacian,
    scale=2 the Laplacian itself."""
    return DiffusionSpec(manifold, InverseMetricField(scale), ZeroDrift(),
                         label=f"brownian(scale={scale:g})")


def ornstein_uhlenbeck(manifold: ModelManifold, rate: float = 1.0) -> DiffusionSpec:
    if manifold.kind != EUCLIDEAN:
        raise InputError("the Ornstein-Uhlenbeck spec lives on Euclidean space")
    return DiffusionSpec(manifold, InverseMetricField(1.0), LinearDrift(rate),
                         label=f"ou(rate={rate:g})")


def reversible_potential(manifold: ModelManifold, potential: ZonalPolynomial) -> DiffusionSpec:
    """L = (1/2)(Laplacian - grad(phi).grad) with the zonal potential phi."""
    if manifold.kind != SPHERE:
        raise InputError("potential specs are implemented on spheres")
    if potential.is_zero:
        return DiffusionSpec(manifold, InverseMetricField(1.0), ZeroDrift(),
                             potential=potential, label="brownian")
    return DiffusionSpec(manifold, InverseMetricField(1.0), PotentialDrift(potential),
                         potential=potential, label=f"potential({potential})")


def tensor_diffusion(manifold: ModelManifold, tensor: RiemannLikeTensor) -> DiffusionSpec:
    return DiffusionSpec(manifold, h_admissible_field(manifold, tensor), ZeroDrift(),
                         label="tensor-field")
