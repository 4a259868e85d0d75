"""Exact geometry of the three model spaces (Euclidean, sphere, hyperbolic).

Points live in ambient embedding coordinates: R^n for Euclidean space,
R^{n+1} for the sphere <x,x> = r^2 and for the upper hyperboloid
q(x,x) = -r^2 (q the Lorentz form with signature (n, 1), last coordinate
timelike).  All maps (exp, log, transport, distance and its second-order
jet) are closed form.

The second-order jet of the distance function is stored in the normalized
form d(exp_x(eps v), exp_y(eps w)) = d * [1 + eps*(l1.v + l2.w)
+ eps^2/2*(q1(v,v) + q2(w,w) + 2*q12(v,w))], so l1, l2 carry a 1/d factor
and q1, q2, q12 carry a 1/d^2-ish scale.  Components are expressed in a
pair of geodesic-adapted orthonormal frames (first frame vector along the
connecting geodesic, second frame obtained by parallel transport).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError, InputError

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"

_KINDS = (EUCLIDEAN, SPHERE, HYPERBOLIC)

# Tolerances: point/tangency invariants, log-map cut guard, jet cut guard.
_INVARIANT_TOL = 1e-12
_CUT_EPS_LOG = 1e-9
_CUT_EPS_JET = 1e-6
# numpy sums a C-ordered row of up to 7 numbers left to right from +0, and
# pairwise from 8 on; _row_sum repeats the first order column by column.
_SEQUENTIAL_SUM_MAX = 7
_COLUMN_SUM_MIN_SIZE = 512  # below this many numbers one ufunc.reduce is quicker


def _row_sum(f, u: np.ndarray, v: np.ndarray):
    """np.sum(f(u, v), axis=-1) on C-ordered rows, bit for bit, for an
    elementwise f.  On C-ordered rows a sum of columns, as ufunc.reduce costs
    ~6x as much at (8192, 3) and on rows broadcast to (N, N) needs an
    (N, N, k) array; on column-major rows of one shape ufunc.reduce is that
    sum.  The +0 seed makes a sum of -0 terms +0, as numpy's is."""
    k = u.shape[-1]
    if k > _SEQUENTIAL_SUM_MAX or v.shape[-1] != k:
        return np.add.reduce(np.ascontiguousarray(f(u, v)), axis=-1)  # np.sum without its wrapper
    if (max(u.size, v.size) < _COLUMN_SUM_MIN_SIZE
            or (u.shape == v.shape and u.flags.f_contiguous and v.flags.f_contiguous)):
        return np.add.reduce(f(u, v), axis=-1)
    s = f(u[..., 0], v[..., 0]) + 0.0
    for j in range(1, k):
        s += f(u[..., j], v[..., j])
    return s


def _squared_difference(x, y):
    return (y - x) ** 2


def _as_vec(a) -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise InputError(f"expected a 1-d coordinate array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError("coordinates must be finite")
    return v


@dataclass(frozen=True)
class ModelManifold:
    """One of the three constant-curvature model spaces.

    kind: "euclidean" | "sphere" | "hyperbolic"
    dim:  intrinsic dimension n >= 1
    radius: scale r > 0 (sphere radius / hyperbolic scale; ignored for
        Euclidean space, kept for a uniform constructor signature).
    """

    kind: str
    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown manifold kind {self.kind!r}")
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        # r^4 and r^-4 must be normal doubles: beyond, squared distances and
        # their moments overflow, or random_tangent never finds a direction
        if not 1e-75 <= self.radius <= 1e75:
            raise InputError("scale must lie in [1e-75, 1e75]")

    # -- basic structure ---------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.dim if self.kind == EUCLIDEAN else self.dim + 1

    @property
    def sectional_curvature(self) -> float:
        if self.kind == SPHERE:
            return 1.0 / self.radius**2
        if self.kind == HYPERBOLIC:
            return -1.0 / self.radius**2
        return 0.0

    @property
    def diameter(self) -> float:
        return math.pi * self.radius if self.kind == SPHERE else math.inf

    @property
    def cut_threshold(self) -> float:
        """Distances must stay below this for jets/couplings to be defined."""
        if self.kind == SPHERE:
            return math.pi * self.radius - _CUT_EPS_JET
        return math.inf

    def ip(self, u, v):
        """Ambient pairing inducing the metric (Lorentz form if hyperbolic)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        s = _row_sum(np.multiply, u, v)
        if self.kind == HYPERBOLIC:
            s = s - 2.0 * u[..., -1] * v[..., -1]
        return s

    # -- points and tangent vectors ----------------------------------------

    def point(self, coords) -> "Point":
        return Point(self, _as_vec(coords))

    def tangent(self, x: "Point", components, project: bool = False) -> "TangentVector":
        c = _as_vec(components)
        if project:
            c = self.project_tangent(x.coords, c)
        return TangentVector(x, c)

    def project_tangent(self, x_coords: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.kind == EUCLIDEAN:
            return v
        x = x_coords
        return v - (self.ip(v, x) / self.ip(x, x))[..., None] * x

    def tangent_noise(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Tangent vectors at X with the standard Gaussian law of the metric,
        from ambient standard normals Z.  On the hyperboloid projection would
        not do that, so the first n components of Z (a standard Gaussian at
        the base point) are carried to X by the boost between them."""
        if self.kind != HYPERBOLIC:
            return self.project_tangent(X, Z)
        r = self.radius
        W = Z[..., :-1]
        Xs, Xt = X[..., :-1], X[..., -1:]
        s = _row_sum(np.multiply, Xs, W)[..., None] / r
        return np.concatenate([W + Xs * (s / (r + Xt)), s], axis=-1)

    def norm(self, v: "TangentVector") -> float:
        return math.sqrt(max(self.ip(v.components, v.components), 0.0))

    # -- random sampling (uniform point, unit tangent) ---------------------

    def random_point(self, rng: np.random.Generator) -> "Point":
        if self.kind == EUCLIDEAN:
            return self.point(rng.standard_normal(self.dim))
        if self.kind == SPHERE:
            z = rng.standard_normal(self.ambient_dim)
            return self.point(z * (self.radius / np.linalg.norm(z)))
        # hyperbolic: exp from the base point in a random direction
        base = np.zeros(self.ambient_dim)
        base[-1] = self.radius
        x0 = self.point(base)
        u = self.random_tangent(rng, x0)
        t = rng.uniform(0.0, 1.5 * self.radius)
        return self.exp_map(x0, TangentVector(x0, t * u.components))

    def random_tangent(self, rng: np.random.Generator, x: "Point") -> "TangentVector":
        """Unit tangent vector, uniform over directions."""
        while True:
            z = self.project_tangent(x.coords, rng.standard_normal(self.ambient_dim))
            n2 = self.ip(z, z)
            if n2 > 1e-12:
                return TangentVector(x, z / math.sqrt(n2))

    # -- batched kernels (used by the simulator; single-point ops wrap them)

    def exp_many(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        r = self.radius
        if self.kind == EUCLIDEAN:
            return X + V
        n = np.sqrt(np.maximum(self.ip(V, V), 0.0))[..., None]
        t = n / r
        s, c = _trig(self.kind, t)
        Y = c * X + (r * _guarded_div(s, n, t < 1e-14, 1.0 / r)) * V  # sinc: sin(t) / n
        if self.kind == SPHERE:
            return Y * (r / np.sqrt(_row_sum(np.multiply, Y, Y))[..., None])
        return Y * (r / np.sqrt(np.maximum(-self.ip(Y, Y), 1e-300))[..., None])

    def dist_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        r = self.radius
        if self.kind == EUCLIDEAN:
            return np.sqrt(_row_sum(_squared_difference, X, Y))  # = np.linalg.norm(Y - X, axis=-1)
        if self.kind == SPHERE:
            c = np.clip(self.ip(X, Y) / r**2, -1.0, 1.0)
            return r * np.arccos(c)
        c = np.maximum(-self.ip(X, Y) / r**2, 1.0)
        return r * np.arccosh(c)

    def log_many(self, X: np.ndarray, Y: np.ndarray, d=None) -> np.ndarray:
        """Log map of Y at X (d, when given, is the already-known distance)."""
        r = self.radius
        if self.kind == EUCLIDEAN:
            return Y - X
        d = (self.dist_many(X, Y) if d is None else d)[..., None]
        th = d / r
        s, c = _trig(self.kind, th)
        return self.project_tangent(X, (Y - c * X) * _guarded_div(th, s, s < 1e-14, 1.0))

    def transport_many(self, X, Y, W) -> np.ndarray:
        """Parallel transport of tangent vectors W at X to Y along the geodesic."""
        if self.kind == EUCLIDEAN:
            return np.array(W, copy=True)
        V = self.log_many(X, Y)
        d = np.sqrt(np.maximum(self.ip(V, V), 0.0))[..., None]
        deg = d < 1e-15
        u = _guarded_div(V, d, deg, 0.0)
        s, c = _trig(self.kind, (self.dist_many(X, Y) / self.radius)[..., None])
        uprime = (-s if self.kind == SPHERE else s) * X / self.radius + c * u  # velocity at Y
        out = W + self.ip(W, u)[..., None] * (uprime - u)
        return np.where(deg, W, out) if deg.any() else out

    # -- public single-pair operations --------------------------------------

    def exp_map(self, x: "Point", v: "TangentVector") -> "Point":
        self._check_based(x, v)
        return Point(self, self.exp_many(x.coords, v.components))

    def log_map(self, x: "Point", y: "Point") -> "TangentVector":
        self._check_pair(x, y)
        d = self.dist_many(x.coords, y.coords)
        if self.kind == SPHERE and d >= math.pi * self.radius - _CUT_EPS_LOG:
            raise CutLocusError(
                f"log map undefined: d = {d:.17g} is at the cut locus (pi*r = {math.pi*self.radius:.17g})"
            )
        return TangentVector(x, self.log_many(x.coords, y.coords))

    def distance(self, x: "Point", y: "Point") -> float:
        self._check_pair(x, y)
        return float(self.dist_many(x.coords, y.coords))

    def parallel_transport(self, v: "TangentVector", y: "Point") -> "TangentVector":
        x = v.point
        self._check_pair(x, y)
        d = self.dist_many(x.coords, y.coords)
        if self.kind == SPHERE and d >= math.pi * self.radius - _CUT_EPS_LOG:
            raise CutLocusError("parallel transport undefined at the cut locus")
        return TangentVector(y, self.transport_many(x.coords, y.coords, v.components))

    def riemann_tensor(self, x: "Point", u, v, w, z) -> float:
        """R(u,v,w,z) = K(<u,w><v,z> - <u,z><v,w>) for constant curvature K."""
        K = self.sectional_curvature
        if K == 0.0:
            return 0.0
        uu, vv, ww, zz = (t.components if isinstance(t, TangentVector) else np.asarray(t, float)
                          for t in (u, v, w, z))
        return K * (self.ip(uu, ww) * self.ip(vv, zz) - self.ip(uu, zz) * self.ip(vv, ww))

    # -- frames --------------------------------------------------------------

    def frame(self, x: "Point", first: np.ndarray | None = None) -> np.ndarray:
        """Deterministic orthonormal tangent frame at x, columns = frame vectors.

        If `first` is given (a unit tangent vector in ambient coordinates) it
        becomes column 0.
        """
        k = self.ambient_dim
        cols = []
        if first is not None:
            cols.append(np.asarray(first, dtype=float))
        for i in range(k):
            if len(cols) == self.dim:
                break
            cand = np.zeros(k)
            cand[i] = 1.0
            cand = self.project_tangent(x.coords, cand)
            for c in cols:
                cand = cand - self.ip(cand, c) * c
            n2 = self.ip(cand, cand)
            if n2 > 1e-10:
                cols.append(cand / math.sqrt(n2))
        if len(cols) != self.dim:
            # fall back to a pivoted pass over perturbed candidates
            rng = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
            while len(cols) < self.dim:
                cand = self.project_tangent(x.coords, rng.standard_normal(k))
                for c in cols:
                    cand = cand - self.ip(cand, c) * c
                n2 = self.ip(cand, cand)
                if n2 > 1e-10:
                    cols.append(cand / math.sqrt(n2))
        return np.stack(cols, axis=1)

    def adapted_frames(self, x: "Point", y: "Point") -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal frames at x and y adapted to the connecting geodesic.

        Column 0 at x is the unit vector toward y; the frame at y is the
        parallel transport of the frame at x (so column 0 at y is the forward
        geodesic velocity, i.e. minus the unit vector from y toward x).
        """
        v = self.log_map(x, y)
        d = self.norm(v)
        if d <= 0:
            raise CutLocusError("adapted frames need two distinct points")
        e1 = v.components / d
        E = self.frame(x, first=e1)
        F = self.transport_many(np.broadcast_to(x.coords, (self.dim, self.ambient_dim)),
                                np.broadcast_to(y.coords, (self.dim, self.ambient_dim)),
                                E.T).T
        return E, F

    def to_frame(self, E: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Components of ambient tangent vector v w.r.t. orthonormal frame E."""
        if self.kind == HYPERBOLIC:
            w = np.array(v, copy=True)
            w[..., -1] = -w[..., -1]
            return w @ E
        return np.asarray(v) @ E

    def from_frame(self, E: np.ndarray, comps: np.ndarray) -> np.ndarray:
        return E @ np.asarray(comps)

    # -- distance jet ----------------------------------------------------------

    def distance_jet(self, x: "Point", y: "Point") -> "DistanceJet":
        """Closed-form second-order jet of the distance at (x, y)."""
        self._check_pair(x, y)
        d = float(self.dist_many(x.coords, y.coords))
        if not 0.0 < d < self.cut_threshold:
            raise CutLocusError(f"distance jet needs 0 < d < {self.cut_threshold:.17g}, got {d:.17g}")
        E, F = self.adapted_frames(x, y)
        th = d / self.radius
        qa, qb = _jet_scales(self.kind, th)
        qa, qb = qa / d**2, qb / d**2
        n = self.dim
        P = np.eye(n)
        P[0, 0] = 0.0
        l1 = np.zeros(n)
        l1[0] = -1.0 / d
        l2 = np.zeros(n)
        l2[0] = 1.0 / d
        return DistanceJet(
            manifold=self, x=x, y=y, d=d, frame_x=E, frame_y=F,
            l1=l1, l2=l2, q1=qa * P, q2=qa * P, q12=-qb * P,
        )

    def distance_jet_numeric(self, x: "Point", y: "Point", step: float) -> "DistanceJet":
        """Finite-difference jet (test oracle): central second differences of
        d(exp_x(eps v), exp_y(eps w)) over the adapted frames."""
        self._check_pair(x, y)
        d = float(self.dist_many(x.coords, y.coords))
        if not 0.0 < d < self.cut_threshold:
            raise CutLocusError("finite-difference jet undefined at/beyond the cut locus")
        if not 0.0 < step < d / 10.0:
            raise InputError("step must lie in (0, d/10)")
        E, F = self.adapted_frames(x, y)
        n = self.dim
        h = step

        def dd(vc, wc):
            xe = self.exp_many(x.coords, self.from_frame(E, vc))
            ye = self.exp_many(y.coords, self.from_frame(F, wc))
            return float(self.dist_many(xe, ye))

        z = np.zeros(n)
        l1 = np.zeros(n)
        l2 = np.zeros(n)
        q1 = np.zeros((n, n))
        q2 = np.zeros((n, n))
        q12 = np.zeros((n, n))
        e = np.eye(n)
        f0 = dd(z, z)
        for a in range(n):
            l1[a] = (dd(h * e[a], z) - dd(-h * e[a], z)) / (2 * h * d)
            l2[a] = (dd(z, h * e[a]) - dd(z, -h * e[a])) / (2 * h * d)
            q1[a, a] = (dd(h * e[a], z) - 2 * f0 + dd(-h * e[a], z)) / (h**2 * d)
            q2[a, a] = (dd(z, h * e[a]) - 2 * f0 + dd(z, -h * e[a])) / (h**2 * d)
        for a in range(n):
            for b in range(a + 1, n):
                m1 = (dd(h * (e[a] + e[b]), z) - 2 * f0 + dd(-h * (e[a] + e[b]), z)) / (h**2 * d)
                q1[a, b] = q1[b, a] = 0.5 * (m1 - q1[a, a] - q1[b, b])
                m2 = (dd(z, h * (e[a] + e[b])) - 2 * f0 + dd(z, -h * (e[a] + e[b]))) / (h**2 * d)
                q2[a, b] = q2[b, a] = 0.5 * (m2 - q2[a, a] - q2[b, b])
        for a in range(n):
            for b in range(n):
                q12[a, b] = (dd(h * e[a], h * e[b]) - dd(h * e[a], -h * e[b])
                             - dd(-h * e[a], h * e[b]) + dd(-h * e[a], -h * e[b])) / (4 * h**2 * d)
        return DistanceJet(manifold=self, x=x, y=y, d=d, frame_x=E, frame_y=F,
                           l1=l1, l2=l2, q1=q1, q2=q2, q12=q12)

    # -- internal checks -----------------------------------------------------

    def _check_based(self, x: "Point", v: "TangentVector"):
        if v.point.manifold != self:
            raise InputError("tangent vector not based on this manifold")
        if v.point is not x and not np.allclose(v.point.coords, x.coords,
                                                rtol=0.0, atol=1e-12 * max(self.radius, 1.0)):
            raise InputError("tangent vector is based at a different point")

    def _check_pair(self, x: "Point", y: "Point"):
        if x.manifold != self or y.manifold != self:
            raise InputError("points belong to a different manifold")


def _trig(kind: str, th):
    """(sin, cos) of theta on the sphere, (sinh, cosh) on hyperbolic space."""
    return (np.sin(th), np.cos(th)) if kind == SPHERE else (np.sinh(th), np.cosh(th))


def _guarded_div(a, b, mask, fill):
    """a / b, and `fill` where mask holds, without dividing by b there."""
    if not mask.any():
        return a / b
    return np.where(mask, fill, a / np.where(mask, 1.0, b))


def _jet_scales(kind: str, th, trig=None):
    """The q1 and -q12 jet scales at theta = d/r: theta cot theta and
    theta / sin theta (sphere), theta coth theta and theta / sinh theta
    (hyperbolic; series in K theta^2 below 1e-4), 1 and 1 (Euclidean).
    trig, when given, is _trig(kind, theta), read where theta >= 1e-4."""
    th = np.asarray(th, dtype=float)
    if kind == EUCLIDEAN:
        return np.ones_like(th), np.ones_like(th)
    small = np.abs(th) < 1e-4
    series = small.any()
    ts = np.where(small, 1.0, th) if series else th
    sn, cs = _trig(kind, ts) if trig is None else trig
    if series and trig is not None:
        sn = np.where(small, 1.0, sn)
    qa, qb = ts * cs / sn, ts / sn
    if not series:
        return qa, qb
    K = 1.0 if kind == SPHERE else -1.0
    return (np.where(small, 1.0 - K * th**2 / 3.0 - th**4 / 45.0, qa),
            np.where(small, 1.0 + K * th**2 / 6.0 + 7.0 * th**4 / 360.0, qb))


@dataclass(frozen=True, eq=False)
class Point:
    manifold: ModelManifold
    coords: np.ndarray

    def __post_init__(self):
        m = self.manifold
        c = self.coords
        if c.shape != (m.ambient_dim,):
            raise InputError(f"point needs {m.ambient_dim} ambient coordinates, got {c.shape}")
        if m.kind == SPHERE:
            r2 = m.radius**2
            if not abs(m.ip(c, c) - r2) <= _INVARIANT_TOL * r2:  # NaN fails too
                raise InputError("point is not on the sphere (|<x,x>-r^2| too large)")
        elif m.kind == HYPERBOLIC:
            r2 = m.radius**2
            scale = max(float(np.sum(c * c)), r2)
            if not (abs(m.ip(c, c) + r2) <= _INVARIANT_TOL * scale and c[-1] > 0):
                raise InputError("point is not on the upper hyperboloid")

    def __eq__(self, other):
        return (isinstance(other, Point) and self.manifold == other.manifold
                and np.array_equal(self.coords, other.coords))


@dataclass(frozen=True, eq=False)
class TangentVector:
    point: Point
    components: np.ndarray

    def __post_init__(self):
        m = self.point.manifold
        c = self.components
        if c.shape != (m.ambient_dim,):
            raise InputError("tangent vector has wrong ambient dimension")
        if m.kind != EUCLIDEAN:
            scale = max(float(np.linalg.norm(self.point.coords) * np.linalg.norm(c)), 1.0)
            if abs(m.ip(self.point.coords, c)) > _INVARIANT_TOL * scale:
                raise InputError("vector is not tangent at its base point")

    @property
    def manifold(self) -> ModelManifold:
        return self.point.manifold

    def norm(self) -> float:
        return self.manifold.norm(self)


@dataclass(frozen=True, eq=False)
class DistanceJet:
    """Second-order Taylor data of the distance between two base points.

    l1, l2 are covector components in the adapted frames (the eps
    coefficients of the normalized expansion; multiply by d to recover the
    raw first variation -g u).  q1, q2 are symmetric forms at x and y, and
    q12 pairs T_x M with T_y M; all three are the eps^2 coefficients of the
    normalized expansion in the adapted frames.
    """

    manifold: ModelManifold
    x: Point
    y: Point
    d: float
    frame_x: np.ndarray
    frame_y: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    q12: np.ndarray

    @property
    def u_xy(self) -> TangentVector:
        """Unit tangent at x pointing toward y."""
        return TangentVector(self.x, self.frame_x[:, 0].copy())

    @property
    def u_yx(self) -> TangentVector:
        """Unit tangent at y pointing toward x."""
        return TangentVector(self.y, -self.frame_y[:, 0])


def parse_manifold(spec: str) -> ModelManifold:
    """Parse "euclidean:n", "sphere:n:r", "hyperbolic:n:r"."""
    parts = spec.strip().lower().split(":")
    try:
        kind = parts[0]
        if kind == EUCLIDEAN:
            if len(parts) != 2:
                raise ValueError
            return ModelManifold(EUCLIDEAN, int(parts[1]))
        if kind in (SPHERE, HYPERBOLIC):
            if len(parts) == 2:
                return ModelManifold(kind, int(parts[1]))
            if len(parts) == 3:
                return ModelManifold(kind, int(parts[1]), float(parts[2]))
        raise ValueError
    except (ValueError, IndexError) as exc:
        raise InputError(
            f"bad manifold spec {spec!r}; expected euclidean:n, sphere:n:r or hyperbolic:n:r"
        ) from exc
