"""Exact geometry of the three model spaces (Euclidean, sphere, hyperbolic).

Points live in ambient embedding coordinates: R^n for Euclidean space,
R^{n+1} for the sphere <x,x> = r^2 and for the upper hyperboloid
q(x,x) = -r^2 (q the Lorentz form with signature (n, 1), last coordinate
timelike).  All maps (exp, log, transport, distance and its second-order
jet) are closed form, and so are tangent frames (frame).

The second-order jet of the distance function is stored in the normalized
form d(exp_x(eps v), exp_y(eps w)) = d * [1 + eps*(l1.v + l2.w)
+ eps^2/2*(q1(v,v) + q2(w,w) + 2*q12(v,w))], so l1, l2 carry a 1/d factor
and q1, q2, q12 carry a 1/d^2-ish scale.  Components are expressed in a
pair of geodesic-adapted orthonormal frames: the frame at y is the parallel
transport of the frame at x, whose column 0 is the unit log map.  Column 0
at y is the geodesic's velocity there (_velocity), and the other columns,
orthogonal to the geodesic's plane, are carried over unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError, InputError

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"

_KINDS = (EUCLIDEAN, SPHERE, HYPERBOLIC)

# Tolerances: point/tangency invariants; log-map and jet cut guards, as angles.
_INVARIANT_TOL = 1e-12
_CUT_EPS_LOG = 1e-9
_CUT_EPS_JET = 1e-6
_COINCIDENT = 1e-15  # pairs closer than this have no direction: transport and steps take u = 0
# numpy sums a C-ordered row of up to 7 numbers left to right from +0, and
# pairwise from 8 on; _row_sum repeats the first order column by column.
_SEQUENTIAL_SUM_MAX = 7
_COLUMN_SUM_MIN_SIZE = 512  # below this many numbers one ufunc.reduce is quicker


def _row_sum(f, u: np.ndarray, v: np.ndarray, out=None, tmp=None):
    """np.sum(f(u, v), axis=-1) on C-ordered rows, bit for bit, for an
    elementwise f, into out (f(u, v) into tmp where it is formed whole).  On
    C-ordered rows a sum of columns, as ufunc.reduce costs ~6x as much at
    (8192, 3) and on rows broadcast to (N, N) needs an (N, N, k) array; on
    rows of one shape laid out column by column (column-major, or the halves
    of a _Scratch stack) ufunc.reduce is that sum.  The +0 seed makes a sum
    of -0 terms +0, as numpy's is."""
    k = u.shape[-1]
    if k > _SEQUENTIAL_SUM_MAX or v.shape[-1] != k:
        return np.add.reduce(np.ascontiguousarray(f(u, v)), axis=-1, out=out)  # np.sum, unwrapped
    if (max(u.size, v.size) < _COLUMN_SUM_MIN_SIZE
            or (u.shape == v.shape and u.strides[-2] == v.strides[-2] == u.itemsize)):
        return np.add.reduce(f(u, v, out=tmp), axis=-1, out=out)
    s = np.add(f(u[..., 0], v[..., 0]), 0.0, out=out)
    for j in range(1, k):
        s += f(u[..., j], v[..., j])
    return s


def _squared_difference(x, y, out=None):
    return np.square(np.subtract(y, x, out=out), out=out)  # = (y - x) ** 2


class _Scratch(dict):
    """Named arrays of one block of N pairs, made on first use: s[name] laid
    out like its column-major (N, k) rows `like`, s[name, 1] an (N,) column;
    s.both holds the block's stacks of both ends, (2, N, k), each half laid
    out like `like`.  In _ALLOCATING every s[...] is None, so out=s[...]
    allocates: the kernels' in-place forms are then their public forms."""

    def __init__(self, like):
        super().__init__()
        self.like = like

    def __missing__(self, key):
        buf = self[key] = np.empty_like(self.like[..., 0] if isinstance(key, tuple) else self.like)
        return buf

    @functools.cached_property
    def both(self) -> "_Scratch":
        n, k = self.like.shape
        return _Scratch(np.empty((2, k, n)).transpose(0, 2, 1))


class _Allocating:
    """The scratch whose every s[...] is None; it holds nothing, so all threads share one."""
    __slots__ = ()

    def __getitem__(self, key):
        return None


_ALLOCATING = _Allocating()


def _philox(seed: int, word: int) -> np.random.Generator:
    """The Philox stream keyed by the two 64-bit words seed and word (each mod 2^64)."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed & (2**64 - 1), word & (2**64 - 1)], dtype=np.uint64)))


def _scipy_routine(extension: str, name: str, public: str):
    """Routine `name` of the compiled module scipy.<extension> without running
    its package's __init__ (scipy.optimize's or scipy.linalg's import costs tens
    of MB and tenths of a second, for one routine each): the module in
    sys.modules, else its file in the installed scipy, loaded and registered
    there under that name for a later public import to reuse.  The binding of
    `name` in the public module `public` if the file, module or routine is missing."""
    import importlib.machinery
    import importlib.util
    import os
    import sys

    full = "scipy." + extension
    module = sys.modules.get(full)
    if module is None and (scipy := importlib.util.find_spec("scipy")) is not None:
        stem = os.path.join(os.path.dirname(scipy.origin), *extension.split("."))
        path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                     if os.path.isfile(stem + suffix)), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
    routine = getattr(module, name, None)
    return routine if routine is not None else getattr(importlib.import_module(public), name)


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
    def reach(self) -> float:
        """The bound on a hyperboloid point's time coordinate, sqrt((1/_INVARIANT_TOL
        + 1)/2) r: beyond it |x|^2 > r^2/_INVARIANT_TOL, and <x, x>_L = -r^2 has
        no digits left.  Infinite on the other spaces."""
        top = math.sqrt((1.0 / _INVARIANT_TOL + 1.0) / 2.0)
        return top * self.radius if self.kind == HYPERBOLIC else math.inf

    @property
    def cut_threshold(self) -> float:
        """Distances must stay below this for jets/couplings to be defined."""
        if self.kind == SPHERE:
            return (math.pi - _CUT_EPS_JET) * self.radius
        return math.inf

    def ip(self, u, v):
        """Ambient pairing inducing the metric (Lorentz form if hyperbolic)."""
        return self._ip(np.asarray(u, dtype=float), np.asarray(v, dtype=float), _ALLOCATING)

    def _ip(self, u, v, s: _Scratch, out=None, tmp=None):
        """ip into the column s[out], the products formed in s[tmp]."""
        res = _row_sum(np.multiply, u, v, s[out, 1], s[tmp])
        if self.kind == HYPERBOLIC:
            lor = np.multiply(2.0, u[..., -1], out=s["lorentz", 1])
            lor = np.multiply(lor, v[..., -1], out=s["lorentz", 1])
            res = np.subtract(res, lor, out=s[out, 1])
        return res

    def _on_space(self, c: np.ndarray) -> bool:
        """Whether the ambient coordinates c are finite and lie on the space,
        to within _INVARIANT_TOL relative and, on the hyperboloid, below reach."""
        r2 = self.radius**2
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN compare false
            if self.kind == SPHERE:
                return abs(self.ip(c, c) - r2) <= _INVARIANT_TOL * r2
            if self.kind == HYPERBOLIC:  # on the space |c|^2 = 2 c_t^2 - r^2
                return 0 < c[-1] < self.reach and (
                    abs(self.ip(c, c) + r2) <= _INVARIANT_TOL * max(2.0 * c[-1] ** 2, r2))
        return bool(np.isfinite(c).all())

    # -- points and tangent vectors ----------------------------------------

    def point(self, coords) -> "Point":
        return Point(self, _as_vec(coords))

    def tangent(self, x: "Point", components, project: bool = False) -> "TangentVector":
        c = _as_vec(components)
        if project:
            c = self.project_tangent(x.coords, c)
        return TangentVector(x, c)

    def project_tangent(self, x_coords: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._project(x_coords, v, _ALLOCATING)

    def _project(self, X, V, s: _Scratch, out=None, xx=None):
        """project_tangent into s[out] (which V may be); xx is ip(X, X) if known."""
        if self.kind == EUCLIDEAN:
            return V
        xx = self._ip(X, X, s, "xx", "prod") if xx is None else xx
        q = np.divide(self._ip(V, X, s, "q", "prod"), xx, out=s["q", 1])[..., None]
        return np.subtract(V, np.multiply(q, X, out=s["prod"]), out=s[out])

    def tangent_noise(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Tangent vectors at X with the standard Gaussian law of the metric,
        from ambient standard normals Z.  On the hyperboloid projection would
        not do that, so the first n components of Z (a standard Gaussian at
        the base point) are carried to X by the boost between them."""
        if self.kind != HYPERBOLIC:
            return self.project_tangent(X, Z)
        return self._carry(X, Z[..., :-1])

    def _carry(self, X, W):
        """Vectors W at the pole (0, .., 0, +-r) nearer to X (spatial parts) carried
        to X by the isometry of the plane through the two, with s = <Xs, W>/r: the
        boost (W + Xs s/(r + x_t), s), or the rotation (W - Xs s/(r + |x_t|), -+s)."""
        r = self.radius
        Xs, Xt = X[..., :-1], X[..., -1:]
        s = _row_sum(np.multiply, Xs, W)[..., None] / r
        if self.kind == HYPERBOLIC:
            return np.concatenate([W + Xs * (s / (r + Xt)), s], axis=-1)
        return np.concatenate([W - Xs * (s / (r + np.abs(Xt))), np.where(Xt < 0, s, -s)], axis=-1)

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
        return self._exp(X, V, _ALLOCATING)

    def _exp(self, X, V, s: _Scratch, out=None, tmp=None):
        """exp_many into s[out], with s[tmp] as scratch rows (V's own when V is s's)."""
        r = self.radius
        if self.kind == EUCLIDEAN:
            return np.add(X, V, out=s[out])
        n, t, g, qb, Yb, W = s["n", 1], s["t", 1], s["g", 1], s["q", 1], s[out], s[tmp]
        n = np.sqrt(np.maximum(self._ip(V, V, s, "n", out), 0.0, out=n), out=n)
        t = np.divide(n, r, out=t)
        sn, cs = _trig(self.kind, t, s["sn", 1], s["cs", 1])
        g = np.multiply(r, _guarded_div(sn, n, t < 1e-14, 1.0 / r, g), out=g)[..., None]  # sinc
        Y = np.add(np.multiply(cs[..., None], X, out=Yb), np.multiply(g, V, out=W), out=Yb)
        if self.kind == SPHERE:
            q = _row_sum(np.multiply, Y, Y, qb, W)
        else:
            q = np.maximum(np.negative(self._ip(Y, Y, s, "q", tmp), out=qb), 1e-300, out=qb)
        return np.multiply(Y, np.divide(r, np.sqrt(q, out=qb), out=qb)[..., None], out=Yb)

    def dist_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._dist(X, Y, _ALLOCATING)

    def _dist(self, X, Y, s: _Scratch, out=None):
        """dist_many into the column s[out]."""
        r = self.radius
        d = s[out, 1]
        if self.kind == EUCLIDEAN:  # = np.linalg.norm(Y - X, axis=-1)
            return np.sqrt(_row_sum(_squared_difference, X, Y, d, s["prod"]), out=d)
        if self.kind == SPHERE:
            c = np.divide(self._ip(X, Y, s, out, "prod"), r**2, out=d)
            c = np.minimum(np.maximum(c, -1.0, out=d), 1.0, out=d)  # = np.clip, unwrapped
            return np.multiply(r, np.arccos(c, out=d), out=d)
        c = np.divide(np.negative(self._ip(X, Y, s, out, "prod"), out=d), r**2, out=d)
        return np.multiply(r, np.arccosh(np.maximum(c, 1.0, out=d), out=d), out=d)

    def log_many(self, X: np.ndarray, Y: np.ndarray, d=None) -> np.ndarray:
        """Log map of Y at X (d, when given, is the already-known distance)."""
        return self._log(X, Y, self.dist_many(X, Y) if d is None else d, _ALLOCATING)[0]

    def _log(self, X, Y, d, s: _Scratch, out=None, xx=None):
        """log_many at the distances d into s[out], and the sin and cos (sinh and
        cosh on H) of d/r that it formed, None in flat space; xx is ip(X, X) if known."""
        if self.kind == EUCLIDEAN:
            return np.subtract(Y, X, out=s[out]), None, None
        th = np.divide(d, self.radius, out=s["th", 1])
        sn, cs = _trig(self.kind, th, s["sn", 1], s["cs", 1])
        g = _guarded_div(th, sn, sn < 1e-14, 1.0, s["g", 1])[..., None]  # theta / sin theta
        V = np.subtract(Y, np.multiply(cs[..., None], X, out=s[out]), out=s[out])
        return self._project(X, np.multiply(V, g, out=s[out]), s, out, xx), sn, cs

    def transport_many(self, X, Y, W) -> np.ndarray:
        """Parallel transport of tangent vectors W at X to Y along the geodesic: the
        part along its unit velocity u at X moves onto its velocity at Y, the rest stays."""
        if self.kind == EUCLIDEAN:
            return np.array(W, copy=True)
        V, sn, cs = self._log(X, Y, self.dist_many(X, Y), _ALLOCATING)
        d = np.sqrt(np.maximum(self.ip(V, V), 0.0))[..., None]
        deg = d < _COINCIDENT
        u = _guarded_div(V, d, deg, 0.0)
        out = W + self.ip(W, u)[..., None] * (self._velocity(X, u, sn, cs, _ALLOCATING) - u)
        return np.where(deg, W, out) if deg.any() else out

    def _velocity(self, X, u, sn, cs, s: _Scratch, out=None):
        """The velocity at theta r along the geodesic from X at unit velocity u, from
        theta's sin and cos: -+sin theta X/r + cos theta u (sinh, cosh on H) into s[out]."""
        if self.kind == EUCLIDEAN:
            return np.positive(u, out=s[out])
        V = np.multiply((-sn if self.kind == SPHERE else sn)[..., None], X, out=s[out])
        V = np.divide(V, self.radius, out=V)
        return np.add(V, np.multiply(cs[..., None], u, out=s["prod"]), out=V)

    # -- public single-pair operations --------------------------------------

    def exp_map(self, x: "Point", v: "TangentVector") -> "Point":
        self._check_based(x, v)
        return Point(self, self.exp_many(x.coords, v.components))

    def log_map(self, x: "Point", y: "Point") -> "TangentVector":
        self._check_pair(x, y)
        d = self.dist_many(x.coords, y.coords)
        if self.kind == SPHERE and d >= (math.pi - _CUT_EPS_LOG) * self.radius:
            raise CutLocusError(
                f"log map undefined: d = {d:.17g} is at the cut locus (pi*r = {math.pi*self.radius:.17g})"
            )
        return TangentVector(x, self.log_many(x.coords, y.coords, d))

    def distance(self, x: "Point", y: "Point") -> float:
        self._check_pair(x, y)
        return float(self.dist_many(x.coords, y.coords))

    def parallel_transport(self, v: "TangentVector", y: "Point") -> "TangentVector":
        x = v.point
        self._check_pair(x, y)
        d = self.dist_many(x.coords, y.coords)
        if self.kind == SPHERE and d >= (math.pi - _CUT_EPS_LOG) * self.radius:
            raise CutLocusError("parallel transport undefined at the cut locus")
        return TangentVector(y, self.transport_many(x.coords, y.coords, v.components))

    # -- frames --------------------------------------------------------------

    def frame(self, x: "Point", first: np.ndarray | None = None) -> np.ndarray:
        """Orthonormal tangent frame at x, columns = frame vectors: the axes at
        the pole nearer to x carried to x (_carry), or the axes in flat space.
        Given `first` (a unit tangent vector, ambient), the Householder reflection
        v = e1 + sign(c1) c swaps e1 and -+c, first's components in that frame
        (Golub & Van Loan, Matrix Computations, 5.1), and column 0 is `first`.
        """
        n = self.dim
        E = np.eye(n) if self.kind == EUCLIDEAN else self._carry(x.coords, np.eye(n)).T
        if first is None:
            return E
        first = np.asarray(first, dtype=float)
        c = self.to_frame(E, first)
        v = math.copysign(1.0, c[0]) * c
        v[0] += 1.0
        E = E - np.outer(E @ v, v * (2.0 / (v @ v)))
        E[:, 0] = first
        return E

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
        """Closed-form second-order jet of the distance at (x, y), from one distance
        and one log map, in the frames of the module docstring."""
        self._check_pair(x, y)
        d = float(self.dist_many(x.coords, y.coords))
        if not 0.0 < d < self.cut_threshold:
            raise CutLocusError(f"distance jet needs 0 < d < {self.cut_threshold:.17g}, got {d:.17g}")
        V, sn, cs = self._log(x.coords, y.coords, d, _ALLOCATING)
        norm = math.sqrt(max(self.ip(V, V), 0.0))
        if norm <= 0:
            raise CutLocusError("the distance jet needs two distinct points")
        u = V / norm
        E = self.frame(x, first=u)
        F = E.copy()
        F[:, 0] = self._velocity(x.coords, u, sn, cs, _ALLOCATING)
        if self.kind == EUCLIDEAN:
            qa = qb = 1.0
        else:  # the q1 and -q12 scales: theta cot theta and theta / sin theta (coth, sinh on H)
            th = d / self.radius
            qa, qb = th * cs / sn, th / sn
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
        d(exp_x(eps v), exp_y(eps w)) over distance_jet's frames."""
        jet = self.distance_jet(x, y)  # raises CutLocusError unless 0 < d < cut threshold
        d, E, F = jet.d, jet.frame_x, jet.frame_y
        if not 0.0 < step < d / 10.0:
            raise InputError("step must lie in (0, d/10)")
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


def _trig(kind: str, th, sn=None, cs=None):
    """(sin, cos) of theta on the sphere, (sinh, cosh) on hyperbolic space, into sn, cs."""
    if kind == SPHERE:
        return np.sin(th, out=sn), np.cos(th, out=cs)
    return np.sinh(th, out=sn), np.cosh(th, out=cs)


def _guarded_div(a, b, mask, fill, out=None):
    """a / b into out, and `fill` where mask holds (None: nowhere), not dividing by b there."""
    if mask is None or not np.count_nonzero(mask):  # count_nonzero: a third of any()'s time
        return np.divide(a, b, out=out)
    q = np.where(mask, fill, a / np.where(mask, 1.0, b))
    if out is None:
        return q
    out[...] = q
    return out


@dataclass(frozen=True, eq=False)
class Point:
    manifold: ModelManifold
    coords: np.ndarray

    def __post_init__(self):
        m = self.manifold
        c = self.coords
        if c.shape != (m.ambient_dim,):
            raise InputError(f"point needs {m.ambient_dim} ambient coordinates, got {c.shape}")
        if not m._on_space(c):
            raise InputError("point is not on the sphere (|<x,x>-r^2| too large)"
                             if m.kind == SPHERE else "point is not on the upper hyperboloid")

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
