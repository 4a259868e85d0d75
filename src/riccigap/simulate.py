"""Single and coupled diffusion paths, the pathwise contraction identity,
and the Lipschitz variance check.

One trajectory driver (`_run_block`) with two step rules, both in the
exponential chart:

- The coupled-step kernel (`_coupled_step`; every A = c g^{-1} on the
  sphere, hyperbolic or Euclidean space, with any drift): the
  parallel-transport coupling, vectorised over pairs.  `run_coupled` and
  the Monte Carlo curvature estimator both step through it.  In flat space
  both points take the same Gaussian increment, and a linear drift its
  exact flow, so the contraction identity holds to machine precision.  On
  curved spaces each noise increment is Gaussian along the geodesic
  direction and of fixed norm sqrt((n - 1) c dt) orthogonal to it, with the
  same covariance as the Gaussian step (a bounded-increment weak Euler
  scheme, Kloeden & Platen 1992, sec. 14.1); a drift adds its Euler
  increment dt F.  A Gaussian orthogonal part w would move log d by a
  multiple of the fluctuating |w|^2 and leave a defect of size
  O(sqrt(T dt)); with |w| fixed the pathwise defect is O(dt).
  A step makes one column-major geometry pass (`_pairs`; sin, cos once).
- The per-pair step (`_step_pair`; fields without constant_inverse_metric,
  such as tensor-constructed or scalar-scaled ones): Gaussian
  Euler-Maruyama.  Each step turns 2n standard normals into one joint
  Gaussian tangent pair with block covariance [[A(x), C+], [C+^T, A(y)]]
  from the parallel extremal coupling.  `step_coupled` is one such step
  with its own draws, and `step_single` the Gaussian step for one point.

`run_coupled` runs one block of trajectories per worker; the estimator
steps all its clouds as one block (rows capped by curvature._ROW_CAP),
each row with its own step size.  Both draw the noise by `_noise_steps`,
from one counter-based stream per trajectory or cloud, a block of steps
at a time, so the noise in memory does not grow with the steps.  Every
pair is stepped row by row: no result depends on the split.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupling import extremal_covariances, sym_psd_sqrt
from .curvature import kappa_pair
from .errors import DivergenceError, InputError
from .fields import DiffusionSpec, LinearDrift
from .manifolds import (_INVARIANT_TOL, EUCLIDEAN, HYPERBOLIC, SPHERE, ModelManifold, Point,
                        _guarded_div, _jet_scales, _trig)

_NOISE_BLOCK = 256  # time steps of noise drawn at once per trajectory


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    trajectories: int
    seed: int = 0
    cut_margin: float = 0.1
    workers: int = 1

    def __post_init__(self):
        if not (0 < self.dt <= self.horizon):
            raise InputError("need 0 < dt <= horizon")
        if self.trajectories < 1:
            raise InputError("need at least one trajectory")
        if self.cut_margin <= 0:
            raise InputError("cut_margin must be positive")
        if self.workers < 1:
            raise InputError("need at least one worker")


@dataclass(frozen=True, eq=False)
class CoupledTrajectory:
    """Recorded states of one coupled pair.

    pair_states holds the final (x, y); log_distance and kappa_integral are
    sampled on `times`; defect is the pathwise violation of the contraction
    identity, log d(t) - log d(0) + int_0^t kappa ds.
    """

    times: np.ndarray
    pair_states: list
    log_distance: np.ndarray
    kappa_integral: np.ndarray
    aborted: bool
    abort_reason: str = ""

    @property
    def defect(self) -> np.ndarray:
        return self.log_distance - self.log_distance[0] + self.kappa_integral


def _traj_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & (2**64 - 1), index & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def step_single(spec: DiffusionSpec, x: Point, dt: float, noise) -> Point:
    """One Euler step in the exponential chart: the tangent increment is the
    drift increment plus sqrt(dt) * A(x)^{1/2} applied to the noise vector
    (components in the deterministic frame at x)."""
    m = spec.manifold
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (m.dim,):
        raise InputError(f"noise must have dimension {m.dim}")
    if dt <= 0:
        raise InputError("dt must be positive")
    E = m.frame(x)
    root = sym_psd_sqrt(spec.diffusion.matrix(x, E))
    return _advance_ambient(spec, x, math.sqrt(dt) * m.from_frame(E, root @ noise), dt)


def _advance_ambient(spec: DiffusionSpec, x: Point, noise_inc: np.ndarray, dt: float) -> Point:
    m = spec.manifold
    drift = spec.drift
    inc = noise_inc
    if isinstance(drift, LinearDrift) and m.kind == EUCLIDEAN:
        inc = inc + (math.exp(-drift.rate * dt) * x.coords - x.coords)  # exact flow
    elif not drift.is_zero:
        inc = inc + dt * drift.vector(x)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        y = m.exp_many(x.coords, m.project_tangent(x.coords, inc))
        ok = bool(np.isfinite(y).all()) and m._on_space(y)
    _check_step(m, ok, y, y)
    return Point(m, y)


def _check_step(m: ModelManifold, ok: bool, X: np.ndarray, Y: np.ndarray):
    """Raise DivergenceError unless a step came out `ok` (its coordinates or
    distances finite) and, on the hyperboloid, every time coordinate of the
    points X and Y is below sqrt((1/_INVARIANT_TOL + 1)/2) r: beyond it
    |x|^2 = 2 x_t^2 - r^2 exceeds r^2/_INVARIANT_TOL, and the Lorentz form
    <x, x>_L = -r^2 has no digits left."""
    if not ok or (m.kind == HYPERBOLIC and np.maximum(X[..., -1], Y[..., -1]).max()
                  >= math.sqrt((1.0 / _INVARIANT_TOL + 1.0) / 2.0) * m.radius):
        raise DivergenceError("a step overflowed, drifted off the model space by more than "
                              "rounding, or ran so far out on the hyperboloid that its Lorentz "
                              "form has no digits left")


def step_coupled(spec: DiffusionSpec, x: Point, y: Point, dt: float,
                 rng: np.random.Generator) -> tuple[Point, Point]:
    """One coupled Euler step with the parallel-transport-extremal block
    covariance.  Coincident points receive identical increments."""
    m = spec.manifold
    if np.array_equal(x.coords, y.coords):
        xn = step_single(spec, x, dt, rng.standard_normal(m.dim))
        return xn, xn
    return _step_pair(spec, x, y, dt, rng.standard_normal(2 * m.dim))


def _step_pair(spec: DiffusionSpec, x: Point, y: Point, dt: float,
               z: np.ndarray) -> tuple[Point, Point]:
    """step_coupled for distinct x, y from the 2n standard normals z."""
    m = spec.manifold
    jet = m.distance_jet(x, y)  # raises CutLocusError unless 0 < d < cut threshold
    A_x = spec.diffusion.matrix(x, jet.frame_x)
    A_y = spec.diffusion.matrix(y, jet.frame_y)
    cplus, _ = extremal_covariances(A_x, A_y, jet)
    blk = np.block([[A_x, cplus.C], [cplus.C.T, A_y]])
    root = sym_psd_sqrt(blk)
    z = root @ z
    return (_advance_ambient(spec, x, math.sqrt(dt) * m.from_frame(jet.frame_x, z[:m.dim]), dt),
            _advance_ambient(spec, y, math.sqrt(dt) * m.from_frame(jet.frame_y, z[m.dim:]), dt))


# ---------------------------------------------------------------------------
# the coupled-step kernel for A = c g^{-1}


class _Pairs(NamedTuple):
    """Stacked pairs at distances d, column-major: u and uy (u') are the unit
    velocities of the geodesic X -> Y at X and Y, fx and fy the drift there,
    trig the (N, 1) columns _trig(theta = d/r); None where unneeded."""

    X: np.ndarray
    Y: np.ndarray
    d: np.ndarray
    u: np.ndarray | None = None
    uy: np.ndarray | None = None
    fx: np.ndarray | None = None
    fy: np.ndarray | None = None
    trig: tuple | None = None


def _pairs(spec: DiffusionSpec, X: np.ndarray, Y: np.ndarray, d: np.ndarray) -> _Pairs:
    """The _Pairs of X, Y at distances d, with u and u' from one sine and
    cosine of theta.  Flat space with zero or linear drift needs no direction;
    pairs closer than 1e-15 (the threshold of transport_many) get u = 0."""
    m = spec.manifold
    if m.kind == EUCLIDEAN and (spec.drift.is_zero or isinstance(spec.drift, LinearDrift)):
        return _Pairs(X, Y, d)
    d1 = d[:, None]
    sn = cs = None
    if m.kind == EUCLIDEAN:
        V = Y - X
    else:
        th = d1 / m.radius
        sn, cs = _trig(m.kind, th)
        V = m.project_tangent(X, (Y - cs * X) * _guarded_div(th, sn, sn < 1e-14, 1.0))
    u = _guarded_div(V, d1, d1 < 1e-15, 0.0)
    uy = u if m.kind == EUCLIDEAN else (-sn if m.kind == SPHERE else sn) * X / m.radius + cs * u
    f = (None, None) if spec.drift.is_zero else (spec.drift.vector_many(m, X),
                                                  spec.drift.vector_many(m, Y))
    return _Pairs(X, Y, d, u, uy, *f, None if sn is None else (sn, cs))


class _Step(NamedTuple):
    """A step size dt (a scalar, or a column with one per row), with the
    noise scale sqrt(c dt) and a flat linear drift's flow exp(-rate dt)."""

    dt: object
    sig: object
    decay: object


def _step(spec: DiffusionSpec, dt) -> _Step:
    flow = isinstance(spec.drift, LinearDrift) and spec.manifold.kind == EUCLIDEAN
    try:
        decay = np.vectorize(lambda h: math.exp(-spec.drift.rate * h))(dt) if flow else 1.0
    except OverflowError:
        raise DivergenceError("the linear drift's flow exp(-rate dt) overflows") from None
    return _Step(dt, np.sqrt(spec.diffusion.constant_inverse_metric * dt), decay)  # = math.sqrt


def _coupled_step(spec: DiffusionSpec, p: _Pairs, z: np.ndarray,
                  dt) -> tuple[np.ndarray, np.ndarray]:
    """One parallel-transport coupled step of every pair in p from ambient
    standard normals z, one row per pair, plus the Euler drift increment (in
    flat space with a zero or linear drift, the common increment and the exact
    flow); dt is a scalar, a column, or their _Step.  The tangent noise zt
    splits into a*u along the geodesic and w across it, of fixed norm
    sqrt(n - 1); X moves by a*u + w, Y by a*u' + w (u = 0: zt at both ends)."""
    m = spec.manifold
    h = dt if isinstance(dt, _Step) else _step(spec, dt)
    if p.u is None:
        # exact: the common Gaussian increment cancels in Y - X
        noise = h.sig * z
        return h.decay * p.X + noise, h.decay * p.Y + noise
    if m.kind == EUCLIDEAN:
        vx = vy = h.sig * z
    else:
        zt = m.tangent_noise(p.X, z)
        a = m.ip(zt, p.u)[:, None]
        vx = a * p.u
        w = zt - vx
        nw = np.sqrt(np.maximum(m.ip(w, w), 0.0))[:, None]
        w *= math.sqrt(m.dim - 1) / np.where(nw > 0.0, nw, 1.0)
        vx += w
        vy = a * p.uy + w
        deg = (p.d < 1e-15)[:, None]
        if deg.any():
            vx, vy = np.where(deg, zt, vx), np.where(deg, zt, vy)
        vx *= h.sig
        vy *= h.sig
    if p.fx is not None:
        vx, vy = vx + h.dt * p.fx, vy + h.dt * p.fy
    return m.exp_many(p.X, vx), m.exp_many(p.Y, vy)


def kappa_fast(spec: DiffusionSpec, d, X=None, Y=None):
    """kappa(x, y) for A = c * g^{-1} at distance d (matches kappa_pair;
    cross-checked in the test suite).  With zero or linear drift it depends
    on d alone.  Any other drift F adds (<u, F(x)> - <u', F(y)>)/d, the
    drift term of kappa_pair, which needs the points: X and Y, stacked."""
    if spec.diffusion.constant_inverse_metric is None:
        raise InputError("kappa_fast needs A = c * g^{-1}")
    d = np.asarray(d, dtype=float)
    if isinstance(spec.drift, LinearDrift) and spec.manifold.kind != EUCLIDEAN:
        raise InputError("linear drift is defined on Euclidean space")
    if spec.drift.is_zero or isinstance(spec.drift, LinearDrift):
        return _kappa(spec, _Pairs(X, Y, d))
    if X is None or Y is None:
        raise InputError("kappa_fast needs the points for a drift other than zero or linear")
    return _kappa(spec, _pairs(spec, np.atleast_2d(X), np.atleast_2d(Y), np.atleast_1d(d)))


def _kappa(spec: DiffusionSpec, p: _Pairs):
    """kappa_fast of p, from the sine and cosine of theta that _pairs kept."""
    m = spec.manifold
    c = spec.diffusion.constant_inverse_metric
    d = np.maximum(p.d, 1e-300)
    drift = spec.drift.rate if isinstance(spec.drift, LinearDrift) else 0.0
    if m.kind == EUCLIDEAN:
        kap = np.full_like(d, drift)
    else:
        trig = None if p.trig is None else tuple(t[:, 0] for t in p.trig)
        qa, qb = _jet_scales(m.kind, d / m.radius, trig)
        kap = drift + c * (m.dim - 1) * (qb - qa) / d**2
    if p.fx is None:
        return kap
    return kap + (m.ip(p.u, p.fx) - m.ip(p.uy, p.fy)) / d


def run_coupled(spec: DiffusionSpec, x0: Point, y0: Point, cfg: SimConfig) -> list[CoupledTrajectory]:
    """Simulate coupled pairs from (x0, y0); reproducible per seed and
    independent of the worker count (per-trajectory counter-based streams,
    one block of trajectories per worker).  A step that overflows or
    leaves the space raises DivergenceError (_check_step)."""
    m = spec.manifold
    if m.kind == SPHERE and cfg.cut_margin >= math.pi * m.radius / 2:
        raise InputError("cut_margin must be below a quarter circumference")
    d0 = m.distance(x0, y0)
    if not 0 < d0 < m.cut_threshold - cfg.cut_margin + 1e-300:
        raise InputError("initial distance must lie in (0, cut threshold - margin)")
    steps = int(round(cfg.horizon / cfg.dt))
    if abs(steps * cfg.dt - cfg.horizon) > 1e-9 * cfg.horizon:
        steps = math.ceil(cfg.horizon / cfg.dt)
    stride = max(1, steps // 512)
    blocks = min(cfg.workers, cfg.trajectories)
    edges = [cfg.trajectories * b // blocks for b in range(blocks + 1)]

    def work(j0, j1):
        return _run_block(spec, x0, y0, cfg, steps, stride, j0, j1 - j0)

    if blocks > 1:
        with ThreadPoolExecutor(max_workers=blocks) as pool:
            runs = list(pool.map(work, edges[:-1], edges[1:]))
    else:
        runs = [work(0, cfg.trajectories)]
    return [tr for run in runs for tr in run]


def _noise_steps(rngs, rows: int, k: int, steps: int, block: int):
    """Ambient standard normals for `steps` steps, one column-major
    (len(rngs) * rows, k) array per step: stream i fills rows i*rows ..
    (i+1)*rows - 1, `block` steps at a time (the numbers of one draw per
    step).  Each is a view into one buffer that the next block overwrites."""
    buf = np.empty((min(block, steps), k, len(rngs) * rows)).transpose(0, 2, 1)
    for s in range(0, steps, block):
        nb = min(block, steps - s)
        for i, rng in enumerate(rngs):
            buf[:nb, i * rows:(i + 1) * rows] = rng.standard_normal((nb, rows, k))
        yield from buf[:nb]


def _run_block(spec: DiffusionSpec, x0: Point, y0: Point, cfg: SimConfig,
               steps: int, stride: int, j0: int, count: int) -> list[CoupledTrajectory]:
    """Trajectories j0 .. j0 + count - 1, stepped together by one step rule:
    the kernel for A = c g^{-1} (k ambient normals a step, column-major), else
    _step_pair and kappa_pair row by row (2n normals a step), each from its
    own stream, _NOISE_BLOCK steps at a time.  A pair stops before it would
    accept d >= cut ('cut-locus') or d <= 0 ('collapse'); the per-row rule
    neither steps nor re-evaluates a stopped pair."""
    m = spec.manifold
    dt = cfg.dt
    cut = m.cut_threshold - cfg.cut_margin
    rngs = [_traj_rng(cfg.seed, j0 + i) for i in range(count)]
    kernel = spec.diffusion.constant_inverse_metric is not None
    X, Y = (np.array(np.broadcast_to(v.coords, (count, m.ambient_dim)),
                     order="F" if kernel else "C") for v in (x0, y0))
    if kernel:
        width = m.ambient_dim
        step = _step(spec, dt)

        def advance(p, z, alive):
            return _coupled_step(spec, p, z, step)

        def settle(X, Y, d, rows):
            p = _pairs(spec, X, Y, d)
            return p, _kappa(spec, p)
    else:
        width = 2 * m.dim

        def advance(p, z, alive):
            Xn, Yn = p.X.copy(), p.Y.copy()
            for i in np.flatnonzero(alive).tolist():  # contiguous z rows for the matmuls
                xn, yn = _step_pair(spec, m.point(p.X[i]), m.point(p.Y[i]), dt, z[i].copy())
                Xn[i], Yn[i] = xn.coords, yn.coords
            return Xn, Yn

        def settle(X, Y, d, rows):
            kap = np.zeros(count)
            for i in np.flatnonzero(rows).tolist():
                kap[i] = kappa_pair(spec, m.point(X[i]), m.point(Y[i])).kappa
            return _Pairs(X, Y, d), kap

    alive = np.ones(count, dtype=bool)
    p, kap = settle(X, Y, m.dist_many(X, Y), alive)
    integral = np.zeros(count)
    reasons = [""] * count
    rec_idx = list(range(0, steps + 1, stride))
    if rec_idx[-1] != steps:
        rec_idx.append(steps)
    times = np.asarray(rec_idx, dtype=float) * dt
    rec_set = set(rec_idx)
    logs = np.empty((count, len(rec_idx)))
    integ = np.empty((count, len(rec_idx)))
    logs[:, 0] = np.log(p.d)
    integ[:, 0] = 0.0
    pos = 1
    for s, z in enumerate(_noise_steps(rngs, 1, width, steps, _NOISE_BLOCK)):
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
            Xn, Yn = advance(p, z, alive)
            dn = m.dist_many(Xn, Yn)
        ok = (dn > 0.0) & (dn < cut)  # NaN and inf fail too, and _check_step rejects them
        halted = not ok.all()
        _check_step(m, not halted or bool(np.isfinite(dn).all()), Xn, Yn)
        if halted:  # rare: alive is rebuilt only on such steps
            for i in np.flatnonzero(alive & ~ok).tolist():
                reasons[i] = "cut-locus" if dn[i] >= cut else "collapse"
            alive = alive & ok
        if alive.all():  # no pair has stopped: nothing to merge
            p, kn = settle(Xn, Yn, dn, alive)
            integral, kap = integral + 0.5 * dt * (kap + kn), kn
        else:
            p, kn = settle(np.where(alive[:, None], Xn, p.X), np.where(alive[:, None], Yn, p.Y),
                           np.where(alive, dn, p.d), alive)
            integral = np.where(alive, integral + 0.5 * dt * (kap + kn), integral)
            kap = np.where(alive, kn, kap)
        if (s + 1) in rec_set:
            logs[:, pos] = np.log(np.maximum(p.d, 1e-300))
            integ[:, pos] = integral
            pos += 1
    return [CoupledTrajectory(
        times=times.copy(), pair_states=[(m.point(p.X[i].copy()), m.point(p.Y[i].copy()))],
        log_distance=logs[i].copy(), kappa_integral=integ[i].copy(), aborted=bool(reasons[i]),
        abort_reason=reasons[i]) for i in range(count)]


# ---------------------------------------------------------------------------
# variance of Lipschitz functions


def uniform_sphere_points(manifold: ModelManifold, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    if manifold.kind != SPHERE:
        raise InputError("uniform sampling implemented on spheres")
    z = rng.standard_normal((count, manifold.ambient_dim))
    return z * (manifold.radius / np.linalg.norm(z, axis=1)[:, None])


def lipschitz_variance_check(manifold: ModelManifold, f=None, samples: int = 10**6,
                             seed: int = 0) -> tuple[float, float, float]:
    """Monte Carlo variance of a 1-Lipschitz function under the uniform
    measure, against the bound by the mean inverse Ricci curvature of the
    unit-diffusivity (full Laplacian) generator.

    Returns (variance estimate, bound, standard error of the estimate).
    Default f is the geodesic distance to a fixed pole.
    """
    if manifold.kind != SPHERE:
        raise InputError("the variance bound needs positive Ricci curvature")
    if manifold.dim < 2:
        raise InputError("Ricci curvature vanishes on the circle")
    if samples < 2:
        raise InputError("the variance needs at least two samples")
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed & (2**64 - 1), 0x11F], dtype=np.uint64)))
    pts = uniform_sphere_points(manifold, samples, rng)
    if f is None:
        pole = np.zeros(manifold.ambient_dim)
        pole[-1] = manifold.radius
        vals = manifold.dist_many(pts, pole[None, :])
    else:
        vals = np.asarray(f(pts), dtype=float)
    var = float(np.var(vals, ddof=1))
    centered = (vals - vals.mean()) ** 2
    se = float(centered.std(ddof=1) / math.sqrt(samples))
    ric_inf = (manifold.dim - 1) / manifold.radius**2
    bound = 1.0 / ric_inf
    return var, bound, se
