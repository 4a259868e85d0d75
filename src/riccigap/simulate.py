"""Single and coupled diffusion paths, the pathwise contraction identity,
and the Lipschitz variance check.

One coupled step, in the exponential chart, drives every diffusion field:
`_pairs` evaluates the pairs, `_kappa` gives their curvature and
`_coupled_step` moves them.  Both ends of all N pairs are one stacked state,
X over Y: a (2, N, k) block whose halves are the column-major (N, k) rows of
X and of Y, with no copy (manifolds._Scratch.both).  A noise map turns each
pair's standard normals into the velocities of both ends; one tail ends
every step (`_advance`): sqrt(dt) times them plus the Euler drift increment
dt F, the drift evaluated once on the stack, through one exp map, or in flat
space with a zero or linear drift the noise plus the drift's exact flow.

- A = c g^{-1}, any drift: k ambient normals a pair, every row at once (a
  stopped pair too, its result dropped); the parallel-transport coupling.
  Each increment is Gaussian along the geodesic and of fixed norm
  sqrt((n - 1) c dt) across it, with the covariance of the Gaussian step (a
  bounded-increment weak Euler scheme, Kloeden & Platen 1992, sec. 14.1).  A
  Gaussian orthogonal part w would move log d by a multiple of the
  fluctuating |w|^2 and leave a defect of size O(sqrt(T dt)); with |w| fixed
  the pathwise defect is O(dt), and zero in flat space.
- Any other field: 2n normals a pair, row by row (a stopped pair is carried,
  not evaluated); Gaussian Euler-Maruyama.  The normals go through the root
  of [[A(x), C+], [C+^T, A(y)]], the parallel extremal coupling, in the
  frames of one distance jet a pair, which also gives kappa_pair's value.

`step_coupled` is one row of the step, and `step_single` one point through
its tail.  `run_coupled` steps all its trajectories as one block, and the
Monte Carlo estimator all its clouds (rows capped by curvature._ROW_CAP), each
row with its own step size.  Both draw the noise by `_noise_steps`, from one
counter-based stream per trajectory or cloud, a block of steps at a time, so
the noise in memory does not grow with the steps.  A step writes into the
block's scratch: the new stack and d take whichever of two the old ones are
not in, and anything kept longer is a new array.  Every pair is stepped row
by row: no result depends on the split.  The loop that owns a block makes
its scratch, never the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupling import extremal_covariances, sym_psd_sqrt
from .curvature import _pair_kappa, _pair_terms
from .errors import CutLocusError, DivergenceError, InputError
from .fields import DiffusionSpec, LinearDrift
from .manifolds import (EUCLIDEAN, HYPERBOLIC, SPHERE, ModelManifold, Point,
                        _ALLOCATING, _COINCIDENT, _guarded_div, _philox, _Scratch)

_NOISE_BLOCK = 256  # time steps of noise drawn at once per trajectory


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    trajectories: int
    seed: int = 0
    cut_margin: float = 0.1
    """Distance a pair keeps from the cut threshold, in units of the radius."""
    workers: int = 1
    """Validated (at least 1) and otherwise unused: every run is on the calling thread."""

    def __post_init__(self):
        if not (0 < self.dt <= self.horizon):
            raise InputError("need 0 < dt <= horizon")
        if not math.isfinite(self.horizon / self.dt):
            raise InputError(f"horizon / dt is {self.horizon / self.dt}, not a finite step count")
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


def step_single(spec: DiffusionSpec, x: Point, dt: float, noise) -> Point:
    """One Euler step in the exponential chart: the drift increment plus
    sqrt(dt) * A(x)^{1/2} applied to the noise vector (components in the
    deterministic frame at x), by the coupled step's tail (_advance)."""
    m = spec.manifold
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (m.dim,):
        raise InputError(f"noise must have dimension {m.dim}")
    if dt <= 0:
        raise InputError("dt must be positive")
    E, X = m.frame(x), x.coords[None]
    V = m.from_frame(E, sym_psd_sqrt(spec.diffusion.matrix(x, E)) @ noise)[None]
    h = _step(spec, dt)._replace(sig=math.sqrt(dt))  # V carries A's root
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        Xn = _advance(spec, X, V, _drift(spec, X), h, _ALLOCATING)[0]
    _check_step(m, m._on_space(Xn), Xn)
    return Point(m, Xn)


def _check_step(m: ModelManifold, ok: bool, XY: np.ndarray):
    """Raise DivergenceError unless a step came out `ok` (its coordinates or
    distances finite) and, on the hyperboloid, every time coordinate of the
    points XY (a point, or pairs stacked) is below the manifold's reach."""
    if not ok or (m.kind == HYPERBOLIC and XY[..., -1].max() >= m.reach):
        raise DivergenceError("a step overflowed, drifted off the model space by more "
                              "than rounding, or ran so far out on the hyperboloid "
                              "that its Lorentz form has no digits left")


def step_coupled(spec: DiffusionSpec, x: Point, y: Point, dt: float,
                 rng: np.random.Generator) -> tuple[Point, Point]:
    """One coupled step of (x, y): the one-pair case of run_coupled's step,
    from one draw of rng's standard normals, k (A = c g^{-1}) or 2n.
    Coincident points both take one step_single step; any other pair needs
    0 < d < cut threshold (CutLocusError)."""
    m = spec.manifold
    m._check_pair(x, y)
    if np.array_equal(x.coords, y.coords):
        xn = step_single(spec, x, dt, rng.standard_normal(m.dim))
        return xn, xn
    if dt <= 0:
        raise InputError("dt must be positive")
    X, Y = x.coords[None], y.coords[None]
    d = m.dist_many(X, Y)
    if not 0.0 < d[0] < m.cut_threshold:
        raise CutLocusError(f"a coupled step needs 0 < d < {m.cut_threshold:.17g}, got {d[0]:.17g}")
    z = rng.standard_normal((1, 2 * m.dim if spec.diffusion.constant_inverse_metric is None
                             else m.ambient_dim))
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
        Xn, Yn = XYn = _coupled_step(spec, _pairs(spec, X, Y, d), z, dt)
    _check_step(m, m._on_space(Xn[0]) and m._on_space(Yn[0]), XYn)
    return Point(m, Xn[0].copy()), Point(m, Yn[0].copy())


# ---------------------------------------------------------------------------
# the coupled step


class _Pairs(NamedTuple):
    """Pairs at distances d: XY holds both ends, X over Y, as a (2, N, k) stack of s,
    the block's _Scratch (manifolds), and F the drift at XY (_drift).  A = c g^{-1}:
    u and uy (u') are the unit velocities of the geodesic X -> Y at X and Y, the halves
    of s.both["u"], xx = ip(X, X), and deg marks pairs closer than _COINCIDENT (u = 0).
    Else jets maps each live row to its distance jet and _pair_terms.  None if unneeded."""

    XY: np.ndarray
    d: np.ndarray
    u: np.ndarray | None = None
    uy: np.ndarray | None = None
    F: np.ndarray | None = None
    xx: np.ndarray | None = None
    deg: np.ndarray | None = None
    jets: dict | None = None
    s: _Scratch | None = None


def _drift(spec: DiffusionSpec, XY: np.ndarray) -> np.ndarray | None:
    """The drift at XY for the Euler increment; None if zero or a flow (_advance)."""
    m = spec.manifold
    if spec.drift.is_zero or (m.kind == EUCLIDEAN and isinstance(spec.drift, LinearDrift)):
        return None
    return spec.drift.vector_many(m, XY)


def _pairs(spec: DiffusionSpec, X: np.ndarray, Y: np.ndarray, d: np.ndarray,
           s: _Scratch | None = None, XY: np.ndarray | None = None, live=None) -> _Pairs:
    """The _Pairs of X, Y at distances d in the block's scratch s, given XY, the
    stack whose halves they are (else a new scratch, and they are copied into
    its stack), the drift evaluated once, on XY.  A = c g^{-1}: on the (N, k)
    halves, u from ModelManifold._log and u' from _velocity with _log's sin and
    cos (no u in flat space with zero or linear drift).  Else a distance jet
    and its _pair_terms on each row of the mask `live` (all by default)."""
    m = spec.manifold
    s = _Scratch(np.empty(np.shape(X), order="F")) if s is None else s
    if XY is None:
        X, Y = XY = np.stack((X, Y), out=s.both["X0"])
    F = _drift(spec, XY)
    if spec.diffusion.constant_inverse_metric is None:
        jets = {}
        for i in (range(len(d)) if live is None else np.flatnonzero(live).tolist()):
            jet = m.distance_jet(m.point(X[i].copy()), m.point(Y[i].copy()))
            jets[i] = (jet, *_pair_terms(spec, jet))
        return _Pairs(XY, d, F=F, jets=jets, s=s)
    if m.kind == EUCLIDEAN and F is None:
        return _Pairs(XY, d, s=s)
    xx = None if m.kind == EUCLIDEAN else m._ip(X, X, s, "xx", "prod")
    s["u"], s["uy"] = s.both["u"]  # u over u': one stack for _kappa's drift term
    V, sn, cs = m._log(X, Y, d, s, "u", xx)
    deg = (d < _COINCIDENT)[:, None]
    u = _guarded_div(V, d[:, None], deg, 0.0, s["u"])
    uy = m._velocity(X, u, sn, cs, s, "uy")
    return _Pairs(XY, d, u, uy, F, xx, deg, s=s)


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
    c = spec.diffusion.constant_inverse_metric or 1.0  # 1: the noise map carries A's root
    return _Step(dt, np.sqrt(c * dt), decay)  # = math.sqrt


def _coupled_step(spec: DiffusionSpec, p: _Pairs, z: np.ndarray, dt) -> np.ndarray:
    """One coupled step of the pairs p from standard normals z, a row a pair,
    into the state stack of p.s that p is not in; dt is a scalar, a column, or
    their _Step.  A = c g^{-1}: the tangent noise zt at X splits into a*u
    along the geodesic and w across it, of norm sqrt(n - 1); X moves by
    a*u + w, Y by a*u' + w (zt where p.deg, z in flat space).  Else each row of
    p.jets takes its 2n normals through the root of [[A(x), C+], [C+^T, A(y)]]
    into its jet's frames, and the other rows get no noise.  Then _advance."""
    m = spec.manifold
    h = dt if isinstance(dt, _Step) else _step(spec, dt)
    s, b = p.s, p.s.both
    nxt = "X1" if p.XY is b["X0"] else "X0"
    VX, VY = V = b["v"]
    if p.jets is not None:
        V.fill(0.0)
        for i, (jet, A_x, A_y, _, _) in p.jets.items():
            C = extremal_covariances(A_x, A_y, jet)[0].C
            w = sym_psd_sqrt(np.block([[A_x, C], [C.T, A_y]])) @ z[i]
            VX[i], VY[i] = jet.frame_x @ w[:m.dim], jet.frame_y @ w[m.dim:]
    elif p.u is None:
        V = z  # exact: the common Gaussian increment cancels in Y - X
    elif m.kind == EUCLIDEAN:
        np.copyto(V, z)
    else:
        X = p.XY[0]
        zt = (m.tangent_noise(X, z) if m.kind == HYPERBOLIC  # no ip(X, X): a boost
              else m._project(X, z, s, "zt", p.xx))
        a, W, NW = m._ip(zt, p.u, s, "a", "prod")[:, None], s["w"], s["nw", 1]
        vx = np.multiply(a, p.u, out=VX)
        w = np.subtract(zt, vx, out=W)
        nw = np.sqrt(np.maximum(m._ip(w, w, s, "nw", "prod"), 0.0, out=NW), out=NW)
        nw = np.divide(math.sqrt(m.dim - 1), np.where(nw > 0.0, nw, 1.0), out=NW)
        w = np.multiply(w, nw[:, None], out=W)
        np.add(vx, w, out=VX)
        np.add(np.multiply(a, p.uy, out=VY), w, out=VY)
        if p.deg.any():
            np.copyto(V, zt, where=p.deg)
    return _advance(spec, p.XY, V, p.F, h, b, nxt)


def _advance(spec: DiffusionSpec, XY, V, F, h: _Step, s, out=None) -> np.ndarray:
    """XY (pairs stacked, or points) moved by V times h.sig (into s["v"], which
    V may be) plus the Euler increment h.dt F through one exp map into s[out];
    in flat space with no F, the noise plus the exact flow h.decay XY."""
    m = spec.manifold
    V = np.multiply(V, h.sig, out=s["v"])
    if F is None and m.kind == EUCLIDEAN:
        return np.add(np.multiply(h.decay, XY, out=s[out]), V, out=s[out])
    if F is not None:
        V = np.add(V, np.multiply(h.dt, F, out=s["prod"]), out=V)
    return m._exp(XY, V, s, out, "v")


def kappa_fast(spec: DiffusionSpec, d, X=None, Y=None):
    """kappa(x, y) for A = c * g^{-1} at distance d (matches kappa_pair; cross-checked in
    the test suite): its curvature part to a few ulps at every d >= 0, the d -> 0 limit at
    d = 0.  With zero or linear drift it depends on d alone; any other drift F adds (<u, F(x)>
    - <u', F(y)>)/d, the drift term of kappa_pair, which needs the points: X and Y, stacked."""
    if spec.diffusion.constant_inverse_metric is None:
        raise InputError("kappa_fast needs A = c * g^{-1}")
    d = np.asarray(d, dtype=float)
    if isinstance(spec.drift, LinearDrift) and spec.manifold.kind != EUCLIDEAN:
        raise InputError("linear drift is defined on Euclidean space")
    if spec.drift.is_zero or isinstance(spec.drift, LinearDrift):
        return _kappa(spec, _Pairs(None, d))
    if X is None or Y is None:
        raise InputError("kappa_fast needs the points for a drift other than zero or linear")
    return _kappa(spec, _pairs(spec, np.atleast_2d(X), np.atleast_2d(Y), np.atleast_1d(d)))


def _kappa(spec: DiffusionSpec, p: _Pairs):
    """kappa of p.  Given p.jets, kappa_pair's bits on their rows (_pair_kappa), 0 elsewhere.
    Else kappa_fast: c (n - 1)(theta / sin theta - theta cot theta)/d^2 at theta = d/r is
    c (n - 1) h/r^2, h = tan(theta/2)/theta (S) or -tanh(theta/2)/theta (H), which subtracts
    nothing; below theta = 1e-8, h is its limit +-1/2 to rounding and is taken as that."""
    if p.jets is not None:
        return np.array([_pair_kappa(*p.jets[i])[0] if i in p.jets else 0.0
                         for i in range(len(p.d))])
    m = spec.manifold
    c = spec.diffusion.constant_inverse_metric
    drift = spec.drift.rate if isinstance(spec.drift, LinearDrift) else 0.0
    if m.kind == EUCLIDEAN:
        kap = np.full_like(p.d, drift)
    else:
        th = p.d / m.radius
        half = np.tan(th / 2) if m.kind == SPHERE else -np.tanh(th / 2)
        h = _guarded_div(half, th, th < 1e-8, 0.5 if m.kind == SPHERE else -0.5)
        kap = drift + c * (m.dim - 1) * h / m.radius**2
    if p.F is None:
        return kap
    f = m._ip(p.s.both["u"], p.F, p.s.both, "f", "prod")  # <u, F(x)> over <u', F(y)>
    return kap + (f[0] - f[1]) / np.maximum(p.d, 1e-300)


def run_coupled(spec: DiffusionSpec, x0: Point, y0: Point, cfg: SimConfig) -> list[CoupledTrajectory]:
    """Simulate coupled pairs from (x0, y0) on the calling thread;
    reproducible per seed (a counter-based stream per trajectory), so
    independent of cfg.workers, which is validated and otherwise unused.
    A step that overflows or leaves the space raises DivergenceError
    (_check_step)."""
    m = spec.manifold
    times, logs, integ, reasons, X, Y = _run_block(spec, x0, y0, cfg)
    return [CoupledTrajectory(  # views of the block's arrays
        times=times, pair_states=[(m.point(X[i].copy()), m.point(Y[i].copy()))],
        log_distance=logs[i], kappa_integral=integ[i], aborted=bool(reasons[i]),
        abort_reason=reasons[i]) for i in range(len(reasons))]


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


def _run_block(spec: DiffusionSpec, x0: Point, y0: Point, cfg: SimConfig) -> tuple:
    """run_coupled's checks and run, as arrays: all cfg.trajectories
    trajectories, stepped together by the one coupled step from k or 2n
    normals a pair-step (column-major), each from its own stream,
    _NOISE_BLOCK steps at a time.  A pair stops before it would accept
    d >= cut ('cut-locus') or d <= 0 ('collapse') and is carried from then on.
    Returns the times, log d and kappa integral (a row a trajectory), abort
    reasons and final X, Y: the CLI's table reads these without building
    run_coupled's Points and CoupledTrajectory objects.  The step writes into
    the block's own _Scratch, each step's stack X over Y and its d into the
    one of two the last step's are not in; what is kept past the next step
    (kappa, integral, records) is a new array, and the final X, Y are the
    scratch's, written no more once the block ends."""
    m = spec.manifold
    if m.kind == SPHERE and cfg.cut_margin >= math.pi / 2:
        raise InputError("cut_margin must be below pi/2, a quarter circumference in radii")
    dt = cfg.dt
    cut = m.cut_threshold - cfg.cut_margin * m.radius
    if not 0 < m.distance(x0, y0) < cut + 1e-300:
        raise InputError("initial distance must lie in (0, cut threshold - margin)")
    steps = int(round(cfg.horizon / dt))
    if abs(steps * dt - cfg.horizon) > 1e-9 * cfg.horizon:
        steps = math.ceil(cfg.horizon / dt)
    count = cfg.trajectories
    rngs = [_philox(cfg.seed, i) for i in range(count)]
    scratch = _Scratch(np.empty((count, m.ambient_dim), order="F"))
    XY = scratch.both["X0"]
    XY[0], XY[1] = x0.coords, y0.coords
    step = _step(spec, dt)
    alive = np.ones(count, dtype=bool)
    p = _pairs(spec, *XY, m.dist_many(*XY), scratch, XY, alive)
    kap = _kappa(spec, p)
    integral = np.zeros(count)
    reasons = [""] * count
    rec_idx = list(range(0, steps + 1, max(1, steps // 512)))
    if rec_idx[-1] != steps:
        rec_idx.append(steps)
    times = np.asarray(rec_idx, dtype=float) * dt
    rec_set = set(rec_idx)
    logs = np.empty((count, len(rec_idx)))
    integ = np.empty((count, len(rec_idx)))
    logs[:, 0] = np.log(p.d)
    integ[:, 0] = 0.0
    pos = 1
    width = 2 * m.dim if spec.diffusion.constant_inverse_metric is None else m.ambient_dim
    for s, z in enumerate(_noise_steps(rngs, 1, width, steps, _NOISE_BLOCK)):
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below
            Xn, Yn = XYn = np.asarray(_coupled_step(spec, p, z, step))  # an (X, Y) pair is stacked
            dn = m._dist(Xn, Yn, scratch, "d1" if p.d is scratch["d0", 1] else "d0")
        ok = (dn > 0.0) & (dn < cut)  # NaN and inf fail too, and _check_step rejects them
        halted = not ok.all()
        _check_step(m, not halted or bool(np.isfinite(dn).all()), XYn)
        if halted:  # rare: alive is rebuilt only on such steps
            for i in np.flatnonzero(alive & ~ok).tolist():
                reasons[i] = "cut-locus" if dn[i] >= cut else "collapse"
            alive = alive & ok
        carry = not alive.all()  # a stopped pair keeps its last state, kappa and integral
        if carry:
            XYn, dn = np.where(alive[:, None], XYn, p.XY), np.where(alive, dn, p.d)
        p = _pairs(spec, *XYn, dn, scratch, XYn, alive)
        kn = _kappa(spec, p)
        inc = integral + 0.5 * dt * (kap + kn)
        if carry:
            inc, kn = np.where(alive, inc, integral), np.where(alive, kn, kap)
        integral, kap = inc, kn
        if (s + 1) in rec_set:
            logs[:, pos] = np.log(np.maximum(p.d, 1e-300))
            integ[:, pos] = integral
            pos += 1
    return times, logs, integ, reasons, *p.XY


# ---------------------------------------------------------------------------
# variance of Lipschitz functions


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
    rng = _philox(seed, 0x11F)
    pts = rng.standard_normal((samples, manifold.ambient_dim))
    pts *= manifold.radius / np.linalg.norm(pts, axis=1)[:, None]
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
