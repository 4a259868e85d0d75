import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccigap import simulate
from riccigap.cli import main, parse_field
from riccigap.curvature import kappa_pair
from riccigap.errors import InputError
from riccigap.fields import (
    DiffusionSpec,
    InverseMetricField,
    LinearDrift,
    ScalarScaledMetricField,
    ZeroDrift,
    brownian,
    h_admissible_field,
    ornstein_uhlenbeck,
    parse_potential,
    random_riemann_like,
    reversible_potential,
)
from riccigap.manifolds import TangentVector, parse_manifold
from riccigap.simulate import (
    SimConfig,
    kappa_fast,
    lipschitz_variance_check,
    run_coupled,
    step_coupled,
    step_single,
)

E2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere:2:1")


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 41], dtype=np.uint64)))


def test_sim_config_validation():
    with pytest.raises(InputError):
        SimConfig(dt=0.2, horizon=0.1, trajectories=1)
    with pytest.raises(InputError):
        SimConfig(dt=0.1, horizon=0.2, trajectories=0)
    with pytest.raises(InputError):
        SimConfig(dt=0.1, horizon=0.2, trajectories=1, cut_margin=-1.0)


def test_step_single_zero_noise_zero_drift():
    spec = brownian(S2)
    x = S2.point([0.0, 0.0, 1.0])
    y = step_single(spec, x, 1e-3, np.zeros(2))
    assert np.abs(y.coords - x.coords).max() == 0.0


def test_step_single_flat_explicit():
    spec = ornstein_uhlenbeck(E2)
    x = E2.point([1.0, -1.0])
    noise = np.array([0.3, -0.7])
    dt = 1e-3
    y = step_single(spec, x, dt, noise)
    want = math.exp(-dt) * x.coords + math.sqrt(dt) * noise
    assert np.abs(y.coords - want).max() < 1e-15


def test_step_single_sphere_mean_square_displacement():
    # E[d(x, x_t)^2] = n * scale * t + O(t^2) for A = scale * g^{-1}
    spec = brownian(S2)
    g = rng(1)
    x = S2.point([0.0, 0.0, 1.0])
    t = 0.01
    steps = 100
    n = 20000
    X = np.broadcast_to(x.coords, (n, 3)).copy()
    sig = math.sqrt(t / steps)
    for _ in range(steps):
        z = S2.project_tangent(X, g.standard_normal((n, 3)))
        X = S2.exp_many(X, sig * z)
    d2 = S2.dist_many(X, np.broadcast_to(x.coords, (n, 3))) ** 2
    assert d2.mean() == pytest.approx(2 * t, rel=0.05)


def test_step_coupled_identical_at_coincidence():
    spec = brownian(S2)
    x = S2.point([0.0, 0.0, 1.0])
    xn, yn = step_coupled(spec, x, S2.point(x.coords.copy()), 1e-3, rng(2))
    assert np.array_equal(xn.coords, yn.coords)


def test_step_coupled_flat_brownian_parallel():
    spec = brownian(E2)
    x = E2.point([0.0, 0.0])
    y = E2.point([1.0, 0.0])
    g = rng(3)
    for _ in range(5):
        xn, yn = step_coupled(spec, x, y, 1e-3, g)
        assert np.abs((yn.coords - xn.coords) - (y.coords - x.coords)).max() < 1e-12


def test_step_coupled_sphere_moments():
    # one-step E[delta d] = -d kappa dt + O(dt^2); Var[delta d] = O(dt^2)
    spec = brownian(S2)
    x = S2.point([0.0, 0.0, 1.0])
    u = S2.tangent(x, [1.0, 0.0, 0.0])
    y = S2.exp_map(x, TangentVector(x, 0.5 * u.components))
    dt = 1e-4
    draws = 40000
    g = rng(4)
    d0 = 0.5
    # vectorized equivalent of the coupled step for the Brownian fast path
    X = np.broadcast_to(x.coords, (draws, 3)).copy()
    Y = np.broadcast_to(y.coords, (draws, 3)).copy()
    z = S2.project_tangent(X, g.standard_normal((draws, 3)))
    vx = math.sqrt(dt) * z
    vy = math.sqrt(dt) * S2.transport_many(X, Y, z)
    d1 = S2.dist_many(S2.exp_many(X, vx), S2.exp_many(Y, vy))
    delta = d1 - d0
    kap = kappa_pair(spec, x, y).kappa
    assert delta.mean() == pytest.approx(-d0 * kap * dt, rel=0.05)
    assert delta.var() < 10 * dt**2


def test_step_coupled_marginal_matches_single():
    # the x-marginal of the coupled step has the same one-step mean and
    # covariance as the single step (Monte Carlo, tensor field on S2)
    fld = h_admissible_field(S2, random_riemann_like(3, seed=11, psd=True))
    spec = DiffusionSpec(S2, fld, ZeroDrift())
    x = S2.point([0.0, 0.0, 1.0])
    u = S2.tangent(x, [1.0, 0.0, 0.0])
    y = S2.exp_map(x, TangentVector(x, 0.4 * u.components))
    dt = 1e-2
    g = rng(5)
    n = 4000
    coupled = np.stack([step_coupled(spec, x, y, dt, g)[0].coords for _ in range(n)])
    g2 = rng(6)
    single = np.stack([step_single(spec, x, dt, g2.standard_normal(2)).coords
                       for _ in range(n)])
    se = math.sqrt(dt) / math.sqrt(n)
    assert np.abs(coupled.mean(0) - single.mean(0)).max() < 6 * se
    cc = np.cov(coupled.T)
    cs = np.cov(single.T)
    assert np.abs(cc - cs).max() < 10 * dt / math.sqrt(n) * 3


def test_run_coupled_flat_cases_exact():
    x0 = E2.point([0.5, 0.0])
    y0 = E2.point([-0.5, 0.0])
    cfg = SimConfig(dt=1e-3, horizon=0.4, trajectories=8, seed=1)
    for spec, rate in ((brownian(E2), 0.0), (ornstein_uhlenbeck(E2), 1.0)):
        for tr in run_coupled(spec, x0, y0, cfg):
            assert not tr.aborted
            assert np.abs(tr.defect).max() < 1e-10
            want = math.log(1.0) - rate * 0.4
            assert tr.log_distance[-1] == pytest.approx(want, abs=1e-10)


def test_run_coupled_sphere_defect_small_and_shrinking():
    spec = brownian(S2)
    x0 = S2.point([0.0, 0.0, 1.0])
    y0 = S2.exp_map(x0, TangentVector(x0, 0.5 * S2.tangent(x0, [1.0, 0, 0]).components))
    means = []
    for dt in (2e-3, 5e-4):
        cfg = SimConfig(dt=dt, horizon=0.25, trajectories=128, seed=3)
        trajs = run_coupled(spec, x0, y0, cfg)
        assert not any(t.aborted for t in trajs)
        means.append(np.mean([abs(t.defect[-1]) for t in trajs]))
    assert means[0] < 0.05
    assert means[0] / means[1] > 1.5  # defect shrinks under refinement


def test_run_coupled_generic_path_agrees_with_fast():
    # A = 1 * g^{-1} given as a scalar-scaled field is the same law without
    # constant_inverse_metric, so it takes the per-pair Gaussian Euler path;
    # the means of log d(T) and of the kappa integral must agree with the
    # vectorised kernel's within a combined CI
    paths = 100
    for name, make in (("sphere:2:1", brownian),
                       ("sphere:2:1", lambda m: reversible_potential(m, parse_potential("0.3*cos"))),
                       ("hyperbolic:2:1", brownian)):
        m = parse_manifold(name)
        fast = make(m)
        generic = DiffusionSpec(m, ScalarScaledMetricField(lambda x: 1.0), fast.drift)
        x0 = m.point([math.sin(0.6), 0.0, math.cos(0.6)] if m.kind == "sphere" else [0, 0, 1.0])
        y0 = m.exp_map(x0, m.tangent(x0, [0.0, 0.5, 0.0], project=True))
        runs = [run_coupled(spec, x0, y0, SimConfig(dt=1e-2, horizon=0.2, trajectories=paths,
                                                    seed=seed))
                for spec, seed in ((fast, 1), (generic, 2))]
        for what in ("log_distance", "kappa_integral"):
            vals = [np.array([getattr(t, what)[-1] for t in trajs]) for trajs in runs]
            gap = vals[0].mean() - vals[1].mean()
            se = math.hypot(*(v.std(ddof=1) / math.sqrt(paths) for v in vals))
            assert abs(gap) < 4 * se, (name, fast.label, what, gap, se)
    # the per-pair path on a tensor field keeps the defect finite and small
    x0 = S2.point([0.0, 0.0, 1.0])
    y0 = S2.exp_map(x0, TangentVector(x0, 0.5 * S2.tangent(x0, [1.0, 0, 0]).components))
    fld = h_admissible_field(S2, random_riemann_like(3, seed=12, psd=True))
    trajs = run_coupled(DiffusionSpec(S2, fld, ZeroDrift()), x0, y0,
                        SimConfig(dt=1e-2, horizon=0.1, trajectories=6, seed=5))
    assert len(trajs) == 6
    for tr in trajs:
        assert np.isfinite(tr.defect).all()
        assert abs(tr.defect[-1]) < 0.2


def test_run_coupled_abort_near_cut_locus():
    # a double-well zonal potential (minima at both poles) drives the pair
    # apart until the cut guard aborts the trajectory
    from riccigap.fields import parse_potential, reversible_potential

    spec = reversible_potential(S2, parse_potential("poly:0,0,-20"))
    margin = 0.5
    th_x, th_y = 0.35, 2.75
    x0 = S2.point([math.sin(th_x), 0.0, math.cos(th_x)])
    y0 = S2.point([math.sin(th_y), 0.0, math.cos(th_y)])
    cfg = SimConfig(dt=1e-3, horizon=0.2, trajectories=6, seed=7, cut_margin=margin)
    trajs = run_coupled(spec, x0, y0, cfg)
    aborted = [t for t in trajs if t.aborted]
    assert aborted, "expected trajectories to hit the cut guard"
    cut = math.pi - 1e-6 - margin
    for tr in trajs:
        # no recorded state reaches the guard, aborted or not
        assert math.exp(tr.log_distance.max()) < cut + 1e-9
        if tr.aborted:
            assert tr.abort_reason == "cut-locus"


def test_one_abort_rule_for_kernel_and_per_pair_steps(monkeypatch):
    # at step 4 the step puts pair 0 on one point (d = 0 exactly) and pair 1
    # at the antipode, past the cut guard; the kernel and the per-pair rule
    # must both stop them before accepting that state, and step only pair 2
    # afterwards
    stop, steps = 4, 10
    kernel, pair_step = simulate._coupled_step, simulate._step_pair
    pole = np.array([0.0, 0.0, 1.0])
    calls = []

    def forced_kernel(spec, p, z, dt):
        X, Y = kernel(spec, p, z, dt)
        calls.append(len(X))
        if len(calls) == stop:
            X, Y = X.copy(), Y.copy()
            X[0] = Y[0] = pole
            Y[1] = -X[1]
        return X, Y

    def forced_pair(spec, x, y, dt, z):
        xn, yn = pair_step(spec, x, y, dt, z)
        calls.append(1)
        if len(calls) == 3 * stop - 2:
            return S2.point(pole), S2.point(pole)
        if len(calls) == 3 * stop - 1:
            return xn, S2.point(-xn.coords)
        return xn, yn

    monkeypatch.setattr(simulate, "_coupled_step", forced_kernel)
    monkeypatch.setattr(simulate, "_step_pair", forced_pair)
    x0 = S2.point([0.0, 0.0, 1.0])
    y0 = S2.exp_map(x0, TangentVector(x0, 0.5 * S2.tangent(x0, [1.0, 0, 0]).components))
    cfg = SimConfig(dt=1e-2, horizon=steps * 1e-2, trajectories=3, seed=2)
    for spec in (brownian(S2), DiffusionSpec(S2, ScalarScaledMetricField(lambda x: 1.0),
                                             ZeroDrift())):
        calls.clear()
        trajs = run_coupled(spec, x0, y0, cfg)
        assert [(t.aborted, t.abort_reason) for t in trajs] == [
            (True, "collapse"), (True, "cut-locus"), (False, "")]
        for tr in trajs[:2]:
            # recorded at every step: nothing after step stop - 1 is accepted
            assert tr.log_distance.size == steps + 1
            assert (tr.log_distance[stop:] == tr.log_distance[stop - 1]).all()
            assert (tr.kappa_integral[stop:] == tr.kappa_integral[stop - 1]).all()
            x, y = tr.pair_states[-1]
            assert S2.distance(x, y) == pytest.approx(math.exp(tr.log_distance[-1]), rel=1e-12)
            assert 0 < S2.distance(x, y) < math.pi - 1e-6 - cfg.cut_margin
        assert trajs[2].log_distance[-1] != trajs[2].log_distance[stop - 1]
        if spec.diffusion.constant_inverse_metric is None:
            # the stopped pairs are not stepped again
            assert len(calls) == 3 * stop + (steps - stop)
        else:
            assert calls == [3] * steps


def test_run_coupled_reproducible_across_workers():
    spec = brownian(S2)
    x0 = S2.point([0.0, 0.0, 1.0])
    y0 = S2.exp_map(x0, TangentVector(x0, 0.5 * S2.tangent(x0, [1.0, 0, 0]).components))
    out = []
    for workers in (1, 4):
        cfg = SimConfig(dt=1e-3, horizon=0.1, trajectories=520, seed=11, workers=workers)
        out.append(run_coupled(spec, x0, y0, cfg))
    for ta, tb in zip(*out):
        assert np.array_equal(ta.log_distance, tb.log_distance)
        assert np.array_equal(ta.kappa_integral, tb.kappa_integral)


# (manifold, field, x0, y0): the pair is 0.5 apart
BLOCK_CASES = [
    ("sphere:2:1", "brownian", "0,0,1", "0.479425538604203,0,0.8775825618903728"),
    ("sphere:2:1", "potential:0.3*cos", "0,0,1", "0.479425538604203,0,0.8775825618903728"),
    ("hyperbolic:2:1", "brownian", "0,0,1", "0.52109530549374738,0,1.1276259652063807"),
]


@pytest.mark.parametrize("manifold, field, x0, y0", BLOCK_CASES)
def test_run_coupled_and_csv_independent_of_workers_and_blocks(manifold, field, x0, y0,
                                                               monkeypatch):
    # 300 steps: one full noise block of 256 steps and a remainder of 44.
    # The trajectories are those run_coupled returns inside the CLI call.
    dt, horizon = 1e-3, 0.3
    assert round(horizon / dt) % simulate._NOISE_BLOCK != 0
    runs = []

    def recording(*args):
        runs.append(run_coupled(*args))
        return runs[-1]

    monkeypatch.setattr(simulate, "run_coupled", recording)
    runner = CliRunner()
    for paths in (1, 7, 641):
        runs.clear()
        csvs = []
        for workers in (1, 2, 3):
            res = runner.invoke(main, ["simulate", "--manifold", manifold, "--field", field,
                                       "--x0", x0, "--y0", y0, "--dt", str(dt),
                                       "--horizon", str(horizon), "--paths", str(paths),
                                       "--seed", "4", "--workers", str(workers)],
                                catch_exceptions=False)
            assert res.exit_code == 0
            csvs.append(res.stdout_bytes)
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0], (paths, manifold, field)
        assert csvs[0].count(b"\r\n") == 2 + paths * 301
        assert [len(run) for run in runs] == [paths] * 3
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.log_distance, b.log_distance)
                assert np.array_equal(a.kappa_integral, b.kappa_integral)
                assert np.array_equal(a.pair_states[-1][0].coords, b.pair_states[-1][0].coords)
                assert np.array_equal(a.pair_states[-1][1].coords, b.pair_states[-1][1].coords)
                assert (a.aborted, a.abort_reason) == (b.aborted, b.abort_reason)


def test_noise_drawn_in_time_blocks_is_each_trajectorys_own_stream():
    # flat Brownian pairs move by the common increment sqrt(dt) z, so the
    # final X is the running sum of the trajectory's noise, drawn in blocks
    # of _NOISE_BLOCK steps; it must be the sum of one draw of all steps
    steps, dt, seed = 2 * simulate._NOISE_BLOCK + 16, 1e-3, 3
    x0, y0 = E2.point([0.5, 0.0]), E2.point([-0.5, 0.0])
    cfg = SimConfig(dt=dt, horizon=steps * dt, trajectories=5, seed=seed, workers=2)
    for j, tr in enumerate(run_coupled(brownian(E2), x0, y0, cfg)):
        x = x0.coords
        for z in simulate._traj_rng(seed, j).standard_normal((steps, 2)):
            x = 1.0 * x + math.sqrt(dt) * z
        assert np.array_equal(tr.pair_states[-1][0].coords, x), j


def test_run_coupled_noise_memory_does_not_grow_with_steps():
    # drawn at once, the noise of 200 paths x 20,000 steps in R^3 is 96 MB.
    # The noise is drawn by the same code on every space; flat space keeps
    # the 20,000 traced steps short (S^2 takes four times as long traced)
    E3 = parse_manifold("euclidean:3")
    cfg = SimConfig(dt=1e-5, horizon=0.2, trajectories=200, seed=6)
    tracemalloc.start()
    try:
        trajs = run_coupled(brownian(E3), E3.point([0.0, 0.0, 0.0]), E3.point([0.5, 0.0, 0.0]),
                            cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    assert len(trajs) == 200 and trajs[0].times[-1] == pytest.approx(0.2)
    # both points take the same increments: the distance stays 0.5
    assert max(np.abs(t.log_distance - math.log(0.5)).max() for t in trajs) < 1e-12


@pytest.mark.parametrize("name", ["sphere:2:1", "sphere:3:1", "hyperbolic:2:1"])
def test_run_coupled_fast_step_keeps_brownian_law(name):
    # half the Laplacian has the eigenfunction <x, x0> with eigenvalue -n/2
    # on the unit sphere, and -<x, x0>_L (= cosh d(x, x0)) with eigenvalue
    # n/2 on the unit hyperboloid, so E<X_T, x0> = exp(-n T / 2) and
    # E[-<X_T, x0>_L] = exp(n T / 2) for both marginals of the coupled pair
    m = parse_manifold(name)
    sign = 1.0 if m.kind == "sphere" else -1.0
    n = m.dim
    x0 = m.point(np.eye(n + 1)[-1])
    y0 = m.exp_map(x0, TangentVector(x0, 0.5 * np.eye(n + 1)[0]))
    horizon, paths = 0.5, 2000
    cfg = SimConfig(dt=5e-3, horizon=horizon, trajectories=paths, seed=8)
    trajs = run_coupled(brownian(m), x0, y0, cfg)
    assert not any(t.aborted for t in trajs)
    want = math.exp(-sign * n * horizon / 2)
    for end, start in ((0, x0), (1, y0)):
        f = sign * m.ip(np.array([t.pair_states[-1][end].coords for t in trajs]), start.coords)
        se = f.std(ddof=1) / math.sqrt(paths)
        assert abs(f.mean() - want) < 4 * se


def test_run_coupled_fast_step_orthogonal_part_has_fixed_norm():
    # one step: the part of each increment orthogonal to the geodesic has norm
    # exactly sqrt((n - 1) dt) and is the same vector at both ends
    m = parse_manifold("sphere:3:1")
    x0 = m.point([0.0, 0.0, 0.0, 1.0])
    y0 = m.exp_map(x0, TangentVector(x0, np.array([0.5, 0.0, 0.0, 0.0])))
    dt = 1e-3
    cfg = SimConfig(dt=dt, horizon=dt, trajectories=64, seed=9)
    u = m.log_many(x0.coords, y0.coords) / 0.5
    uy = -math.sin(0.5) * x0.coords + math.cos(0.5) * u
    for tr in run_coupled(brownian(m), x0, y0, cfg):
        x1, y1 = tr.pair_states[-1]
        vx = m.log_many(x0.coords, x1.coords)
        vy = m.log_many(y0.coords, y1.coords)
        wx = vx - m.ip(vx, u) * u
        wy = vy - m.ip(vy, uy) * uy
        assert math.sqrt(m.ip(wx, wx)) == pytest.approx(math.sqrt(2 * dt), rel=1e-9)
        assert np.abs(wy - wx).max() < 1e-12
        assert m.ip(vx, u) == pytest.approx(m.ip(vy, uy), rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("manifold, field", [("sphere:2:1", "potential:0.3*cos"),
                                             ("hyperbolic:2:1", "brownian"),
                                             ("euclidean:2", "brownian"), ("euclidean:1", "ou")])
def test_coupled_step_dt_column_equals_scalar_calls(manifold, field):
    # rows with three step sizes, interleaved: each row of the per-row call
    # has the bits of the scalar call on that step size's rows
    m = parse_manifold(manifold)
    spec = parse_field(m, field)
    g = rng(17)
    X, Y = [], []
    for _ in range(9):
        x = m.random_point(g)
        X.append(x.coords)
        Y.append(m.exp_map(x, TangentVector(x, 0.6 * m.random_tangent(g, x).components)).coords)
    X, Y = np.array(X), np.array(Y)
    z = g.standard_normal(X.shape)
    dts = np.array([1e-3, 2e-4, 1e-3, 5e-5, 2e-4, 1e-3, 5e-5, 2e-4, 1e-3])
    d = m.dist_many(X, Y)
    Xn, Yn = simulate._coupled_step(spec, simulate._pairs(spec, X, Y, d), z, dts[:, None])
    for h in (1e-3, 2e-4, 5e-5):
        rows = dts == h
        p = simulate._pairs(spec, X[rows], Y[rows], d[rows])
        xs, ys = simulate._coupled_step(spec, p, z[rows], h)
        assert np.array_equal(Xn[rows], xs) and np.array_equal(Yn[rows], ys), h


# ---------------------------------------------------------------------------
# the fused kernel against the composition of the public geometry kernels


def _reference_scales(kind, th):
    """theta cot theta and theta / sin theta (sinh on H), series below 1e-4."""
    small = np.abs(th) < 1e-4
    ts = np.where(small, 1.0, th)
    if kind == "sphere":
        qa = np.where(small, 1.0 - th**2 / 3.0 - th**4 / 45.0, ts * np.cos(ts) / np.sin(ts))
        qb = np.where(small, 1.0 + th**2 / 6.0 + 7.0 * th**4 / 360.0, ts / np.sin(ts))
    else:
        qa = np.where(small, 1.0 + th**2 / 3.0 - th**4 / 45.0, ts * np.cosh(ts) / np.sinh(ts))
        qb = np.where(small, 1.0 - th**2 / 6.0 + 7.0 * th**4 / 360.0, ts / np.sinh(ts))
    return qa, qb


def _reference_forward_unit(m, X, u, d):
    """The unit velocity at Y of the geodesic X -> Y."""
    th = (d / m.radius)[:, None]
    if m.kind == "sphere":
        return -np.sin(th) * X / m.radius + np.cos(th) * u
    return np.sinh(th) * X / m.radius + np.cosh(th) * u


def _reference_kernel(spec, X, Y, d, z, dt):
    """u, u', kappa and one coupled step, each by its own kernel: log_many,
    tangent_noise, exp_many, the forward unit velocity and the jet scales."""
    m = spec.manifold
    c = spec.diffusion.constant_inverse_metric
    linear = isinstance(spec.drift, LinearDrift)
    sig = np.sqrt(c * dt)  # correctly rounded, as math.sqrt is
    dk = np.maximum(d, 1e-300)
    kap = np.full_like(d, spec.drift.rate if linear else 0.0)
    if m.kind != "euclidean":
        qa, qb = _reference_scales(m.kind, dk / m.radius)
        kap = kap + c * (m.dim - 1) * (qb - qa) / dk**2
    if m.kind == "euclidean" and (linear or spec.drift.is_zero):
        decay = np.vectorize(lambda h: math.exp(-spec.drift.rate * h))(dt) if linear else 1.0
        return None, None, kap, (decay * X + sig * z, decay * Y + sig * z)
    deg = (d < 1e-15)[:, None]
    u = np.where(deg, 0.0, m.log_many(X, Y, d) / np.where(deg, 1.0, d[:, None]))
    uy = u if m.kind == "euclidean" else _reference_forward_unit(m, X, u, d)
    if m.kind == "euclidean":
        vx = vy = sig * z
    else:
        zt = m.tangent_noise(X, z)
        a = m.ip(zt, u)[:, None]
        w = zt - a * u
        nw = np.sqrt(np.maximum(m.ip(w, w), 0.0))[:, None]
        w = w * (math.sqrt(m.dim - 1) / np.where(nw > 0.0, nw, 1.0))
        vx, vy = np.where(deg, zt, a * u + w), np.where(deg, zt, a * uy + w)
        vx, vy = sig * vx, sig * vy
    if not spec.drift.is_zero:
        fx, fy = spec.drift.vector_many(m, X), spec.drift.vector_many(m, Y)
        kap = kap + (m.ip(u, fx) - m.ip(uy, fy)) / dk
        vx, vy = vx + dt * fx, vy + dt * fy
    return u, uy, kap, (m.exp_many(X, vx), m.exp_many(Y, vy))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


_KERNEL_SPECS = [("sphere:2:1", "brownian"), ("sphere:2:1", "potential:0.3*cos"),
                 ("sphere:3:0.7", "brownian"), ("sphere:3:1", "potential:0.3*cos"),
                 ("hyperbolic:2:1", "brownian"), ("hyperbolic:3:3", "brownian"),
                 ("euclidean:1", "brownian"), ("euclidean:1", "ou"),
                 ("euclidean:2", "brownian"), ("euclidean:2", "ou")]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=st.sampled_from(_KERNEL_SPECS), n=st.sampled_from([1, 2, 100, 600]),
       seed=st.integers(0, 2**32 - 1), tiny=st.floats(0.0, 0.3), close=st.floats(0.0, 0.3),
       per_row=st.booleans(), column_major=st.booleans())
@example(case=("sphere:2:1", "brownian"), n=2, seed=0, tiny=1.0, close=0.0, per_row=False,
         column_major=True)
@example(case=("hyperbolic:2:1", "brownian"), n=1, seed=1, tiny=0.0, close=1.0, per_row=True,
         column_major=True)
def test_fused_kernel_matches_composed_kernels_bitwise(case, n, seed, tiny, close, per_row,
                                                      column_major):
    # u, u', kappa and the step of the fused pass against the public kernels
    # on C-ordered rows: pairs at distances up to 2.5 r, a share `close`
    # with theta < 1e-4 (the series) and a share `tiny` with d < 1e-15
    # (u = 0), one step size or one per row, with N on both sides of
    # _COLUMN_SUM_MIN_SIZE
    m = parse_manifold(case[0])
    spec = parse_field(m, case[1])
    g = np.random.default_rng(seed)
    r = 1.0 if m.kind == "euclidean" else m.radius
    X = np.array([m.random_point(g).coords for _ in range(n)])
    V = m.project_tangent(X, g.standard_normal(X.shape))
    V /= np.sqrt(m.ip(V, V))[:, None]
    kind = g.random(n)
    d = np.where(kind < tiny, g.uniform(1e-17, 1e-15, n),
                 np.where(kind < tiny + close, r * 10.0 ** g.uniform(-12, -4, n),
                          r * g.uniform(1e-4, 2.5, n)))
    Y = np.where((d < 1e-15)[:, None], X, m.exp_many(X, d[:, None] * V))
    z = g.standard_normal(X.shape)
    dt = g.choice([1e-3, 2e-4, 5e-5], (n, 1)) if per_row else 1e-3
    u, uy, kap, (Xn, Yn) = _reference_kernel(spec, X, Y, d, z, dt)
    layout = np.asfortranarray if column_major else np.ascontiguousarray
    p = simulate._pairs(spec, layout(X), layout(Y), d)
    if u is not None:
        assert _same_bits(p.u, u) and _same_bits(p.uy, uy)
    assert _same_bits(simulate._kappa(spec, p), kap)
    if spec.drift.is_zero or isinstance(spec.drift, LinearDrift):
        assert _same_bits(kappa_fast(spec, d), kap)
    else:
        assert _same_bits(kappa_fast(spec, d, X, Y), kap)
    got = simulate._coupled_step(spec, p, layout(z), dt)
    assert _same_bits(got[0], Xn) and _same_bits(got[1], Yn)
    # a step size given once for many steps keeps the bits
    got = simulate._coupled_step(spec, p, layout(z), simulate._step(spec, dt))
    assert _same_bits(got[0], Xn) and _same_bits(got[1], Yn)


def test_kappa_fast_matches_kappa_pair():
    for mstr, d in (("sphere:2:1", 0.8), ("sphere:3:2", 1.1), ("hyperbolic:2:1", 0.9)):
        m = parse_manifold(mstr)
        spec = brownian(m)
        g = rng(13)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        y = m.exp_map(x, TangentVector(x, d * u.components))
        assert kappa_fast(spec, d) == pytest.approx(kappa_pair(spec, x, y).kappa, rel=1e-10)
    # a potential drift adds its kappa_pair drift term, which needs the points
    for mstr, d in (("sphere:2:1", 0.8), ("sphere:3:1", 1.1)):
        m = parse_manifold(mstr)
        spec = reversible_potential(m, parse_potential("poly:0.1,0.7,-0.4"))
        g = rng(14)
        x = m.random_point(g)
        y = m.exp_map(x, TangentVector(x, d * m.random_tangent(g, x).components))
        want = kappa_pair(spec, x, y).kappa
        assert kappa_fast(spec, d, x.coords, y.coords)[0] == pytest.approx(want, rel=1e-10)
        with pytest.raises(InputError):
            kappa_fast(spec, d)


def test_kappa_fast_rejects_linear_drift_off_euclidean():
    spec = DiffusionSpec(S2, InverseMetricField(1.0), LinearDrift(1.0))
    with pytest.raises(InputError):
        kappa_fast(spec, 0.5)
    with pytest.raises(InputError):
        run_coupled(spec, S2.point([0.0, 0.0, 1.0]), S2.point([math.sin(0.5), 0.0, math.cos(0.5)]),
                    SimConfig(dt=1e-2, horizon=0.1, trajectories=2))
    flat = ornstein_uhlenbeck(E2, 0.7)
    assert kappa_fast(flat, 0.5) == pytest.approx(0.7, rel=1e-15)


def test_lipschitz_variance_sphere():
    var, bound, se = lipschitz_variance_check(S2, samples=400_000, seed=3)
    assert bound == 1.0
    assert var == pytest.approx((math.pi**2 - 8) / 4, abs=3 * se)
    assert var <= bound + 3 * se
    S3 = parse_manifold("sphere:3:1")
    var3, bound3, se3 = lipschitz_variance_check(S3, samples=200_000, seed=3)
    assert bound3 == 0.5
    assert var3 <= bound3 + 3 * se3


def test_lipschitz_variance_constant_function():
    var, bound, se = lipschitz_variance_check(S2, f=lambda pts: np.zeros(len(pts)),
                                              samples=1000, seed=0)
    assert var == 0.0
    assert var <= bound
