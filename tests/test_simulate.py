import contextlib
import functools
import hashlib
import inspect
import math
import signal
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccigap import manifolds, simulate
from riccigap.cli import main, parse_field, simulate_rows
from riccigap.curvature import estimate_kappa_direct, kappa_dir, kappa_pair
from riccigap.errors import CutLocusError, DivergenceError, InputError
from riccigap.fields import (
    ConstantFrameField,
    DiffusionSpec,
    InverseMetricField,
    LinearDrift,
    ScalarScaledMetricField,
    TensorConstructedField,
    ZeroDrift,
    brownian,
    h_admissible_field,
    ornstein_uhlenbeck,
    parse_potential,
    random_riemann_like,
    reversible_potential,
    tensor_diffusion,
)
from riccigap.manifolds import ModelManifold, TangentVector, parse_manifold
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
    for dt, horizon in ((1e-3, math.inf), (1e-3, 1e308), (math.inf, math.inf)):
        with pytest.raises(InputError, match="not a finite step count"):
            SimConfig(dt=dt, horizon=horizon, trajectories=1)


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


def test_run_coupled_per_pair_rule_keeps_flat_distance_exactly():
    # a constant tensor on flat space: C+ = A and the joint covariance
    # [[A, A], [A, A]] has rank n, so X and Y take the same increment and
    # Y - X never moves; an error e in C+ enters the block's root as
    # ~sqrt(e) and pushes the two apart
    cfg = SimConfig(dt=1e-3, horizon=0.2, trajectories=4, seed=3)
    for A in (np.array([[1.3, 0.4], [0.4, 0.6]]),
              np.array([[2.0, 0.4, 0.0], [0.4, 1.0, -0.2], [0.0, -0.2, 0.7]])):
        n = len(A)
        m = parse_manifold(f"euclidean:{n}")
        spec = DiffusionSpec(m, ConstantFrameField(A), ZeroDrift())
        x0 = m.point([0.5, 0.2, 0.0][:n])
        y0 = m.point([-0.5, 0.1, 0.3][:n])
        for tr in run_coupled(spec, x0, y0, cfg):
            assert not tr.aborted
            assert np.abs(tr.log_distance - tr.log_distance[0]).max() <= 1e-12


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
    # at the antipode, past the cut guard; the step must stop them before
    # accepting that state, for the kernel's noise map and the per-pair one,
    # and the per-pair rule evaluates only pair 2 afterwards
    stop, steps = 4, 10
    kernel = simulate._coupled_step
    pole = np.array([0.0, 0.0, 1.0])
    calls = []

    def forced(spec, p, z, dt):
        X, Y = kernel(spec, p, z, dt)
        calls.append(len(X))
        if len(calls) == stop:
            X, Y = X.copy(), Y.copy()
            X[0] = Y[0] = pole
            Y[1] = -X[1]
        return X, Y

    monkeypatch.setattr(simulate, "_coupled_step", forced)
    x0 = S2.point([0.0, 0.0, 1.0])
    y0 = S2.exp_map(x0, TangentVector(x0, 0.5 * S2.tangent(x0, [1.0, 0, 0]).components))
    cfg = SimConfig(dt=1e-2, horizon=steps * 1e-2, trajectories=3, seed=2)
    for spec in (brownian(S2), DiffusionSpec(S2, ScalarScaledMetricField(lambda x: 1.0),
                                             ZeroDrift())):
        calls.clear()
        with mock.patch.object(ModelManifold, "distance_jet", autospec=True,
                               side_effect=ModelManifold.distance_jet) as jets:
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
        assert calls == [3] * steps
        if spec.diffusion.constant_inverse_metric is None:
            # one jet a live pair at the start and after each step: the
            # stopped pairs are not evaluated again
            assert jets.call_count == 3 * stop + (steps + 1 - stop)
        else:
            assert jets.call_count == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_per_pair_blow_up_is_a_numerical_error(seed):
    # A(x) of this field grows with the Lorentz position, so the Euler paths
    # run out to infinity within 100 steps, overflowing (seed 1) or leaving
    # the hyperboloid (seed 0): a numerical failure, raised with no
    # floating-point warning on the way, not invalid input
    H2 = parse_manifold("hyperbolic:2:1")
    spec = DiffusionSpec(H2, h_admissible_field(H2, random_riemann_like(3, seed=4, psd=True)),
                         ZeroDrift())
    x = H2.point([-0.353, -0.208, math.sqrt(1.0 + 0.353**2 + 0.208**2)])
    y = H2.exp_map(x, H2.tangent(x, [0.2, 0.1, 0.0], project=True))
    with pytest.raises(DivergenceError):
        run_coupled(spec, x, y, SimConfig(dt=1e-3, horizon=0.1, trajectories=3, seed=seed))


class _Overrun(BaseException):
    """Raised by _time_budget.  Not an Exception: the CLI maps OSError (and
    so TimeoutError) to exit 2, and sweep catches every Exception, so either
    would turn a run that overruns its budget into a clean-looking result."""


@contextlib.contextmanager
def _time_budget(seconds):
    """Raise _Overrun in the block if it runs for more than `seconds`."""
    def expire(*_):
        raise _Overrun(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_a_step_whose_lorentz_form_has_no_digits_left_is_a_numerical_error():
    # this path runs out to |x| ~ 5e7 on H3, where <x, x>_L rounds to 0 while
    # the 1e-12 |x|^2 tolerance of a point still admits it.  The step
    # past the reach raises DivergenceError, promptly and with no warning
    H3 = parse_manifold("hyperbolic:3:1")
    spec = DiffusionSpec(H3, h_admissible_field(H3, random_riemann_like(4, seed=4, psd=True)),
                         ZeroDrift())
    g = np.random.default_rng(4)
    H3.random_tangent(g, H3.random_point(g))
    x = H3.random_point(g)
    y = H3.exp_map(x, TangentVector(x, 0.3 * H3.random_tangent(g, x).components))
    with _time_budget(20.0), warnings.catch_warnings(), pytest.raises(DivergenceError):
        warnings.simplefilter("error", RuntimeWarning)
        run_coupled(spec, x, y, SimConfig(dt=1e-3, horizon=0.1, trajectories=3, seed=3))


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


def record_runs(monkeypatch):
    """The arguments of each run the simulator makes, run_coupled's or the
    CLI table's (both go through simulate._run_block), in order."""
    calls, run = [], simulate._run_block

    def recording(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(simulate, "_run_block", recording)
    return calls


@pytest.mark.parametrize("manifold, field, x0, y0", BLOCK_CASES)
def test_run_coupled_and_csv_independent_of_workers_and_blocks(manifold, field, x0, y0,
                                                               monkeypatch):
    # 300 steps: one full noise block of 256 steps and a remainder of 44.
    # The trajectories are those run_coupled returns for the CLI call's run.
    dt, horizon = 1e-3, 0.3
    assert round(horizon / dt) % simulate._NOISE_BLOCK != 0
    calls = record_runs(monkeypatch)
    runner = CliRunner()
    for paths in (1, 7, 641):
        calls.clear()
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
        runs = [run_coupled(*args) for args in list(calls)]
        assert [len(run) for run in runs] == [paths] * 3
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.log_distance, b.log_distance)
                assert np.array_equal(a.kappa_integral, b.kappa_integral)
                assert np.array_equal(a.pair_states[-1][0].coords, b.pair_states[-1][0].coords)
                assert np.array_equal(a.pair_states[-1][1].coords, b.pair_states[-1][1].coords)
                assert (a.aborted, a.abort_reason) == (b.aborted, b.abort_reason)


# (name, spec, x0, y0, cut margin, sha256 of run_coupled's trajectories): 5 paths of 300
# steps, pinned while the step still allocated every array it wrote.  The double well
# aborts all 5 at the cut guard.
RUN_PINS = [
    ("S2-brownian", lambda: brownian(S2), [0.0, 0.0, 1.0],
     [0.479425538604203, 0.0, 0.8775825618903728], 0.1,
     "8685617b4d0be1c7d07a8bdbb56ddd8069a8dc3de16c043e235454f08534d820"),
    ("S2-potential", lambda: reversible_potential(S2, parse_potential("0.3*cos")),
     [0.0, 0.0, 1.0], [0.479425538604203, 0.0, 0.8775825618903728], 0.1,
     "17693d0686acc77459e9b6eea9250a097e0d58617b24770d14a192fe152687cb"),
    ("H2-brownian", lambda: brownian(parse_manifold("hyperbolic:2:1")), [0.0, 0.0, 1.0],
     [0.52109530549374738, 0.0, 1.1276259652063807], 0.1,
     "9c2db064ef9e8d9918f355370252439ef89de5ce7d3ef6dd167f246418616d6a"),
    ("E2-ou", lambda: ornstein_uhlenbeck(E2), [0.4, 0.0], [-0.1, 0.0], 0.1,
     "d96207160e200b72428f79eb0407d2c23c26b1c36119b55900ad092eaabe2c8f"),
    ("S2-double-well", lambda: reversible_potential(S2, parse_potential("poly:0,0,-20")),
     [math.sin(0.35), 0.0, math.cos(0.35)], [math.sin(2.75), 0.0, math.cos(2.75)], 0.5,
     "09f568339a991ad8379fabfd5f9cd3f3d0cfd0201770353311a3e70977a7982d"),
]


def run_pin_digest(case, workers):
    _, spec, x0, y0, margin, _ = case
    spec = spec()
    m = spec.manifold
    cfg = SimConfig(dt=1e-3, horizon=0.3, trajectories=5, seed=21, workers=workers,
                    cut_margin=margin)
    h = hashlib.sha256()
    for tr in run_coupled(spec, m.point(x0), m.point(y0), cfg):
        for a in (tr.times, tr.log_distance, tr.kappa_integral,
                  *(p.coords for p in tr.pair_states[-1])):
            h.update(a.tobytes())
        h.update(tr.abort_reason.encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", RUN_PINS, ids=[c[0] for c in RUN_PINS])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_coupled_pinned_bits(case, workers):
    assert run_pin_digest(case, workers) == case[-1]


@pytest.mark.parametrize("case", RUN_PINS, ids=[c[0] for c in RUN_PINS])
def test_run_coupled_pinned_bits_beside_a_thread_on_the_public_kernels(case):
    # the public kernels all share one stateless all-None scratch: a third
    # thread calling them in a loop, with the interpreter switching threads
    # every 10 us, moves neither the run's bits nor its own
    X = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    V = np.array([[0.3, -0.2, 0.1], [0.1, 0.5, 0.2]])
    want = (S2.exp_many(X, S2.project_tangent(X, V)), S2.project_tangent(X, V))
    stop, calls, bad = threading.Event(), [], []

    def loop():
        while not stop.is_set():
            got = (S2.exp_many(X, S2.project_tangent(X, V)), S2.project_tangent(X, V))
            calls.append(1)
            if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                bad.append(got)

    other = threading.Thread(target=loop, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    other.start()
    try:
        digest = run_pin_digest(case, 2)
    finally:
        stop.set()
        other.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not other.is_alive()
    assert digest == case[-1]
    assert calls and bad == []


def record_manifold_threads(monkeypatch) -> list:
    """Patch every public ModelManifold method to log the ident of the thread
    that calls it; returns the log."""
    idents = []

    def record(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            idents.append(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    for name, fn in list(vars(ModelManifold).items()):
        if inspect.isfunction(fn) and not name.startswith("_"):
            monkeypatch.setattr(ModelManifold, name, record(fn))
    return idents


@pytest.mark.parametrize("case", RUN_PINS[:3], ids=[c[0] for c in RUN_PINS[:3]])
def test_run_coupled_calls_the_package_on_the_calling_thread_only(case, monkeypatch):
    # perfbench's layer tracer keeps one span stack per process, so a public
    # call on another thread would corrupt it; no worker count may start one
    _, spec, x0, y0, margin, _ = case
    spec = spec()
    m = spec.manifold
    idents = record_manifold_threads(monkeypatch)
    cfg = SimConfig(dt=1e-3, horizon=0.02, trajectories=8, seed=21, workers=4,
                    cut_margin=margin)
    run_coupled(spec, m.point(x0), m.point(y0), cfg)
    assert idents and set(idents) == {threading.get_ident()}


@pytest.mark.parametrize("manifold, field, x0, y0", BLOCK_CASES)
def test_simulate_table_equals_one_built_from_the_trajectories(manifold, field, x0, y0,
                                                               monkeypatch):
    # the CLI copies the run's arrays into its table's columns; the table must
    # be the one built from run_coupled's trajectory objects, cell for cell
    calls = record_runs(monkeypatch)
    rows, summary = simulate_rows(manifold, field, x0, y0, 1e-3, 0.05, 7, 3, 0.1, 2)
    assert len(calls) == 1
    trajs = run_coupled(*calls[0])
    logd = np.concatenate([tr.log_distance for tr in trajs])
    assert np.array_equal(rows["trajectory"],
                          np.repeat(np.arange(len(trajs)), [tr.times.size for tr in trajs]))
    assert _same_bits(rows["t"], np.concatenate([tr.times for tr in trajs]))
    assert _same_bits(rows["distance"], [math.exp(v) for v in logd.tolist()])
    assert _same_bits(rows["kappa_integral"], np.concatenate([tr.kappa_integral for tr in trajs]))
    assert _same_bits(rows["defect"], np.concatenate([tr.defect for tr in trajs]))
    finals = np.array([tr.defect[-1] for tr in trajs])
    assert summary["mean_abs_defect"] == float(np.abs(finals).mean())
    assert summary["mean_defect"] == float(finals.mean())
    assert summary["abort_fraction"] == float(np.mean([tr.aborted for tr in trajs]))


def test_noise_drawn_in_time_blocks_is_each_trajectorys_own_stream():
    # flat Brownian pairs move by the common increment sqrt(dt) z, so the
    # final X is the running sum of the trajectory's noise, drawn in blocks
    # of _NOISE_BLOCK steps; it must be the sum of one draw of all steps
    steps, dt, seed = 2 * simulate._NOISE_BLOCK + 16, 1e-3, 3
    x0, y0 = E2.point([0.5, 0.0]), E2.point([-0.5, 0.0])
    cfg = SimConfig(dt=dt, horizon=steps * dt, trajectories=5, seed=seed, workers=2)
    for j, tr in enumerate(run_coupled(brownian(E2), x0, y0, cfg)):
        x = x0.coords
        for z in manifolds._philox(seed, j).standard_normal((steps, 2)):
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


def _reference_half_angle(kind, th):
    """(theta / sin theta - theta cot theta)/theta^2 by the half-angle
    identity: tan(theta/2)/theta on S, -tanh(theta/2)/theta on H, and the
    limit +-1/2 below theta = 1e-8."""
    sign = 1.0 if kind == "sphere" else -1.0
    t = np.tan(th / 2) if kind == "sphere" else np.tanh(th / 2)
    far = th >= 1e-8
    return np.where(far, sign * t / np.where(far, th, 1.0), sign * 0.5)


def _reference_forward_unit(m, X, u, d):
    """The unit velocity at Y of the geodesic X -> Y."""
    th = (d / m.radius)[:, None]
    if m.kind == "sphere":
        return -np.sin(th) * X / m.radius + np.cos(th) * u
    return np.sinh(th) * X / m.radius + np.cosh(th) * u


def _reference_kernel(spec, X, Y, d, z, dt):
    """u, u', kappa and one coupled step, each by its own kernel: log_many,
    tangent_noise, exp_many, the forward unit velocity and the half-angle
    form of the curvature term."""
    m = spec.manifold
    c = spec.diffusion.constant_inverse_metric
    linear = isinstance(spec.drift, LinearDrift)
    sig = np.sqrt(c * dt)  # correctly rounded, as math.sqrt is
    dk = np.maximum(d, 1e-300)
    kap = np.full_like(d, spec.drift.rate if linear else 0.0)
    if m.kind != "euclidean":
        kap = kap + c * (m.dim - 1) * _reference_half_angle(m.kind, d / m.radius) / m.radius**2
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
    # with theta < 1e-4 (on both sides of the 1e-8 limit) and a share `tiny`
    # with d < 1e-15 (u = 0), one step size or one per row, with N on both
    # sides of _COLUMN_SUM_MIN_SIZE
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


def _kernel_block(spec, X, Y, z, dt):
    """The kappas and the final pairs of len(z) kernel steps of the pairs X, Y
    (one row each), stepped as one block in its own scratch, the way
    run_coupled and the estimator step theirs."""
    m = spec.manifold
    s = manifolds._Scratch(np.empty(X.shape, order="F"))
    XY = s.both["X0"]
    XY[0], XY[1] = X, Y
    d, kaps = m.dist_many(X, Y), []
    for zi in z:
        p = simulate._pairs(spec, *XY, d, s, XY)
        kaps.append(simulate._kappa(spec, p).copy())
        XY = simulate._coupled_step(spec, p, np.asfortranarray(zi), dt)
        d = m._dist(*XY, s, "d")
    return np.array(kaps), XY.copy()


@pytest.mark.parametrize("manifold, field", [("sphere:2:1", "potential:0.3*cos"),
                                             ("hyperbolic:2:1", "brownian"), ("euclidean:2", "ou")])
def test_kernel_rows_do_not_depend_on_the_block_size(manifold, field):
    # N pairs stepped as one block have the bits of each pair stepped alone,
    # over two steps (both state stacks of the scratch); both ends share one
    # stack, so the exp map sees 2N rows, and _COLUMN_SUM_MIN_SIZE (512
    # numbers) is crossed by the stacks at N = 86 and by each end at N = 171.
    # Pair 7 is coincident, so that its theta is below _kappa's 1e-8 limit
    m = parse_manifold(manifold)
    spec = parse_field(m, field)
    g = rng(29)
    top = 1000
    X = np.array([m.random_point(g).coords for _ in range(top)])
    V = m.project_tangent(X, g.standard_normal(X.shape))
    V *= (g.uniform(0.05, 1.5, top) / np.sqrt(m.ip(V, V)))[:, None]
    Y = m.exp_many(X, V)
    Y[7] = X[7]
    z = g.standard_normal((2,) + X.shape)
    alone = [_kernel_block(spec, X[i:i + 1], Y[i:i + 1], z[:, i:i + 1], 1e-3) for i in range(top)]
    for n in (1, 2, 3, 85, 86, 170, 171, 1000):
        kap, XY = _kernel_block(spec, X[:n], Y[:n], z[:, :n], 1e-3)
        assert _same_bits(kap, np.concatenate([k for k, _ in alone[:n]], axis=1)), n
        assert _same_bits(XY, np.concatenate([xy for _, xy in alone[:n]], axis=1)), n


@pytest.mark.parametrize("manifold, field", [("sphere:2:1", "potential:0.3*cos"),
                                             ("hyperbolic:2:1", "brownian")])
def test_each_kernel_step_takes_one_exp_map_and_one_drift_evaluation(manifold, field):
    # both ends of every pair go through one ModelManifold._exp call a step,
    # and the drift is evaluated once a step (and once at the start of a run)
    m = parse_manifold(manifold)
    spec = parse_field(m, field)
    x = m.point(np.eye(m.ambient_dim)[-1])
    y = m.exp_map(x, TangentVector(x, 0.5 * np.eye(m.ambient_dim)[0]))
    drift = type(spec.drift)
    evaluations = 0 if spec.drift.is_zero else 1
    with mock.patch.object(ModelManifold, "_exp", autospec=True,
                           side_effect=ModelManifold._exp) as exp, \
            mock.patch.object(drift, "vector_many", autospec=True,
                              side_effect=drift.vector_many) as vec:
        run_coupled(spec, x, y, SimConfig(dt=1e-2, horizon=0.2, trajectories=3, seed=1))
        assert (exp.call_count, vec.call_count) == (20, 21 * evaluations)
        exp.reset_mock()
        vec.reset_mock()
        # 2 t values x 4 batches of 16 points: one group of 128 rows, 10 substeps
        estimate_kappa_direct(spec, x, y, samples=64, batches=4, substeps=10)
        assert (exp.call_count, vec.call_count) == (10, 10 * evaluations)


def _spec_and_pair(manifold, field):
    """The spec of `field` on `manifold` ("tensor": the tensor-constructed field
    of random_riemann_like(3, seed=4)) and a pair 0.5 apart from the last axis."""
    m = parse_manifold(manifold)
    spec = (tensor_diffusion(m, random_riemann_like(3, seed=4)) if field == "tensor"
            else parse_field(m, field))
    x = m.point(np.eye(m.ambient_dim)[-1] * m.radius)
    return spec, x, m.exp_map(x, TangentVector(x, 0.5 * np.eye(m.ambient_dim)[0]))


@pytest.mark.parametrize("manifold, field", [
    ("euclidean:2", "ou"), ("sphere:2:1", "brownian"), ("sphere:2:1", "potential:0.3*cos"),
    ("sphere:3:0.7", "brownian"), ("hyperbolic:2:1", "brownian"), ("sphere:2:1", "tensor"),
    ("hyperbolic:2:1", "tensor")])
@pytest.mark.parametrize("seed", [0, 3])
def test_step_coupled_is_one_row_of_the_run_coupled_step(manifold, field, seed):
    # the public one-pair step, drawing from trajectory 0's stream, has the
    # bits of the final pair of a one-step, one-trajectory run, through the
    # kernel's noise map (A = c g^{-1}) and through the per-pair one (tensor)
    spec, x, y = _spec_and_pair(manifold, field)
    dt = 1e-2
    xn, yn = step_coupled(spec, x, y, dt, manifolds._philox(seed, 0))
    (tr,) = run_coupled(spec, x, y, SimConfig(dt=dt, horizon=dt, trajectories=1, seed=seed))
    assert not tr.aborted
    assert _same_bits(xn.coords, tr.pair_states[-1][0].coords)
    assert _same_bits(yn.coords, tr.pair_states[-1][1].coords)


@pytest.mark.parametrize("field", ["brownian", "tensor"])
def test_step_coupled_needs_0_lt_d_lt_the_cut_threshold(field):
    # for every field: a pair of two points at distance 0, and a pair past
    # the cut threshold (pi - 1e-6), have no coupled step
    spec, x, _ = _spec_and_pair("sphere:2:1", field)
    for y in ([1e-9, 0.0, 1.0], [0.0, 1e-7, -1.0]):
        with pytest.raises(CutLocusError):
            step_coupled(spec, x, S2.point(y), 1e-2, rng(0))


def test_each_per_pair_step_takes_one_exp_map_and_one_jet_a_pair():
    # fields without constant_inverse_metric take the kernel's tail: one
    # ModelManifold._exp call a step for both ends of every pair; and one
    # distance jet, with A at both of its ends, a pair at the start and after
    # each step, which serves both kappa and the next step
    spec, x, y = _spec_and_pair("sphere:2:1", "tensor")
    with mock.patch.object(ModelManifold, "_exp", autospec=True,
                           side_effect=ModelManifold._exp) as exp, \
            mock.patch.object(ModelManifold, "distance_jet", autospec=True,
                              side_effect=ModelManifold.distance_jet) as jets, \
            mock.patch.object(TensorConstructedField, "matrix", autospec=True,
                              side_effect=TensorConstructedField.matrix) as mat:
        run_coupled(spec, x, y, SimConfig(dt=1e-2, horizon=0.2, trajectories=3, seed=1))
    assert (exp.call_count, jets.call_count, mat.call_count) == (20, 63, 126)


def test_distance_column_does_not_depend_on_the_csv_block(monkeypatch):
    # simulate_rows exponentiates the distance column _BLOCK_ROWS rows at a
    # time; 8 splits the 3 x 21 rows into blocks that cut through the paths
    args = ("sphere:2:1", "potential:0.3*cos", "0,0,1", "0.479425538604203,0,0.8775825618903728",
            1e-2, 0.2, 3, 5, 0.1, 1)
    rows, summary = simulate_rows(*args)
    monkeypatch.setattr("riccigap.cli._BLOCK_ROWS", 8)
    blocked, blocked_summary = simulate_rows(*args)
    assert rows.size == 63 and rows.tobytes() == blocked.tobytes()
    assert summary == blocked_summary


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


def _mp_curvature_term(kind, n, r, d):
    """(n - 1)(theta / sin theta - theta cot theta)/d^2 at theta = d/r (sinh,
    coth on H) in mpmath, as written, with digits enough to cover the
    cancellation: about 2 log10(1/theta) of them cancel."""
    th = mpmath.mpf(d) / mpmath.mpf(r)
    with mpmath.workdps(40 + 2 * max(0, -int(mpmath.log10(th)))):
        th = mpmath.mpf(d) / mpmath.mpf(r)
        if kind == "sphere":
            bracket = th / mpmath.sin(th) - th * mpmath.cot(th)
        else:
            bracket = th / mpmath.sinh(th) - th * mpmath.coth(th)
        return (n - 1) * bracket / mpmath.mpf(d) ** 2


_EPS = float(np.finfo(float).eps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(["sphere:2", "sphere:3", "hyperbolic:2", "hyperbolic:3"]),
       log_r=st.floats(-12.0, 12.0), frac=st.floats(0.0, 1.0))
@example(case="sphere:2", log_r=0.0, frac=(-8 + 300) / (math.log10(0.9 * math.pi) + 300))
@example(case="sphere:2", log_r=0.0, frac=0.0)
@example(case="sphere:2", log_r=0.0, frac=(-4 + 300) / (math.log10(0.9 * math.pi) + 300))
@example(case="hyperbolic:2", log_r=0.0, frac=2.0)
def test_kappa_fast_holds_a_few_ulps_at_every_distance(case, log_r, frac):
    # d log-uniform in [1e-300, 0.9 cut] on S, [1e-300, 40 r] on H, against
    # the curvature term in 50+ digits; frac = 2 is theta = 800 on H, where
    # sinh and cosh overflow a double
    m = parse_manifold(f"{case}:{10.0 ** log_r!r}")
    r, n = m.radius, m.dim
    hi = 0.9 * m.cut_threshold if m.kind == "sphere" else 40.0 * r
    d = 800.0 * r if frac == 2.0 else 10.0 ** (-300 + frac * (math.log10(hi) + 300))
    got = kappa_fast(brownian(m), d)
    want = _mp_curvature_term(m.kind, n, r, d)
    assert abs(mpmath.mpf(float(got)) - want) <= 8 * _EPS * abs(want), (d, r, got)
    # d = 0 gives the d -> 0 limit, c (n - 1)/(2 r^2), which is kappa_dir
    limit = float(kappa_fast(brownian(m), 0.0))
    assert limit == (1.0 if m.kind == "sphere" else -1.0) * (n - 1) / (2 * r**2)
    x = m.point(np.eye(m.ambient_dim)[-1] * r)
    u = TangentVector(x, np.eye(m.ambient_dim)[0])
    assert abs(limit - kappa_dir(brownian(m), x, u).kappa) <= 2 * np.spacing(abs(limit))


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
