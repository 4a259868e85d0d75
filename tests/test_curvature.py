import functools
import inspect
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from riccigap import curvature, simulate
from riccigap.curvature import (
    estimate_kappa_direct,
    kappa_dir,
    kappa_dir_by_limit,
    kappa_pair,
    kappa_tilde_dir,
    kappa_tilde_pair,
    sqrt_perturbation_traces,
)
from riccigap.errors import (HViolationError, InputError, NonPSDWarning, SingularDiffusionError,
                             TermMismatchError)
from riccigap.fields import (
    ConstantFrameField,
    DiffusionSpec,
    ScalarScaledMetricField,
    ZeroDrift,
    brownian,
    constant_curvature_tensor,
    h_admissible_field,
    h_residual,
    kulkarni_nomizu,
    ornstein_uhlenbeck,
    parse_potential,
    random_riemann_like,
    reversible_potential,
    tensor_diffusion,
)
from riccigap.manifolds import ModelManifold, TangentVector, parse_manifold

E2 = parse_manifold("euclidean:2")
E3 = parse_manifold("euclidean:3")
S2 = parse_manifold("sphere:2:1")
S3 = parse_manifold("sphere:3:1")
H2 = parse_manifold("hyperbolic:2:1")
E1 = parse_manifold("euclidean:1")


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))


def random_pair(m, d, seed=0):
    g = rng(seed)
    x = m.random_point(g)
    u = m.random_tangent(g, x)
    y = m.exp_map(x, TangentVector(x, d * u.components))
    return x, u, y


# ---------------------------------------------------------------------------
# kappa_pair


def test_kappa_pair_flat_brownian_zero():
    spec = brownian(E3)
    for seed in range(5):
        g = rng(seed)
        x = E3.random_point(g)
        y = E3.random_point(g)
        assert abs(kappa_pair(spec, x, y).kappa) < 1e-13


def test_kappa_pair_flat_ou_one():
    spec = ornstein_uhlenbeck(E3)
    for seed in range(5):
        g = rng(seed + 10)
        x = E3.random_point(g)
        y = E3.random_point(g)
        rep = kappa_pair(spec, x, y)
        assert rep.kappa == pytest.approx(1.0, abs=1e-12)
        assert rep.terms["drift_term"] == pytest.approx(1.0, abs=1e-12)


def test_kappa_pair_sphere_closed_form():
    spec = brownian(S2)
    for d in (0.2, 0.5, 1.0, 2.0):
        x, u, y = random_pair(S2, d, seed=3)
        want = math.tan(d / 2) / d
        assert kappa_pair(spec, x, y).kappa == pytest.approx(want, rel=1e-12)


def test_kappa_pair_symmetry():
    for spec, m, d in ((brownian(S2), S2, 0.7), (brownian(H2), H2, 0.7),
                       (ornstein_uhlenbeck(E3), E3, 1.3)):
        x, _, y = random_pair(m, d, seed=4)
        assert kappa_pair(spec, x, y).kappa == pytest.approx(kappa_pair(spec, y, x).kappa,
                                                             abs=1e-10)


def test_kappa_pair_report_terms_sum():
    spec = brownian(S2)
    x, _, y = random_pair(S2, 0.5, seed=5)
    rep = kappa_pair(spec, x, y)
    assert sum(rep.terms.values()) == pytest.approx(rep.kappa, abs=1e-12)
    assert rep.location == (x, y)


def test_term_breakdown_check_scales_with_the_parts_and_is_typed():
    # at d = 1e-4 the jet-quadratic parts are ~1e8, so the breakdown carries
    # ~1e-8 of rounding: within the check, which scales with the parts
    spec = reversible_potential(S2, parse_potential("0.3*cos"))
    x = S2.point([0.0, 0.0, 1.0])
    for d in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4):
        rep = kappa_pair(spec, x, S2.point([math.sin(d), 0.0, math.cos(d)]))
        assert rep.magnitude > 1.0 / d**2
    terms = {"drift_term": 0.5, "riemann_term": 0.25, "gradient_A_penalty": 0.0}
    with pytest.raises(TermMismatchError):
        curvature.CurvatureReport(kappa=0.75 + 1e-12, terms=terms, location=())
    with pytest.raises(TermMismatchError):
        curvature.CurvatureReport(kappa=0.75 + 1e-6, terms=terms, location=(), magnitude=1e6)


# ---------------------------------------------------------------------------
# kappa_dir and its limit


def test_kappa_dir_sphere_values():
    for m, want in ((S2, 0.5), (S3, 1.0), (H2, -0.5)):
        spec = brownian(m)
        g = rng(7)
        for _ in range(5):
            x = m.random_point(g)
            u = m.random_tangent(g, x)
            assert abs(kappa_dir(spec, x, u).kappa - want) < 1e-10


def test_kappa_dir_ou_exact():
    spec = ornstein_uhlenbeck(E3)
    g = rng(8)
    x = E3.random_point(g)
    u = E3.random_tangent(g, x)
    assert kappa_dir(spec, x, u).kappa == 1.0


def test_kappa_dir_constant_tensor_flat_zero():
    A = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, -0.2], [0.0, -0.2, 0.7]])
    spec = DiffusionSpec(E3, ConstantFrameField(A), ZeroDrift())
    g = rng(9)
    x = E3.random_point(g)
    u = E3.random_tangent(g, x)
    rep = kappa_dir(spec, x, u)
    assert abs(rep.kappa) < 1e-9
    assert abs(rep.terms["gradient_A_penalty"]) < 1e-9


def test_kappa_dir_limit_matches_formula():
    cases = [
        (brownian(S2), S2, 0.5, 1e-4),
        (brownian(H2), H2, -0.5, 1e-4),
        (ornstein_uhlenbeck(E2), E2, 1.0, 1e-10),
    ]
    for spec, m, want, tol in cases:
        g = rng(11)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        assert abs(kappa_dir_by_limit(spec, x, u) - want) < tol


def test_kappa_dir_limit_with_potential():
    pot = parse_potential("0.3*cos")
    spec = reversible_potential(S2, pot)
    g = rng(12)
    for _ in range(3):
        x = S2.random_point(g)
        u = S2.random_tangent(g, x)
        lim = kappa_dir_by_limit(spec, x, u)
        assert abs(lim - kappa_dir(spec, x, u).kappa) < 1e-4


def test_kappa_dir_bakry_emery_form_with_potential():
    # A = g^{-1}: kappa(x, u) = (Ric(u,u) + Hess(phi)(u,u)) / 2
    pot = parse_potential("0.2*cos")
    spec = reversible_potential(S2, pot)
    g = rng(13)
    x = S2.random_point(g)
    u = S2.random_tangent(g, x)
    hess = spec.drift.hess_uu(x, u)
    assert kappa_dir(spec, x, u).kappa == pytest.approx(0.5 * (1.0 + hess), abs=1e-12)


def test_kappa_dir_penalty_nonpositive_and_basis_independent():
    fld = h_admissible_field(S2, random_riemann_like(3, seed=2, psd=True))
    spec = DiffusionSpec(S2, fld, ZeroDrift())
    g = rng(14)
    for _ in range(5):
        x = S2.random_point(g)
        u = S2.random_tangent(g, x)
        rep = kappa_dir(spec, x, u)
        assert rep.terms["gradient_A_penalty"] <= 1e-12
    # the quotient computation does not depend on the completion of u
    x = S2.random_point(g)
    u = S2.random_tangent(g, x)
    k1 = kappa_dir(spec, x, u).kappa
    k2 = kappa_dir(spec, x, TangentVector(x, u.components.copy())).kappa
    assert k1 == pytest.approx(k2, abs=1e-12)


def test_kappa_dir_homogeneous_on_model_spaces():
    spec = brownian(S3)
    g = rng(15)
    vals = []
    for _ in range(6):
        x = S3.random_point(g)
        u = S3.random_tangent(g, x)
        vals.append(kappa_dir(spec, x, u).kappa)
    assert np.ptp(vals) < 1e-10


def test_kappa_dir_rejects_singular():
    fld = ConstantFrameField(np.diag([1.0, 0.0]))
    spec = DiffusionSpec(E2, fld, ZeroDrift())
    g = rng(16)
    x = E2.random_point(g)
    u = E2.random_tangent(g, x)
    with pytest.raises(SingularDiffusionError):
        kappa_dir(spec, x, u)


def test_kappa_dir_limit_tensor_fields():
    # the quotient-penalty term against the pure-jet pair formula; tensor
    # fields need a finer ladder than the default to resolve the limit
    for mstr in ("euclidean:2", "sphere:2:1", "hyperbolic:2:1", "sphere:3:1"):
        m = parse_manifold(mstr)
        fld = h_admissible_field(m, random_riemann_like(m.dim + 1, seed=31, psd=True))
        spec = DiffusionSpec(m, fld, ZeroDrift())
        g = rng(30)
        for _ in range(2):
            x = m.random_point(g)
            u = m.random_tangent(g, x)
            a = kappa_dir(spec, x, u).kappa
            b = kappa_dir_by_limit(spec, x, u, deltas=(0.02, 0.01, 0.005))
            assert abs(a - b) < 1e-4


# ---------------------------------------------------------------------------
# admissibility machinery


def test_h_residual_inverse_metric_zero():
    for m in (S2, H2, E3):
        spec = brownian(m)
        g = rng(17)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        assert h_residual(spec, x, u) < 1e-10


def test_h_residual_tensor_field_small():
    for m in (E2, S2, H2):
        fld = h_admissible_field(m, random_riemann_like(m.dim + 1, seed=3, psd=True))
        spec = DiffusionSpec(m, fld, ZeroDrift())
        g = rng(18)
        for _ in range(10):
            x = m.random_point(g)
            u = m.random_tangent(g, x)
            assert h_residual(spec, x, u) <= 1e-9


def test_h_residual_scaled_field_fails():
    fld = ScalarScaledMetricField(lambda p: 1.0 + 0.1 * p.coords[0])
    spec = DiffusionSpec(E2, fld, ZeroDrift())
    g = rng(19)
    found = 0.0
    for _ in range(5):
        x = E2.random_point(g)
        u = E2.random_tangent(g, x)
        found = max(found, h_residual(spec, x, u))
    assert found > 1e-3


def test_h_admissible_field_trivial_and_nonpsd():
    fld = h_admissible_field(S2, constant_curvature_tensor(3, 0.0))
    g = rng(20)
    x = S2.random_point(g)
    assert np.abs(fld.matrix(x, S2.frame(x))).max() == 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h_admissible_field(S2, constant_curvature_tensor(3, -1.0))
    assert any(issubclass(w.category, NonPSDWarning) for w in caught)


def test_h_admissible_round_tensor_is_metric():
    fld = h_admissible_field(S2, constant_curvature_tensor(3, 1.0))
    g = rng(21)
    x = S2.random_point(g)
    A = fld.matrix(x, S2.frame(x))
    assert np.abs(A - np.eye(2)).max() < 1e-12


def test_invariant_contraction_constant_along_geodesics():
    for m in (E2, S2, H2):
        fld = h_admissible_field(m, random_riemann_like(m.dim + 1, seed=4, psd=True))
        g = rng(22)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        vals = []
        for t in np.linspace(0.0, 1.0, 9):
            y = m.exp_map(x, TangentVector(x, t * u.components))
            ut = m.parallel_transport(u, y) if t > 0 else u
            E = m.frame(y, first=ut.components)
            vals.append(fld.matrix(y, E)[0, 0])
        assert np.ptp(vals) <= 1e-9 * max(1.0, abs(vals[0]))


def test_tensor_field_derivative_matches_finite_difference():
    for m in (S2, H2, E3):
        fld = h_admissible_field(m, random_riemann_like(m.dim + 1, seed=6, psd=True))
        g = rng(23)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        E = m.frame(x, first=u.components)
        exact = fld.derivative(x, E)
        fd = super(type(fld), fld).derivative(x, E)  # base-class finite differences
        assert np.abs(exact - fd).max() < 1e-8


# ---------------------------------------------------------------------------
# constrained curvature


def test_kappa_tilde_equals_kappa_for_metric():
    spec = brownian(S2)
    x, u, y = random_pair(S2, 0.6, seed=24)
    assert kappa_tilde_pair(spec, x, y) == pytest.approx(kappa_pair(spec, x, y).kappa,
                                                         abs=1e-10)
    assert kappa_tilde_dir(spec, x, u).kappa == pytest.approx(kappa_dir(spec, x, u).kappa,
                                                              abs=1e-12)


def test_kappa_tilde_flat_constant_tensor():
    A = np.array([[1.5, 0.2], [0.2, 0.8]])
    spec = DiffusionSpec(E2, ConstantFrameField(A), ZeroDrift())
    x, u, y = random_pair(E2, 1.0, seed=25)
    assert abs(kappa_tilde_pair(spec, x, y)) < 1e-10
    rep = kappa_tilde_dir(spec, x, u)
    assert abs(rep.kappa) < 1e-10


def test_kappa_tilde_dir_matches_pair_limit():
    for m in (E2, S2):
        fld = h_admissible_field(m, random_riemann_like(m.dim + 1, seed=7, psd=True))
        spec = DiffusionSpec(m, fld, ZeroDrift())
        g = rng(26)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        vals = []
        deltas = (0.1, 0.05, 0.025)
        for d in deltas:
            y = m.exp_map(x, TangentVector(x, d * u.components))
            vals.append(kappa_tilde_pair(spec, x, y))
        tab = np.asarray(vals, dtype=float)
        xs = np.asarray(deltas, dtype=float)
        for k in range(1, 3):
            for i in range(3 - k):
                tab[i] = (xs[i + k] * tab[i] - xs[i] * tab[i + 1]) / (xs[i + k] - xs[i])
        assert abs(tab[0] - kappa_tilde_dir(spec, x, u).kappa) < 1e-4


def test_kappa_tilde_below_kappa():
    fld = h_admissible_field(S2, random_riemann_like(3, seed=8, psd=True))
    spec = DiffusionSpec(S2, fld, ZeroDrift())
    g = rng(27)
    for _ in range(8):
        x = S2.random_point(g)
        u = S2.random_tangent(g, x)
        assert kappa_tilde_dir(spec, x, u).kappa <= kappa_dir(spec, x, u).kappa + 1e-9


def test_kappa_tilde_rejects_inadmissible():
    fld = ScalarScaledMetricField(lambda p: 1.0 + 0.1 * p.coords[0])
    spec = DiffusionSpec(E2, fld, ZeroDrift())
    g = rng(28)
    x = E2.random_point(g)
    u = E2.random_tangent(g, x)
    with pytest.raises(HViolationError):
        kappa_tilde_dir(spec, x, u)
    y = E2.exp_map(x, TangentVector(x, u.components))
    with pytest.raises(HViolationError):
        kappa_tilde_pair(spec, x, y)


# ---------------------------------------------------------------------------
# trace perturbation identities


def test_sqrt_perturbation_trivial():
    assert sqrt_perturbation_traces(np.eye(3), np.zeros((3, 3))) == (0.0, 0.0)
    th, tk = sqrt_perturbation_traces(np.eye(4), np.eye(4))
    assert th == pytest.approx(2.0, abs=1e-14)
    assert tk == pytest.approx(-0.5, abs=1e-14)


def test_sqrt_perturbation_ratio_test():
    g = rng(29)
    a = g.standard_normal((4, 4))
    M = a @ a.T + 1.2 * np.eye(4)
    b = g.standard_normal((4, 4))
    N = 0.5 * (b + b.T)
    th, tk = sqrt_perturbation_traces(M, N)

    def tr_sqrt(mat):
        w = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        return float(np.sqrt(np.clip(w, 0, None)).sum())

    t0 = tr_sqrt(M @ M)
    errs = []
    for eps in (1e-2, 1e-3):
        full = tr_sqrt(M @ M + eps * N)
        errs.append(abs(full - (t0 + eps * th + eps**2 * tk)))
    assert errs[0] / errs[1] > 500  # O(eps^3) remainder


@pytest.mark.parametrize("kind, scale", [("hyperbolic", 1e7), ("sphere", 1e9)])
def test_constrained_curvature_admits_invariant_field_at_any_scale(kind, scale):
    # the identity Kulkarni-Nomizu field is invariant by construction; at
    # these scales its residual is ~5e-9 and |A| ~1e15, and the constrained
    # curvatures are the unit-scale ones (A grows like r^2, curvature like r^-2)
    got, want = [], []
    for m, out in ((parse_manifold(f"{kind}:2:{scale}"), got), (parse_manifold(f"{kind}:2:1"), want)):
        spec = tensor_diffusion(m, kulkarni_nomizu(np.eye(3), np.eye(3)))
        g = rng(31)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        y = m.exp_map(x, TangentVector(x, 0.3 * m.radius * u.components))
        out += [kappa_tilde_dir(spec, x, u).kappa, kappa_tilde_pair(spec, x, y)]
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# direct Monte Carlo estimator (small versions; full scale in acceptance)


def test_estimate_flat_brownian_covers_zero():
    spec = brownian(E2)
    x = E2.point([0.4, 0.0])
    y = E2.point([-0.6, 0.0])
    est, (lo, hi) = estimate_kappa_direct(spec, x, y, t_ladder=(0.02, 0.01),
                                          samples=2048, seed=1, batches=8, substeps=20)
    assert lo <= 0.0 <= hi
    assert abs(est) < 0.5


def test_estimate_reproducible():
    spec = brownian(E2)
    x = E2.point([0.4, 0.0])
    y = E2.point([-0.6, 0.0])
    a = estimate_kappa_direct(spec, x, y, samples=1024, seed=9, batches=4, substeps=10)
    b = estimate_kappa_direct(spec, x, y, samples=1024, seed=9, batches=4, substeps=10)
    assert a == b


def test_estimate_sphere_covers_formula_small():
    spec = brownian(S2)
    x = S2.point([0.0, 0.0, 1.0])
    y = S2.exp_map(x, TangentVector(x, 0.5 * S2.tangent(x, [1.0, 0, 0]).components))
    est, (lo, hi) = estimate_kappa_direct(spec, x, y, t_ladder=(0.02, 0.01),
                                          samples=2048, seed=2, batches=8, substeps=100)
    want = kappa_pair(spec, x, y).kappa
    assert lo - 0.02 <= want <= hi + 0.02  # slack for the small sample size


@pytest.mark.parametrize("kwargs", [dict(samples=8, batches=16), dict(batches=1),
                                    dict(substeps=0), dict(substeps=-3)])
def test_estimate_rejects_bad_counts(kwargs):
    x, y = E2.point([0.4, 0.0]), E2.point([-0.6, 0.0])
    with pytest.raises(InputError):
        estimate_kappa_direct(brownian(E2), x, y, **{"samples": 64, **kwargs})


def test_estimate_cloud_cap_checked_before_stepping(monkeypatch):
    class Stepped(Exception):
        pass

    def stepped(*args):
        raise Stepped

    monkeypatch.setattr(simulate, "_pairs", stepped)
    x, y = E2.point([0.4, 0.0]), E2.point([-0.6, 0.0])
    cap = curvature._CLOUD_CAP
    with pytest.raises(Stepped):  # a cloud of exactly the cap is admitted
        estimate_kappa_direct(brownian(E2), x, y, samples=16 * cap, batches=16)
    with pytest.raises(InputError, match=f"at most {cap} points per cloud"):
        estimate_kappa_direct(brownian(E2), x, y, samples=16 * cap + 16, batches=16)


def _h2_pair():
    x = H2.point([0.0, 0.0, 1.0])
    return x, H2.exp_map(x, H2.tangent(x, [0.5, 0.0, 0.0], project=True))


# (name, spec, (x, y), keyword arguments, (est, lo, hi) as hex floats).  The
# values were pinned when each (t, batch) cloud stepped through the kernel on
# its own; stepping the clouds as one stacked block keeps every bit.
ESTIMATE_PINS = [
    ("S2-potential", lambda: reversible_potential(S2, parse_potential("0.3*cos")),
     lambda: (S2.point([0.0, 0.0, 1.0]), S2.point([0.479425538604203, 0.0, 0.8775825618903728])),
     dict(samples=256, substeps=20, seed=3),
     ("0x1.775b505701326p-2", "0x1.753f5d1352ec0p-2", "0x1.7977439aaf78cp-2")),
    ("H2-brownian", lambda: brownian(H2), _h2_pair,
     dict(samples=256, substeps=20, seed=5, batches=8),
     ("-0x1.f540cb00ad739p-2", "-0x1.f661d582c5fc2p-2", "-0x1.f41fc07e94eb0p-2")),
    ("E2-brownian", lambda: brownian(E2), lambda: (E2.point([0.4, 0.0]), E2.point([-0.6, 0.0])),
     dict(samples=256, substeps=20, seed=1, batches=8),
     ("-0x1.9000000000000p-51", "-0x1.8c00000000000p-49", "0x1.8800000000000p-50")),
    ("E1-ou", lambda: ornstein_uhlenbeck(E1), lambda: (E1.point([0.5]), E1.point([-0.5])),
     dict(samples=256, substeps=20, seed=1),
     ("0x1.fffba9de58211p-1", "0x1.fd72d1af6ab46p-1", "0x1.01424106a2c6ep+0")),
]


def _pinned(case):
    _, spec, pair, kwargs, want = case
    est, (lo, hi) = estimate_kappa_direct(spec(), *pair(), **kwargs)
    return [v.hex() for v in (est, lo, hi)], list(want)


@pytest.mark.parametrize("case", ESTIMATE_PINS, ids=[c[0] for c in ESTIMATE_PINS])
def test_estimate_pinned_bitwise(case):
    got, want = _pinned(case)
    assert got == want


@pytest.mark.parametrize("rows, floats", [(5, 1), (40, 7), (100, 10**9)],
                         ids=["5-1", "40-7", "100-1000000000"])
def test_estimate_row_cap_and_noise_buffer_keep_every_bit(rows, floats, monkeypatch):
    # 16 or 32 rows per cloud, so groups of one cloud, of two or one, and of
    # six or three (groups that span both ladder times); the noise is drawn
    # one step at a time, a few steps at a time, and all at once
    monkeypatch.setattr(curvature, "_ROW_CAP", rows)
    monkeypatch.setattr(curvature, "_NOISE_FLOATS", floats)
    for case in ESTIMATE_PINS:
        got, want = _pinned(case)
        assert got == want, case[0]


def test_estimator_calls_the_package_on_the_calling_thread_only(monkeypatch):
    # perfbench's layer tracer keeps one span stack per process, so a public
    # call on another thread would corrupt it; every solve goes through
    # curvature.linear_sum_assignment, once per cloud, where the tracer
    # counts it
    calls, solves = [], []

    def record(fn, log):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            log.append(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    for name, fn in list(vars(ModelManifold).items()):
        if inspect.isfunction(fn) and not name.startswith("_"):
            monkeypatch.setattr(ModelManifold, name, record(fn, calls))
    monkeypatch.setattr(curvature, "linear_sum_assignment",
                        record(curvature.linear_sum_assignment, solves))
    x = S2.point([0.0, 0.0, 1.0])
    y = S2.exp_map(x, TangentVector(x, 0.5 * S2.tangent(x, [1.0, 0, 0]).components))
    estimate_kappa_direct(brownian(S2), x, y, samples=8 * 64, batches=8, substeps=5)
    caller = threading.get_ident()
    assert calls and set(calls) == {caller}
    assert solves == [caller] * (2 * 8)


H3 = parse_manifold("hyperbolic:3:1")


def _dense_w1(m, X, Y):
    """The reference: the distances from an (N, N, k) broadcast summed by
    np.sum, and a plain solve."""
    P = X[:, None, :] * Y[None, :, :]
    c = np.sum(P, axis=-1) / m.radius**2
    if m.kind == "hyperbolic":
        cost = m.radius * np.arccosh(np.maximum(2.0 * P[..., -1] / m.radius**2 - c, 1.0))
    else:
        cost = m.radius * np.arccos(np.clip(c, -1.0, 1.0))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _far(m, dist, seed):
    """A point `dist` from the base point (the pole of the sphere)."""
    base = np.zeros(m.ambient_dim)
    base[-1] = m.radius
    x = m.point(base)
    return m.exp_map(x, TangentVector(x, dist * m.random_tangent(rng(seed), x).components))


def _cloud(m, center, n, seed):
    g = rng(seed)
    V = m.project_tangent(center.coords, g.standard_normal((n, m.ambient_dim)))
    V *= (g.uniform(0.0, 1.0, n) / np.sqrt(np.maximum(m.ip(V, V), 1e-300)))[:, None]
    return m.exp_many(np.broadcast_to(center.coords, V.shape), V)


@pytest.mark.parametrize("m, dist", [(S2, 1.0), (S3, 1.0), (H2, 0.5), (H2, 6.0), (H3, 1.0)],
                         ids=["S2", "S3", "H2", "H2-far", "H3"])
def test_assignment_w1_matches_dense_solve(m, dist, monkeypatch):
    # clouds of 8, 64 and 256 points: coupled ones from the estimator's own
    # stepping (near-degenerate for the solver), and independent random ones;
    # on H2 also 6 units from the base point, where <x, y>_L cancels
    clouds = []
    assign = curvature._assignment_w1

    def solve(mm, X, Y):  # the centred solve
        return assign(mm, X, Y)[0]

    def capture(mm, X, Y, *args):
        clouds.append((X.copy(), Y.copy()))
        return assign(mm, X, Y, *args)

    monkeypatch.setattr(curvature, "_assignment_w1", capture)
    x = _far(m, dist, 1)
    y = m.exp_map(x, TangentVector(x, 0.5 * m.random_tangent(rng(2), x).components))
    for n in (8, 64, 256):
        estimate_kappa_direct(brownian(m), x, y, samples=2 * n, batches=2, substeps=10, seed=n)
        clouds.append((_cloud(m, x, n, 3 * n), _cloud(m, y, n, 3 * n + 1)))
    assert len(clouds) == 3 * 5
    for X, Y in clouds:
        want = _dense_w1(m, X, Y)
        assert abs(solve(m, X, Y) - want) <= 4 * np.spacing(want)


def _estimator_clouds(m, x, y, n, seed, coupled):
    """Three cloud pairs (X, Y) of n points: the first two clouds the
    estimator steps from x and y at the larger t and its first at the
    smaller t (coupled), or six independent random clouds about x and y."""
    if not coupled:
        return [(_cloud(m, x, n, seed + i), _cloud(m, y, n, seed + i + 1)) for i in (0, 2, 4)]
    clouds = []
    assign = curvature._assignment_w1

    def capture(mm, X, Y, *args):
        clouds.append((X.copy(), Y.copy()))
        return assign(mm, X, Y, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curvature, "_assignment_w1", capture)
        estimate_kappa_direct(brownian(m), x, y, samples=2 * n, batches=2, substeps=10, seed=seed)
    return clouds[:3]  # two batches of each t, the larger first


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.sampled_from([S2, S3, H2, H3]), coupled=st.booleans(), seed=st.integers(0, 2**20),
       scale=st.floats(0.0, 10.0))
def test_assignment_w1_is_the_same_under_any_separable_shift(m, coupled, seed, scale):
    # the exact duals of one cloud pair are feasible and tight on its
    # permutation; solving the next pair of its t on its cost less their
    # c-transform, less nothing, or less random u_i of up to `scale` times
    # the cost's range (each then less its column minima), and the first
    # pair of the other t on its cost less their c-transform, gives the
    # reference W1 to 4 ulp
    n = 96
    x = _far(m, 1.0, seed)
    y = m.exp_map(x, TangentVector(x, 0.5 * m.random_tangent(rng(seed + 1), x).components))
    (X0, Y0), (X, Y), (X1, Y1) = _estimator_clouds(m, x, y, n, seed, coupled)
    cost = m.dist_many(X0[:, None, :], Y0[None, :, :])
    _, cols = linear_sum_assignment(cost)
    u, v = curvature._kantorovich_duals(cost.copy(), cols)
    slack = cost - u[:, None] - v
    tol = 4 * np.finfo(float).eps * (np.abs(cost).max() + np.abs(u).max() + np.abs(v).max())
    assert slack.min() >= -tol
    assert np.abs(slack[np.arange(n), cols]).max() <= tol
    c_transform = curvature._warm_start(m, X0, Y0, cols)
    assert c_transform is not None
    span = float(np.ptp(m.dist_many(X[:, None, :], Y[None, :, :])))
    su = scale * span * rng(seed).uniform(-1.0, 1.0, n)
    for shift, (Xs, Ys) in [(lambda Z: np.zeros(n), (X, Y)), (c_transform, (X, Y)),
                            (lambda Z: su, (X, Y)), (c_transform, (X1, Y1))]:
        want = _dense_w1(m, Xs, Ys)
        got = curvature._assignment_w1(m, Xs, Ys, shift)[0]
        assert abs(got - want) <= 4 * np.spacing(want)


@pytest.mark.parametrize("failure", [None, "unsettled Bellman-Ford"])
def test_warm_start_falls_back_to_the_centred_cost(failure, monkeypatch):
    # an estimate warm-starts once, from its first cloud, and here leaves
    # the result of an estimate with no warm start as it is; with duals
    # sought for a permutation that is not optimal (a negative cycle, so
    # Bellman-Ford never settles), it makes no shift, and every cloud is
    # solved on the centred cost: that result, bit for bit
    x = S2.point([0.0, 0.0, 1.0])
    y = S2.exp_map(x, TangentVector(x, 0.5 * S2.tangent(x, [1.0, 0, 0]).components))

    def estimate():
        return estimate_kappa_direct(brownian(S2), x, y, samples=8 * 64, batches=8, substeps=5)

    warm_start, bellman_ford = curvature._warm_start, curvature._kantorovich_duals
    monkeypatch.setattr(curvature, "_warm_start", lambda *args: None)
    want = estimate()
    shifts, duals = [], []

    def recorded(m, X, Y, cols):
        shifts.append(warm_start(m, X, Y, cols))
        return shifts[-1]

    def unsettled(cost, cols):
        duals.append(bellman_ford(cost, np.roll(cols, 1)))
        return duals[-1]

    monkeypatch.setattr(curvature, "_warm_start", recorded)
    if failure:
        monkeypatch.setattr(curvature, "_kantorovich_duals", unsettled)
    assert estimate() == want
    assert len(shifts) == 1 and (shifts[0] is None) == bool(failure)
    assert duals == ([None] if failure else [])
