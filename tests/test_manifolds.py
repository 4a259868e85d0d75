import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from riccigap import manifolds
from riccigap.errors import CutLocusError, InputError
from riccigap.manifolds import ModelManifold, Point, TangentVector, parse_manifold


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 99], dtype=np.uint64)))


E3 = parse_manifold("euclidean:3")
S2 = parse_manifold("sphere:2:1")
H2 = parse_manifold("hyperbolic:2:1")
ALL = [E3, S2, H2, parse_manifold("sphere:3:2"), parse_manifold("hyperbolic:3:0.5")]


def test_parse_manifold():
    m = parse_manifold("sphere:2:1.5")
    assert (m.kind, m.dim, m.radius) == ("sphere", 2, 1.5)
    with pytest.raises(Exception):
        parse_manifold("torus:2")
    with pytest.raises(Exception):
        parse_manifold("euclidean:2:1")


def test_sectional_curvature_constants():
    assert parse_manifold("sphere:2:2").sectional_curvature == 0.25
    assert parse_manifold("hyperbolic:2:2").sectional_curvature == -0.25
    assert E3.sectional_curvature == 0.0


def test_exp_euclidean_is_translation():
    x = E3.point([1.0, 2.0, 3.0])
    v = E3.tangent(x, [0.5, -1.0, 0.25])
    y = E3.exp_map(x, v)
    assert np.array_equal(y.coords, x.coords + v.components)


def test_exp_sphere_north_pole_quarter_turn():
    x = S2.point([0.0, 0.0, 1.0])
    v = S2.tangent(x, [math.pi / 2, 0.0, 0.0])
    y = S2.exp_map(x, v)
    assert abs(S2.distance(x, y) - math.pi / 2) < 1e-14
    assert np.allclose(y.coords, [1.0, 0.0, 0.0], atol=1e-15)


def test_log_identity_and_flat():
    for m in ALL:
        x = m.random_point(rng(1))
        z = m.log_map(x, x)
        assert np.allclose(z.components, 0.0, atol=1e-12)
    x = E3.point([1.0, 0.0, 2.0])
    y = E3.point([0.0, 1.0, -1.0])
    assert np.array_equal(E3.log_map(x, y).components, y.coords - x.coords)


def test_sphere_antipodal_log_raises():
    x = S2.point([0.0, 0.0, 1.0])
    y = S2.point([0.0, 0.0, -1.0])
    with pytest.raises(CutLocusError):
        S2.log_map(x, y)


@pytest.mark.parametrize("m", ALL, ids=lambda m: f"{m.kind}:{m.dim}")
def test_exp_log_roundtrip(m):
    g = rng(7)
    for _ in range(25):
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        scale = g.uniform(0.05, 0.9) * (math.pi * m.radius * 0.9 if m.kind == "sphere" else 1.5)
        v = TangentVector(x, scale * u.components)
        y = m.exp_map(x, v)
        back = m.log_map(x, y)
        assert np.abs(back.components - v.components).max() <= 1e-9 * (1 + scale)
        assert abs(m.norm(back) - m.distance(x, y)) < 1e-11 * (1 + scale)


def test_distance_triangle_inequality():
    for m in ALL:
        g = rng(3)
        for _ in range(40):
            x, y, z = (m.random_point(g) for _ in range(3))
            assert m.distance(x, z) <= m.distance(x, y) + m.distance(y, z) + 1e-12
            assert abs(m.distance(x, y) - m.distance(y, x)) <= 1e-12


def hyperbolic_geodesic_shoot(m, x, v, t_end):
    """Oracle: integrate the hyperboloid geodesic ODE gamma'' = q(g', g') gamma / r^2."""

    def rhs(_, state):
        pos, vel = state[:3], state[3:]
        q = vel[0] ** 2 + vel[1] ** 2 - vel[2] ** 2
        return np.concatenate([vel, q * pos / m.radius**2])

    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate([x.coords, v.components]),
                    rtol=1e-12, atol=1e-12, dense_output=True)
    return sol.y[:3, -1]


def test_hyperbolic_exp_against_shooting_oracle():
    g = rng(11)
    for _ in range(5):
        x = H2.random_point(g)
        u = H2.random_tangent(g, x)
        t = g.uniform(0.2, 1.2)
        y = H2.exp_map(x, TangentVector(x, t * u.components))
        y_ode = hyperbolic_geodesic_shoot(H2, x, u, t)
        assert np.abs(y.coords - y_ode).max() < 1e-8
        # distance equals the arc length of the unit-speed oracle geodesic
        assert abs(H2.distance(x, y) - t) < 1e-8


def test_hyperbolic_roundtrip_tight():
    g = rng(5)
    x = H2.point([0.0, 0.0, 1.0])
    for _ in range(10):
        u = H2.random_tangent(g, x)
        v = TangentVector(x, g.uniform(0.1, 2.0) * u.components)
        assert np.abs(H2.log_map(x, H2.exp_map(x, v)).components - v.components).max() < 1e-10


@pytest.mark.parametrize("m", ALL, ids=lambda m: f"{m.kind}:{m.dim}")
def test_parallel_transport_preserves_gram(m):
    g = rng(13)
    x = m.random_point(g)
    y = m.random_point(g)
    if m.kind == "sphere" and m.distance(x, y) >= math.pi * m.radius - 1e-6:
        y = m.exp_map(x, TangentVector(x, m.random_tangent(g, x).components))
    vs = [TangentVector(x, m.random_tangent(g, x).components * g.uniform(0.5, 2.0))
          for _ in range(3)]
    ws = [m.parallel_transport(v, y) for v in vs]
    for a in range(3):
        for b in range(3):
            lhs = m.ip(vs[a].components, vs[b].components)
            rhs = m.ip(ws[a].components, ws[b].components)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_transport_of_geodesic_velocity():
    for m in ALL:
        g = rng(17)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        y = m.exp_map(x, TangentVector(x, 0.7 * u.components))
        moved = m.parallel_transport(u, y)
        jet = m.distance_jet(x, y)
        # forward velocity at y is minus the unit vector from y toward x
        assert np.abs(moved.components + jet.u_yx.components).max() < 1e-10


def test_euclidean_transport_is_identity():
    x = E3.point([1.0, 2.0, 3.0])
    y = E3.point([0.0, 0.0, 0.0])
    v = E3.tangent(x, [0.1, 0.2, 0.3])
    assert np.array_equal(E3.parallel_transport(v, y).components, v.components)


def test_riemann_tensor_values_and_symmetries():
    x = E3.point([0.0, 0.0, 0.0])
    vs = [E3.tangent(x, np.eye(3)[i]) for i in range(3)]
    assert E3.riemann_tensor(x, *[vs[i] for i in (0, 1, 0, 1)]) == 0.0
    xs = S2.point([0.0, 0.0, 1.0])
    u = S2.tangent(xs, [1.0, 0.0, 0.0])
    v = S2.tangent(xs, [0.0, 1.0, 0.0])
    assert S2.riemann_tensor(xs, u, v, u, v) == 1.0
    g = rng(23)
    for m in (S2, H2):
        x = m.random_point(g)
        a, b, c, d = (m.random_tangent(g, x) for _ in range(4))
        r = m.riemann_tensor
        assert r(x, a, b, c, d) == -r(x, b, a, c, d)
        assert r(x, a, b, c, d) == -r(x, a, b, d, c)
        assert r(x, a, b, c, d) == r(x, c, d, a, b)
        bianchi = r(x, a, b, c, d) + r(x, b, c, a, d) + r(x, c, a, b, d)
        assert bianchi == 0.0


def test_jet_flat_closed_form():
    x = E3.point([0.0, 0.0, 0.0])
    y = E3.point([2.0, 0.0, 0.0])
    jet = E3.distance_jet(x, y)
    d = 2.0
    proj = np.diag([0.0, 1.0, 1.0])
    assert np.abs(jet.q1 - proj / d**2).max() < 1e-15
    assert np.abs(jet.q2 - proj / d**2).max() < 1e-15
    assert np.abs(jet.q12 + proj / d**2).max() < 1e-15


def test_jet_first_variation_and_annihilation():
    for m in ALL:
        g = rng(29)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        y = m.exp_map(x, TangentVector(x, 0.6 * u.components))
        jet = m.distance_jet(x, y)
        d = jet.d
        # d * l1 = -g u_xy and d * l2 = -g u_yx in frame components
        e0 = np.zeros(m.dim)
        e0[0] = 1.0
        assert np.abs(d * jet.l1 + e0).max() < 1e-12
        assert np.abs(d * jet.l2 - e0).max() < 1e-12
        # annihilation along the geodesic direction is exact
        assert np.abs(jet.q1 @ e0).max() == 0.0
        assert np.abs(jet.q2 @ e0).max() == 0.0
        assert np.abs(jet.q12 @ e0).max() == 0.0
        assert np.abs(e0 @ jet.q12).max() == 0.0
        assert np.abs(jet.u_xy.components - jet.frame_x[:, 0]).max() == 0.0


def test_jet_psd_below_quarter_circumference():
    g = rng(31)
    for m in ALL:
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        top = math.pi * m.radius / 2 * 0.95 if m.kind == "sphere" else 1.5
        y = m.exp_map(x, TangentVector(x, g.uniform(0.1, top) * u.components))
        jet = m.distance_jet(x, y)
        assert np.linalg.eigvalsh(jet.q1).min() >= -1e-12
        assert np.linalg.eigvalsh(jet.q2).min() >= -1e-12


@pytest.mark.parametrize("m,delta", [(S2, 0.3), (H2, 0.3), (parse_manifold("sphere:3:2"), 0.4)],
                         ids=["s2", "h2", "s3r2"])
def test_jet_matches_finite_differences(m, delta):
    g = rng(37)
    x = m.random_point(g)
    u = m.random_tangent(g, x)
    y = m.exp_map(x, TangentVector(x, delta * u.components))
    jet = m.distance_jet(x, y)
    num = m.distance_jet_numeric(x, y, step=delta / 200)
    for name in ("l1", "l2", "q1", "q2", "q12"):
        a = getattr(jet, name)
        b = getattr(num, name)
        scale = max(np.abs(a).max(), 1e-12)
        assert np.abs(a - b).max() / scale < 1e-4, name


def test_jet_numeric_richardson_order_two():
    g = rng(41)
    for m in (S2, H2):
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        y = m.exp_map(x, TangentVector(x, 0.5 * u.components))
        jet = m.distance_jet(x, y)
        errs = []
        for h in (0.01, 0.005):
            num = m.distance_jet_numeric(x, y, step=h)
            errs.append(np.abs(num.q1 - jet.q1).max())
        assert errs[0] / errs[1] > 3.0  # second-order convergence in the step


def test_jet_small_delta_curvature_extraction():
    # (q1*d^2 - P)/d^2 -> -R(u,.,u,.)/3 and (q12*d^2 + P)/d^2 -> -R(u,.,u,.)/6
    for m in (S2, H2):
        g = rng(43)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        K = m.sectional_curvature
        resid1 = []
        resid12 = []
        deltas = (0.2, 0.1, 0.05)
        for d in deltas:
            y = m.exp_map(x, TangentVector(x, d * u.components))
            jet = m.distance_jet(x, y)
            P = np.diag([0.0] + [1.0] * (m.dim - 1))
            c1 = (jet.q1 * jet.d**2 - P) / jet.d**2
            c12 = (jet.q12 * jet.d**2 + P) / jet.d**2
            resid1.append(np.abs(c1 + K * P / 3.0).max())
            resid12.append(np.abs(c12 + K * P / 6.0).max())
        # O(delta^2) residual: each halving divides the residual by ~4
        assert resid1[0] / resid1[1] == pytest.approx(4.0, rel=0.2)
        assert resid1[1] / resid1[2] == pytest.approx(4.0, rel=0.2)
        assert resid12[0] / resid12[1] == pytest.approx(4.0, rel=0.2)


def test_jet_cut_locus_guard():
    x = S2.point([0.0, 0.0, 1.0])
    u = S2.tangent(x, [1.0, 0.0, 0.0])
    y = S2.exp_map(x, TangentVector(x, (math.pi - 1e-8) * u.components))
    with pytest.raises(CutLocusError):
        S2.distance_jet(x, y)


def test_adapted_frames_orthonormal_and_transported():
    for m in ALL:
        g = rng(47)
        x = m.random_point(g)
        u = m.random_tangent(g, x)
        y = m.exp_map(x, TangentVector(x, 0.8 * u.components))
        E, F = m.adapted_frames(x, y)
        for cols, base in ((E, x), (F, y)):
            gram = np.array([[m.ip(cols[:, a], cols[:, b]) for b in range(m.dim)]
                             for a in range(m.dim)])
            assert np.abs(gram - np.eye(m.dim)).max() < 1e-12
        # frame at y is the transported frame at x
        moved = m.transport_many(np.broadcast_to(x.coords, (m.dim, m.ambient_dim)),
                                 np.broadcast_to(y.coords, (m.dim, m.ambient_dim)), E.T).T
        assert np.abs(moved - F).max() < 1e-12


@pytest.mark.parametrize("m, coords", [(S2, [np.nan, 0.0, 1.0]), (H2, [np.nan, 0.0, 1.0]),
                                       (H2, [np.inf, 0.0, np.inf])])
def test_point_rejects_non_finite_coordinates(m, coords):
    # an exp map far beyond the range of doubles gives such coordinates; NaN
    # compares false with every tolerance, so each check must fail on it
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(InputError):
        Point(m, np.array(coords))

# entries with signed zeros and subnormals among them; each array is scaled
# by 1e-150, 1 or 1e150 (products that underflow to a signed zero, or reach
# 1e302, while a row's terms stay comparable, so that their order matters)
_IP_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]),
                        st.floats(-10.0, 10.0))
_IP_SCALES = st.sampled_from([1e-150, 1.0, 1e150])
_IP_SPACES = ([("euclidean", k) for k in range(1, 10)]
              + [(kind, k) for kind in ("sphere", "hyperbolic") for k in range(2, 10)])
_IP_LEADS = {"N": lambda n: (n,), "N1": lambda n: (n, 1), "1N": lambda n: (1, n)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(space=st.sampled_from(_IP_SPACES), n=st.integers(1, 3),
       leads=st.tuples(st.sampled_from(sorted(_IP_LEADS)), st.sampled_from(sorted(_IP_LEADS))),
       scales=st.tuples(_IP_SCALES, _IP_SCALES),
       u=st.lists(_IP_ENTRIES, min_size=27, max_size=27),
       v=st.lists(_IP_ENTRIES, min_size=27, max_size=27))
@example(space=("euclidean", 3), n=2, leads=("N", "N"), scales=(1.0, 1.0), u=[-0.0] * 27,
         v=[1.0] * 27)
@example(space=("hyperbolic", 4), n=3, leads=("N1", "1N"), scales=(1.0, 1.0), u=[1.0] * 27,
         v=[-0.0] * 27)
@example(space=("euclidean", 8), n=2, leads=("N", "N"), scales=(1.0, 1.0), u=[1.0] * 27,
         v=2 * ([1.0] + [2.0**-53] * 7) + [0.0] * 11)  # pairwise and sequential sums differ
def test_ip_row_sums_match_numpy_sum_bitwise(space, n, leads, scales, u, v):
    # ambient dimensions 1-9 (2-9 on the curved spaces), rows broadcast, by
    # one ufunc.reduce (few rows) and by a sum of columns (many rows), on
    # C-ordered and on column-major rows; the flat distance is the same kind
    # of row sum
    kind, k = space
    m = ModelManifold(kind, k if kind == "euclidean" else k - 1)
    U = scales[0] * np.array(u[:n * k]).reshape(_IP_LEADS[leads[0]](n) + (k,))
    V = scales[1] * np.array(v[:n * k]).reshape(_IP_LEADS[leads[1]](n) + (k,))
    want = np.sum(U * V, axis=-1)
    if kind == "hyperbolic":
        want = want - 2.0 * U[..., -1] * V[..., -1]
    norm = np.linalg.norm(V - U, axis=-1)
    for min_size, layout in itertools.product((manifolds._COLUMN_SUM_MIN_SIZE, 0),
                                              (np.ascontiguousarray, np.asfortranarray)):
        with mock.patch.object(manifolds, "_COLUMN_SUM_MIN_SIZE", min_size):
            got = m.ip(layout(U), layout(V))
            dist = m.dist_many(layout(U), layout(V)) if kind == "euclidean" else norm
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(dist.view(np.int64), norm.view(np.int64))
