
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccigap.coupling import (
    _top_gram,
    c0_covariance,
    coupling_cost,
    extremal_covariances,
    feasibility_check,
    min_coupling_value,
    psd_sqrt,
    sample_feasible,
    sample_feasible_array,
)
from riccigap.errors import InputError, NegativeSpectrumError, SingularDiffusionError
from riccigap.manifolds import TangentVector, parse_manifold


def rng(seed=0):
    return np.random.default_rng(seed)


def random_spd(g, n, floor=0.3):
    a = g.standard_normal((n, n))
    return a @ a.T + floor * np.eye(n)


def test_psd_sqrt_basics():
    assert np.array_equal(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    g = rng(1)
    for _ in range(10):
        m = random_spd(g, 4)
        r = psd_sqrt(m)
        assert np.abs(r @ r - m).max() / np.abs(m).max() < 1e-12


def test_psd_sqrt_nonsymmetric_product_of_psd():
    g = rng(2)
    a = random_spd(g, 4)
    b = random_spd(g, 4)
    m = a @ b  # diagonalizable with positive eigenvalues, not symmetric
    r = psd_sqrt(m)
    assert np.abs(r @ r - m).max() / np.abs(m).max() < 1e-9
    assert np.linalg.eigvals(r).real.min() > 0


def test_psd_sqrt_rejects_negative_spectrum():
    with pytest.raises(NegativeSpectrumError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_min_coupling_value_examples():
    assert min_coupling_value(np.eye(2), np.eye(2), np.eye(2)) == pytest.approx(-2.0, abs=1e-14)
    assert min_coupling_value(np.eye(2), np.diag([3.0, 0.0]), np.eye(2)) == pytest.approx(-3.0, abs=1e-14)


def test_min_coupling_value_ill_conditioned_and_rank_one():
    # a full-rank, ill-conditioned marginal keeps its small eigenvalue
    assert min_coupling_value(np.diag([1.0, 1e-10]), np.diag([0.0, 1.0]), np.eye(2)) == \
        pytest.approx(-1e-5, rel=1e-12)
    assert min_coupling_value(np.eye(2), np.diag([0.0, 1.0]), np.diag([1.0, 1e-12])) == \
        pytest.approx(-1e-6, rel=1e-12)
    # A = v v^T: tr sqrt(A D B D^T) = sqrt(v^T D B D^T v); the rounding-size
    # eigenvalues of the computed A must not enter through their square roots
    g = rng(11)
    for _ in range(50):
        v = g.standard_normal(3)
        D = g.standard_normal((3, 3))
        B = random_spd(g, 3)
        exact = -np.sqrt(v @ D @ B @ D.T @ v)
        assert min_coupling_value(np.outer(v, v), D, B) == pytest.approx(exact, rel=1e-13)


def test_value_symmetry_and_scaling():
    g = rng(3)
    for _ in range(20):
        n1, n2 = g.integers(2, 6), g.integers(2, 6)
        A = random_spd(g, n1)
        B = random_spd(g, n2)
        D = g.standard_normal((n1, n2))
        v = min_coupling_value(A, D, B)
        assert abs(v - min_coupling_value(B, D.T, A)) < 1e-10
        s = g.uniform(0.5, 3.0)
        assert abs(min_coupling_value(s**2 * A, D, B) - s * v) < 1e-10 * max(1, abs(v))


def test_c0_examples():
    r = c0_covariance(np.eye(2), np.eye(2), np.eye(2))
    assert np.abs(r.C + np.eye(2)).max() < 1e-14
    # diagonal cost with positive entries on the first block only
    lam = [2.5, 1.0, 0.0, 0.0]
    r = c0_covariance(np.eye(4), np.diag(lam), np.eye(4))
    assert np.abs(r.C - np.diag([-1.0, -1.0, 0.0, 0.0])).max() < 1e-12
    assert r.value == pytest.approx(-3.5, abs=1e-12)


def test_c0_identities_and_rank():
    g = rng(4)
    for _ in range(25):
        n1, n2 = g.integers(2, 6), g.integers(2, 6)
        A = random_spd(g, n1)
        B = random_spd(g, n2)
        D = g.standard_normal((n1, n2))
        res = c0_covariance(A, D, B)
        assert res.feasible
        assert abs(res.value - min_coupling_value(A, D, B)) < 1e-10
        S = A @ D @ B @ D.T
        lhs = (res.C @ D.T) @ (res.C @ D.T)
        assert np.abs(lhs - S).max() <= 1e-9 * max(np.abs(S).max(), 1.0)
        adb = A @ D @ B
        assert np.abs(res.C @ D.T @ res.C - adb).max() <= 1e-9 * max(np.abs(adb).max(), 1.0)
        # C0 D^T = -sqrt(ADBD^T)
        root = psd_sqrt(0.5 * (S + S.T)) if np.abs(S - S.T).max() < 1e-12 * np.abs(S).max() else None
        rank_c = np.linalg.matrix_rank(res.C, tol=1e-9 * max(np.abs(res.C).max(), 1e-300))
        rank_adb = np.linalg.matrix_rank(adb, tol=1e-9 * max(np.abs(adb).max(), 1e-300))
        assert rank_c == rank_adb


def test_c0_sqrt_identity():
    g = rng(5)
    for _ in range(10):
        n = int(g.integers(2, 6))
        A = random_spd(g, n)
        B = random_spd(g, n)
        D = g.standard_normal((n, n))
        res = c0_covariance(A, D, B)
        S = A @ D @ B @ D.T
        root = psd_sqrt(S)
        assert np.abs(res.C @ D.T + root).max() <= 1e-8 * max(np.abs(root).max(), 1.0)


def test_degenerate_zero_cost():
    r = c0_covariance(np.eye(3), np.zeros((3, 3)), np.eye(3))
    assert r.value == 0.0
    assert np.abs(r.C).max() == 0.0
    assert r.feasible


def test_feasibility_check():
    ok, lam = feasibility_check(np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert ok and lam >= 1.0 - 1e-12
    ok, _ = feasibility_check(np.eye(2), np.eye(2), 1.5 * np.eye(2))
    assert not ok


def test_sample_feasible_all_feasible_and_deterministic():
    g = rng(6)
    v = g.standard_normal(3)
    # ra < rb; ra > rb (the Gram matrix of raw^T); a rank-1 A; both ranks >= 4
    for A, B in ((random_spd(g, 3), random_spd(g, 4)),
                 (random_spd(g, 4), random_spd(g, 2)),
                 (np.outer(v, v), random_spd(g, 3)),
                 (random_spd(g, 5), random_spd(g, 4))):
        assert sample_feasible(A, B, 0, seed=1) == []
        samples = sample_feasible(A, B, 10_000, seed=1)
        assert all(s.feasible for s in samples)
        # the stacked check gives feasibility_check's verdict, bit for bit
        sym_a, sym_b = 0.5 * (A + A.T), 0.5 * (B + B.T)
        assert [(s.feasible, s.min_eigenvalue) for s in samples[::97]] == [
            feasibility_check(sym_a, sym_b, s.C) for s in samples[::97]]
        again = sample_feasible_array(A, B, 10_000, seed=1)
        first = np.stack([s.C for s in samples])
        assert np.array_equal(first, again)
        D = g.standard_normal((A.shape[0], B.shape[0]))
        assert np.einsum("kij,ij->k", again, D).min() >= min_coupling_value(A, D, B) - 1e-9


def test_sample_feasible_zero_marginal_gives_zero():
    # with a zero marginal the only feasible cross-covariance is 0
    for A, B in ((np.zeros((2, 2)), np.eye(2)), (np.eye(3), np.zeros((2, 2)))):
        stack = sample_feasible_array(A, B, 10, 0)
        assert stack.shape == (10, A.shape[0], B.shape[0])
        assert not stack.any()
        samples = sample_feasible(A, B, 10, 0)
        assert len(samples) == 10
        assert all(s.feasible and not s.C.any() for s in samples)


def test_sample_feasible_rejects_negative_count():
    for sample in (sample_feasible, sample_feasible_array):
        with pytest.raises(InputError):
            sample(np.eye(2), np.eye(2), -1, 0)


def gram_stacks():
    """Stacks R of shape (16, r, s), r <= 5, scaled by 10^k: random, with a
    constructed double or triple top singular value, with a zero row, or 0."""
    def build(args):
        r, s, k, kind, seed = args
        g = rng(seed)
        R = g.standard_normal((16, r, s))
        if kind in ("double", "triple"):
            sig = np.ones(r)
            top = 2 if kind == "double" else 3
            sig[top:] = g.uniform(0.0, 0.9, size=max(r - top, 0))
            for i in range(16):
                u, _ = np.linalg.qr(g.standard_normal((r, r)))
                w, _ = np.linalg.qr(g.standard_normal((s, s)))
                R[i] = u @ (sig[:, None] * w[:r])
        elif kind == "zero row":
            R[:, g.integers(r)] = 0.0
        elif kind == "zero":
            R[:] = 0.0
        return R * 10.0 ** k

    dims = st.integers(1, 5).flatmap(lambda r: st.tuples(st.just(r), st.integers(r, 5)))
    kinds = st.sampled_from(["random", "double", "triple", "zero row", "zero"])
    return st.tuples(dims, st.integers(-150, 150), kinds, st.integers(0, 2**32 - 1)).map(
        lambda t: build((*t[0], *t[1:])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(R=gram_stacks())
def test_top_gram_matches_eigvalsh(R):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _top_gram(R)
    want = np.linalg.eigvalsh(np.einsum("kab,kcb->kac", R, R))[:, -1]
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)


def psd_of_rank(g, n, rank):
    a = g.standard_normal((n, rank))
    return a @ a.T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n1=st.integers(2, 5), n2=st.integers(2, 5), ranks=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       seed=st.integers(0, 2**32 - 1))
def test_c0_feasible_optimal_and_square_root(n1, n2, ranks, seed):
    # full or deficient ranks, zero included
    g = rng(seed)
    A = psd_of_rank(g, n1, min(ranks[0], n1))
    B = psd_of_rank(g, n2, min(ranks[1], n2))
    D = g.standard_normal((n1, n2))
    res = c0_covariance(A, D, B)
    v = min_coupling_value(A, D, B)
    assert res.feasible
    assert abs(res.value - v) <= 1e-10 * max(abs(v), 1.0)
    S = A @ D @ B @ D.T
    cd = res.C @ D.T
    assert np.abs(cd @ cd - S).max() <= 1e-9 * max(np.abs(S).max(), 1e-300)


def test_sample_feasible_includes_extremal():
    g = rng(7)
    n = 3
    A = random_spd(g, n)
    B = random_spd(g, n)
    samples = sample_feasible_array(A, B, 8, seed=3)
    Ainv = np.linalg.inv(A)
    # the leading samples are deterministic couplings: C^T A^{-1} C = B
    found = sum(np.abs(C.T @ Ainv @ C - B).max() < 1e-8 * np.abs(B).max() for C in samples[:4])
    assert found == 4


def test_optimality_certificate_small():
    g = rng(8)
    for trial in range(5):
        n1, n2 = int(g.integers(2, 6)), int(g.integers(2, 6))
        A = random_spd(g, n1)
        B = random_spd(g, n2)
        D = g.standard_normal((n1, n2))
        v = min_coupling_value(A, D, B)
        samples = sample_feasible_array(A, B, 20_000, seed=trial)
        costs = np.einsum("kij,ij->k", samples, D)
        assert costs.min() >= v - 1e-9


# ---------------------------------------------------------------------------
# extremal covariances from distance jets


def test_extremal_flat_parallel_and_reflection():
    m = parse_manifold("euclidean:3")
    x = m.point([0.0, 0.0, 0.0])
    y = m.point([1.0, 0.0, 0.0])
    jet = m.distance_jet(x, y)
    cp, cm = extremal_covariances(np.eye(3), np.eye(3), jet)
    assert np.abs(cp.C - np.eye(3)).max() < 1e-12
    refl = np.diag([-1.0, 1.0, 1.0])
    assert np.abs(cm.C - refl).max() < 1e-12
    assert cp.feasible and cm.feasible
    assert cp.value == pytest.approx(min_coupling_value(np.eye(3), jet.q12, np.eye(3)), abs=1e-12)
    assert cm.value == pytest.approx(cp.value, abs=1e-12)


def jet_at(m, d, seed=10):
    g = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    x = m.random_point(g)
    u = m.random_tangent(g, x)
    y = m.exp_map(x, TangentVector(x, d * u.components))
    return m.distance_jet(x, y)


def test_extremal_frame_constant_tensor_gives_exact_limits():
    # with the tensor held fixed in the transported frames, the parallel
    # extremal covariance reproduces it exactly and the reflection one
    # reproduces the reflected tensor exactly, at every separation
    m = parse_manifold("sphere:2:1")
    A = np.array([[1.4, 0.2], [0.2, 0.9]])
    e1 = np.array([1.0, 0.0])
    refl = A - 2 * np.outer(e1, e1) / np.linalg.inv(A)[0, 0]
    for d in (0.5, 1e-2):
        jet = jet_at(m, d)
        cp, cm = extremal_covariances(A, A, jet)
        assert np.abs(cp.C - A).max() < 1e-9
        assert np.abs(cm.C - refl).max() < 1e-9
        assert cp.feasible and cm.feasible


def test_extremal_sphere_field_limits():
    # for a genuine tensor field, C+ tends to A(x) at rate O(d) and C- to
    # the reflected tensor
    from riccigap.fields import h_admissible_field, random_riemann_like

    m = parse_manifold("sphere:2:1")
    fld = h_admissible_field(m, random_riemann_like(3, seed=5, psd=True))
    g = np.random.Generator(np.random.Philox(key=np.array([21, 1], dtype=np.uint64)))
    x = m.random_point(g)
    u = m.random_tangent(g, x)
    gaps = []
    gaps_m = []
    for d in (2e-2, 1e-2, 5e-3):
        y = m.exp_map(x, TangentVector(x, d * u.components))
        jet = m.distance_jet(x, y)
        A_x = fld.matrix(x, jet.frame_x)
        A_y = fld.matrix(y, jet.frame_y)
        cp, cm = extremal_covariances(A_x, A_y, jet)
        assert cp.feasible and cm.feasible
        gaps.append(np.abs(cp.C - A_x).max())
        refl = A_x - 2 * np.outer(A_x[:, 0], A_x[:, 0]) / (A_x[0, 0] * np.linalg.inv(A_x)[0, 0] * A_x[0, 0])
        gaps_m.append(np.abs(cm.C - (A_x - 2 * np.outer(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
                                      / np.linalg.inv(A_x)[0, 0])).max())
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.25)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.25)
    assert gaps_m[0] / gaps_m[1] == pytest.approx(2.0, rel=0.25)


def test_extremal_deterministic_coupling_identity():
    m = parse_manifold("sphere:2:1")
    A = np.array([[1.2, -0.1], [-0.1, 0.7]])
    B = np.array([[0.9, 0.05], [0.05, 1.1]])
    jet = jet_at(m, 0.4, seed=12)
    cp, cm = extremal_covariances(A, B, jet)
    for cov in (cp, cm):
        assert cov.feasible
        assert np.abs(cov.C.T @ np.linalg.inv(A) @ cov.C - B).max() < 1e-8


def test_extremal_optimal_value():
    m = parse_manifold("sphere:2:1")
    A = np.array([[1.2, -0.1], [-0.1, 0.7]])
    B = np.array([[0.9, 0.05], [0.05, 1.1]])
    jet = jet_at(m, 0.6, seed=13)
    cp, cm = extremal_covariances(A, B, jet)
    v = min_coupling_value(A, jet.q12, B)
    assert cp.value == pytest.approx(v, abs=1e-10)
    assert cm.value == pytest.approx(v, abs=1e-10)


def test_extremal_rejects_singular():
    m = parse_manifold("sphere:2:1")
    jet = jet_at(m, 0.5, seed=14)
    with pytest.raises(SingularDiffusionError):
        extremal_covariances(np.diag([1.0, 0.0]), np.eye(2), jet)


def test_coupling_cost_matches_value():
    g = rng(9)
    A = random_spd(g, 3)
    B = random_spd(g, 3)
    D = g.standard_normal((3, 3))
    res = c0_covariance(A, D, B)
    assert coupling_cost(res.C, D) == pytest.approx(res.value, abs=1e-10)
