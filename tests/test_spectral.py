import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccigap.curvature import kappa_dir
from riccigap.errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    DimensionOneError,
    GridTooCoarseError,
    InputError,
    NonPositiveCurvatureError,
)
from riccigap.fields import (
    DiffusionSpec,
    InverseMetricField,
    PotentialDrift,
    ZonalPolynomial,
    brownian,
    parse_potential,
    random_riemann_like,
    reversible_potential,
    tensor_diffusion,
)
from riccigap.manifolds import parse_manifold
from riccigap import spectral as sp

ZERO = ZonalPolynomial((0.0,))
S2 = parse_manifold("sphere:2:1")


def test_discretize_invariants():
    for op in (sp.discretize_s1(parse_potential("cos"), 128),
               sp.discretize_zonal(parse_potential("0.3*cos"), 128)):
        assert np.abs(op.matrix.sum(axis=1)).max() < 1e-10 * np.abs(op.matrix).max()
        sym = op.weights[:, None] * op.matrix
        assert np.abs(sym - sym.T).max() < 1e-12 * np.abs(sym).max()
        assert op.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert op.weights.min() > 0


def test_discretize_kills_constants():
    op = sp.discretize_zonal(parse_potential("0.2*cos"), 256)
    assert np.abs(op.matrix @ np.ones(op.size)).max() < 1e-10


def test_discretize_rejects_coarse_grid():
    with pytest.raises(GridTooCoarseError):
        sp.discretize_s1(ZERO, 8)


def test_s1_flat_gap_fourier():
    op = sp.discretize_s1(ZERO, 256)
    assert sp.spectral_gap(op) == pytest.approx(0.5, abs=1e-4)
    # literal eigenvalues approach -k^2/2
    w = np.sort(np.linalg.eigvalsh(
        (np.sqrt(op.weights)[:, None] * (-op.matrix)) / np.sqrt(op.weights)[None, :]))
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert w[3] == pytest.approx(2.0, abs=1e-3)  # k = 2 doublet


def test_s1_radius_scaling():
    op = sp.discretize_s1(ZERO, 256, radius=2.0)
    assert sp.spectral_gap(op) == pytest.approx(0.125, abs=1e-4)


def test_s1_gap_stable_under_refinement():
    pot = parse_potential("cos")
    g1 = sp.spectral_gap(sp.discretize_s1(pot, 512))
    g2 = sp.spectral_gap(sp.discretize_s1(pot, 1024))
    assert abs(g1 - g2) < 1e-5


def test_zonal_gap_legendre():
    assert sp.spectral_gap(sp.discretize_zonal(ZERO, 512)) == pytest.approx(1.0, abs=1e-3)
    gaps = sp.sphere_spectrum(ZERO, 512)
    assert gaps["lambda1"] == pytest.approx(1.0, abs=1e-8)
    # next zonal eigenvalue: l=2 -> l(l+1)/2 = 3
    op = sp.discretize_zonal(ZERO, 512)
    s = np.sqrt(op.weights)
    w = np.sort(np.linalg.eigvalsh((s[:, None] * (-op.matrix)) / s[None, :]))
    assert w[2] == pytest.approx(3.0, abs=1e-2)


def test_spectral_gap_linear_in_generator_scale():
    op = sp.discretize_zonal(parse_potential("0.2*cos"), 256)
    doubled = sp.DiscretizedOperator(op.kind, op.radius, op.theta, cond=2.0 * op.cond,
                                     weights=op.weights, potential=op.potential)
    assert sp.spectral_gap(doubled) == pytest.approx(2.0 * sp.spectral_gap(op), rel=1e-12)


def test_degenerate_spectrum_detected():
    # two zonal chains side by side: zero wrap and zero coupling between
    # them, so the constant on each chain is a zero mode
    op = sp.discretize_zonal(ZERO, 64)
    w = np.concatenate([op.weights, op.weights]) / 2.0
    broken = sp.DiscretizedOperator("s2-zonal", 1.0, np.concatenate([op.theta, op.theta]),
                                    np.concatenate([op.cond, op.cond]), w, ZERO)
    assert broken.cond[63] == broken.cond[-1] == 0.0
    with pytest.raises(DegenerateSpectrumError):
        sp.spectral_gap(broken)


def sector_operators(m):
    """Every builder on a few potentials: the cyclic S^1 band and the
    tridiagonal zonal and azimuthal sectors."""
    ops = [sp.discretize_s1(parse_potential(p), m) for p in ("0", "0.7*cos", "8*cos^2")]
    for p in ("0", "0.3*cos"):
        ops += [sp.discretize_zonal(parse_potential(p), m),
                sp.azimuthal_operator(parse_potential(p), m)]
    return ops


def assert_gap_matches_dense(op):
    """spectral_gap (lowest_eigenvalue on the azimuthal sector) against dense
    eigvalsh of the symmetrised operator, to the dense solver's own error."""
    m = op.size
    s = np.sqrt(op.weights)
    sym = (s[:, None] * -op.matrix) / s[None, :]
    dense = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    if op.kind == "s2-azimuthal":
        got, want = sp.lowest_eigenvalue(op), dense[0]
    else:
        got, want = sp.spectral_gap(op), dense[1]
    tol = m * np.finfo(float).eps * abs(dense[-1])
    assert abs(got - want) <= tol, (op.kind, str(op.potential), got - want)


@pytest.mark.parametrize("m", [64, 65, 512])
def test_bisection_agrees_with_dense_eigvalsh(m):
    for op in sector_operators(m):
        assert_gap_matches_dense(op)


def zonal_potentials():
    """Degree <= 3 polynomials in cos(theta) with bounded coefficients."""
    coeff = st.floats(-0.6, 0.6, allow_nan=False, allow_infinity=False)
    return st.lists(coeff, min_size=1, max_size=4).map(lambda c: ZonalPolynomial(tuple(c)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(pot=zonal_potentials(), n_prime=st.sampled_from([3.0, 10.0]))
def test_random_potentials_gap_and_bounds(pot, n_prime):
    for m in (64, 65):
        for build in (sp.discretize_s1, sp.discretize_zonal, sp.azimuthal_operator):
            assert_gap_matches_dense(build(pot, m))
    rep = sp.bounds_report(S2, pot, 256, n_prime=n_prime)
    bounds = dict(rep.applicable_bounds())
    assert ("harmonic-mean" in bounds) == (rep.K > 0)
    for name, val in bounds.items():
        assert val <= rep.lambda1 + 1e-6, (str(pot), name, val, rep.lambda1)
    # each dimensional bound is at least both ends of its search, which the
    # search evaluates with this same arithmetic
    if rep.interpolated is not None:
        n = S2.dim
        assert rep.interpolated[1] >= max(rep.harmonic_mean, n / (n - 1) * rep.K)
    if rep.bakry_emery_cd is not None:
        op = sp.discretize_zonal(pot, 256)
        rho = sp.bakry_emery_rho(reversible_potential(S2, pot), n_prime)(op.theta)
        ends = (sp.harmonic_mean_bound(rho, op.weights), n_prime / (n_prime - 1) * rho.min())
        assert rep.bakry_emery_cd[2] >= max(ends), (str(pot), n_prime)


def test_cycle_without_mirror_symmetry_rejected():
    # a stronger edge 3 -> 4 that keeps the weighted symmetry but not i -> -i
    op = sp.discretize_s1(parse_potential("0.5*cos"), 64)
    cond = op.cond.copy()
    cond[3] *= 2.0
    skew = sp.DiscretizedOperator("s1", 1.0, op.theta, cond, op.weights, op.potential)
    with pytest.raises(InputError):
        sp.spectral_gap(skew)
    with pytest.raises(InputError):
        sp.lowest_eigenvalue(op)


def test_sphere_spectrum_on_a_fine_grid():
    lam = sp.sphere_spectrum(parse_potential("0.3*cos"), 2**18)["lambda1"]
    assert lam == pytest.approx(1.006745, rel=1e-5)


def test_band_view_and_apply_match_dense():
    for op in sector_operators(64):
        L = op.matrix
        assert np.count_nonzero(L) <= 3 * op.size
        f = np.cos(op.theta) + 0.3 * np.sin(3 * op.theta)
        assert np.abs(op.apply(f) - L @ f).max() <= 1e-12 * np.abs(L).max()
        if op.kind != "s2-azimuthal":
            # the flux form kills constants exactly, on the cycle too
            assert not op.apply(np.ones(op.size)).any(), (op.kind, str(op.potential))


def test_spectra_run_in_linear_memory():
    # a dense operator at the refinement grid 8192 alone would be 537 MB
    for fn, want in ((sp.sphere_spectrum, 1.0), (sp.s1_spectrum, 0.5)):
        tracemalloc.start()
        try:
            lam = fn(ZERO, 4096)["lambda1"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, (fn.__name__, peak)
        assert lam == pytest.approx(want, abs=1e-8)


def test_small_gap_survives_fine_grid():
    # gap 1.5885e-3 at every grid while lambda_max grows like m^2: the
    # small gap must not be lost in the solver's error, which scales with
    # lambda_max
    pot = parse_potential("8*cos^2")
    coarse = sp.spectral_gap(sp.discretize_s1(pot, 256))
    fine = sp.spectral_gap(sp.discretize_s1(pot, 2048))
    assert fine == pytest.approx(1.5885e-3, rel=1e-4)
    assert fine == pytest.approx(coarse, rel=1e-5)


def other_specs():
    """Specs on S^2 that are not (1/2)(Laplacian - grad(phi).grad)."""
    pot = parse_potential("0.2*cos")
    return [tensor_diffusion(S2, random_riemann_like(3, seed=1)),
            brownian(S2, 2.0),
            DiffusionSpec(S2, InverseMetricField(1.0), PotentialDrift(pot)),
            DiffusionSpec(S2, InverseMetricField(1.0), PotentialDrift(pot),
                          potential=parse_potential("0.3*cos"))]


def test_discretize_rejects_other_diffusions():
    # the bounds' curvature grid reads the potential of a reversible spec only
    for spec in other_specs():
        with pytest.raises(InputError):
            sp.effective_kappa_grid(spec, np.linspace(0.1, 3.0, 64))


# ---------------------------------------------------------------------------
# bound formulas


def test_lichnerowicz():
    assert sp.lichnerowicz_bound(2, 1.0) == 2.0
    assert sp.lichnerowicz_bound(3, 2.0) == 3.0
    assert sp.lichnerowicz_bound(2, 0.0) == 0.0
    with pytest.raises(DimensionOneError):
        sp.lichnerowicz_bound(1, 1.0)


def test_chen_wang_branches():
    branches = dict(sp.chen_wang_bounds(2, 1.0, math.pi))
    assert branches["cosine"] == pytest.approx(2.0, abs=1e-15)
    assert branches["additive"] == pytest.approx(math.pi**2 / math.pi**2
                                                 + max(math.pi / 8, 1 - 2 / math.pi))
    flat = dict(sp.chen_wang_bounds(1, 0.0, math.pi))
    assert flat["additive"] == pytest.approx(1.0, abs=1e-15)
    # K = 0: both additive branches coincide
    both = dict(sp.chen_wang_bounds(3, 0.0, 2.0))
    assert both["additive"] == pytest.approx(both["additive-negative"], abs=1e-15)
    neg = dict(sp.chen_wang_bounds(2, -1.0, 2.0))
    assert neg["cosh"] == pytest.approx(
        math.pi**2 * math.sqrt(1 + 8 / math.pi**4) / (4 * math.cosh(1.0)))


def test_harmonic_mean_bound():
    w = np.full(10, 0.1)
    assert sp.harmonic_mean_bound(np.full(10, 0.7), w) == pytest.approx(0.7, abs=1e-14)
    k = np.linspace(0.5, 1.5, 10)
    hm = sp.harmonic_mean_bound(k, w)
    assert hm <= k.mean()
    with pytest.raises(NonPositiveCurvatureError):
        sp.harmonic_mean_bound(np.array([0.5, -0.1]), np.array([0.5, 0.5]))


def test_interpolated_bound_endpoints():
    w = np.full(8, 0.125)
    const = np.full(8, 0.5)
    c, v = sp.interpolated_bound(const, w, 2)
    assert v == pytest.approx(1.0, abs=1e-12)  # n K/(n-1) at c = K
    k = np.linspace(0.4, 1.0, 8)
    c, v = sp.interpolated_bound(k, w, 2)
    assert v >= sp.harmonic_mean_bound(k, w) - 1e-12
    assert v >= 2 * k.min() - 1e-12
    with pytest.raises(DimensionOneError):
        sp.interpolated_bound(k, w, 1)


def test_cd_bound_constant_case_and_infty():
    w = np.full(16, 1 / 16)
    rho = np.full(16, 0.5)
    c, v = sp.cd_bound(rho, w, 2.0)
    assert v == pytest.approx(1.0, abs=1e-6)
    c, v = sp.cd_bound(rho, w, math.inf)
    assert v == pytest.approx(0.5, abs=1e-9)  # harmonic mean at c = 0
    with pytest.raises(NonPositiveCurvatureError):
        sp.cd_bound(np.array([0.0, 0.5]), np.array([0.5, 0.5]), 3.0)


def _mp_slope_root(values, weights, fac):
    """The root of fac - S1/S0^2 (Sk the weighted sum of (values - c)^-(k+1)) in
    40-digit arithmetic on the same doubles, and the objective there."""
    with mpmath.workdps(40):
        v = [mpmath.mpf(float(x)) for x in values]
        w = [mpmath.mpf(float(x)) for x in weights]

        def sums(c):
            return (mpmath.fsum(wi / (vi - c) for vi, wi in zip(v, w)),
                    mpmath.fsum(wi / (vi - c) ** 2 for vi, wi in zip(v, w)))

        def slope(c):
            s0, s1 = sums(c)
            return fac - s1 / s0**2

        c = mpmath.findroot(slope, (mpmath.mpf(0), min(v) * (1 - mpmath.mpf(10) ** -12)),
                            solver="anderson")
        return float(c), float(fac * c + 1 / sums(c)[0])


@pytest.mark.parametrize("nprime", [3.0, 10.0])
def test_dimensional_bound_c_is_the_root_of_its_slope(nprime):
    # the objective is flat at its maximum, so its values fix c only to ~sqrt(eps); the
    # root of its slope fixes it to a few ulps.  S^2 under 0.219...*cos (a bounds-workload
    # potential) on the m = 512 grid
    pot = parse_potential("0.21906398587083889*cos")
    spec = reversible_potential(S2, pot)
    op = sp.discretize_zonal(pot, 512)
    kap = sp.effective_kappa_grid(spec, op.theta)
    rho = sp.bakry_emery_rho(spec, nprime)(op.theta)
    for (c, value), vals, fac in ((sp.interpolated_bound(kap, op.weights, 2), kap, 2.0),
                                  (sp.cd_bound(rho, op.weights, nprime), rho,
                                   nprime / (nprime - 1))):
        c_ref, value_ref = _mp_slope_root(vals, op.weights, fac)
        assert 0.0 < c_ref < vals.min()
        assert c == pytest.approx(c_ref, rel=8 * np.finfo(float).eps, abs=0.0)
        assert value == pytest.approx(value_ref, rel=4 * np.finfo(float).eps, abs=0.0)


def test_bakry_emery_rho_values_and_mesh():
    spec = reversible_potential(S2, parse_potential("0.2*cos"))
    rho = sp.bakry_emery_rho(spec, 3.0)
    theta = np.linspace(0.05, math.pi - 0.05, 40)
    got = rho(theta)
    a = 0.2
    want = 0.5 * np.minimum(1 - a * np.cos(theta) - (a * np.sin(theta)) ** 2 / (3 - 2),
                            1 - a * np.cos(theta))
    assert np.abs(got - want).max() < 1e-9


def test_bakry_emery_rho_no_potential():
    spec = reversible_potential(S2, ZERO)
    rho = sp.bakry_emery_rho(spec, 2.0)
    assert rho(np.array([0.3, 1.0, 2.0])) == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)


def test_bakry_emery_rho_guards():
    spec = reversible_potential(S2, parse_potential("0.2*cos"))
    with pytest.raises(DimensionMismatchError):
        sp.bakry_emery_rho(spec, 1.5)
    with pytest.raises(DimensionMismatchError):
        sp.bakry_emery_rho(spec, 2.0)


POTENTIALS = ["0", "0.3*cos", "-0.25*cos", "0.2*cos^2", "poly:0.1,0.2,-0.15,0.05"]


def rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 31], dtype=np.uint64)))


def test_effective_kappa_grid_matches_kappa_dir():
    g = rng(1)
    for radius in (1.0, 2.0):
        mfd = parse_manifold(f"sphere:2:{radius:g}")
        for text in POTENTIALS:
            spec = reversible_potential(mfd, parse_potential(text))
            theta = g.uniform(0.01, math.pi - 0.01, 24)
            want = []
            for th in theta:
                x = mfd.point(np.array([math.sin(th), 0.0, math.cos(th)]) * radius)
                e_th = mfd.tangent(x, np.array([math.cos(th), 0.0, -math.sin(th)]))
                e_ps = mfd.tangent(x, np.array([0.0, 1.0, 0.0]))
                want.append(min(kappa_dir(spec, x, e_th).kappa, kappa_dir(spec, x, e_ps).kappa))
            got = sp.effective_kappa_grid(spec, theta)
            assert np.abs(got - np.array(want)).max() <= 1e-12, (radius, text)


def test_bakry_emery_rho_matches_direction_scan():
    # the penalised curvature at angle alpha to the meridian, minimised over
    # a dense scan of [0, pi/2] that includes both endpoints
    cs2 = np.cos(np.linspace(0.0, math.pi / 2, 2049))[:, None] ** 2
    cs2[-1] = 0.0       # cos(pi/2) is 6e-17 in floating point
    g = rng(2)
    for radius in (1.0, 2.0):
        mfd = parse_manifold(f"sphere:2:{radius:g}")
        for text in POTENTIALS:
            pot = parse_potential(text)
            spec = reversible_potential(mfd, pot)
            theta = g.uniform(0.01, math.pi - 0.01, 24)
            h_tt = pot.d2theta(theta) / radius**2
            h_pp = np.cos(theta) / np.sin(theta) * pot.dtheta(theta) / radius**2
            dphi2 = (pot.dtheta(theta) / radius) ** 2
            for n_prime in ([2.0] if pot.is_zero else []) + [3.0, 10.0, math.inf]:
                slack = n_prime - 2.0
                pen = 0.0 if slack in (0.0, math.inf) else cs2 * dphi2 / slack
                scan = 1.0 / radius**2 + cs2 * h_tt + (1.0 - cs2) * h_pp - pen
                want = 0.5 * scan.min(axis=0)
                got = sp.bakry_emery_rho(spec, n_prime)(theta)
                assert np.abs(got - want).max() <= 1e-12, (radius, text, n_prime)


def test_curvature_fields_reject_other_specs():
    for spec in other_specs() + [brownian(parse_manifold("sphere:3:1")),
                                 brownian(parse_manifold("sphere:1:1"))]:
        with pytest.raises(InputError):
            sp.effective_kappa_grid(spec, np.array([0.5, 1.0]))
        with pytest.raises(InputError):
            sp.bakry_emery_rho(spec, 3.0)


def test_rho_below_kappa():
    spec = reversible_potential(S2, parse_potential("0.2*cos"))
    op = sp.discretize_zonal(parse_potential("0.2*cos"), 64)
    rho = sp.bakry_emery_rho(spec, 3.0)(op.theta)
    kap = sp.effective_kappa_grid(spec, op.theta)
    assert np.all(rho <= kap + 1e-12)


# ---------------------------------------------------------------------------
# Gamma calculus


def test_gamma_constant_function():
    op = sp.discretize_zonal(parse_potential("0.1*cos"), 64)
    g, g2 = sp.gamma_operators(op, np.ones(op.size))
    assert np.abs(g).max() < 1e-12
    assert np.abs(g2).max() < 1e-12


def test_gamma_flat_circle_sin():
    op = sp.discretize_s1(ZERO, 512)
    g, _ = sp.gamma_operators(op, np.sin(op.theta))
    assert np.abs(g - 0.5 * np.cos(op.theta) ** 2).max() < 1e-4


def test_cd_inequality_on_zonal_grid():
    pot = parse_potential("0.3*cos")
    op = sp.discretize_zonal(pot, 1024)
    spec = reversible_potential(S2, pot)
    rho = sp.bakry_emery_rho(spec, 3.0)(op.theta)
    rng = np.random.Generator(np.random.Philox(key=np.array([2, 2], dtype=np.uint64)))
    for _ in range(5):
        cs = rng.uniform(-1, 1, 7) / (1 + np.arange(7)) ** 2
        f = np.polynomial.polynomial.polyval(np.cos(op.theta), cs)
        assert sp.cd_inequality_residual(op, f, rho, 3.0) > -1e-3


# ---------------------------------------------------------------------------
# semigroup derivative identity


def make_flat_case():
    coef = sp.S1Coefficients(a=lambda x: np.ones_like(x), da=lambda x: np.zeros_like(x),
                             F=lambda x: np.zeros_like(x), dF=lambda x: np.zeros_like(x))
    fn = sp.S1TestFunction(f=np.sin, df=np.cos, d2f=lambda x: -np.sin(x),
                           d3f=lambda x: -np.cos(x))
    return coef, fn


def test_fornulle_identity_flat():
    coef, fn = make_flat_case()
    assert sp.lipschitz_derivative_identity_check(coef, fn, m=1024) < 1e-3


def test_fornulle_identity_general_coefficients():
    coef = sp.S1Coefficients(a=lambda x: 1.0 + 0.3 * np.cos(x),
                             da=lambda x: -0.3 * np.sin(x),
                             F=lambda x: 0.2 * np.sin(x),
                             dF=lambda x: 0.2 * np.cos(x))
    fn = sp.S1TestFunction(f=lambda x: np.sin(x) + 0.3 * np.cos(2 * x),
                           df=lambda x: np.cos(x) - 0.6 * np.sin(2 * x),
                           d2f=lambda x: -np.sin(x) - 1.2 * np.cos(2 * x),
                           d3f=lambda x: -np.cos(x) + 2.4 * np.sin(2 * x))
    assert sp.lipschitz_derivative_identity_check(coef, fn, m=1024) < 1e-3


def test_fornulle_monotone_subarc():
    # a function with f' > 0 on a sub-arc: residual small there as well
    coef, _ = make_flat_case()
    fn = sp.S1TestFunction(f=lambda x: np.sin(x) + 0.5 * np.sin(2 * x),
                           df=lambda x: np.cos(x) + np.cos(2 * x),
                           d2f=lambda x: -np.sin(x) - 2 * np.sin(2 * x),
                           d3f=lambda x: -np.cos(x) - 4 * np.cos(2 * x))
    assert sp.lipschitz_derivative_identity_check(coef, fn, m=1024) < 1e-3


def test_fornulle_rejects_constant():
    coef, _ = make_flat_case()
    fn = sp.S1TestFunction(f=lambda x: np.ones_like(x), df=lambda x: np.zeros_like(x),
                           d2f=lambda x: np.zeros_like(x), d3f=lambda x: np.zeros_like(x))
    with pytest.raises(Exception):
        sp.lipschitz_derivative_identity_check(coef, fn, m=256)


# ---------------------------------------------------------------------------
# report pipeline


def test_bounds_report_flat_sphere_values():
    rep = sp.bounds_report(S2, ZERO, 256, n_prime=2.0)
    assert rep.lambda1 == pytest.approx(1.0, abs=1e-3)
    assert rep.harmonic_mean == pytest.approx(0.5, abs=1e-9)
    assert rep.lichnerowicz == 1.0
    assert dict(rep.chen_wang)["cosine"] == 1.0
    assert rep.bakry_emery_cd[2] == pytest.approx(1.0, abs=1e-6)
    assert rep.interpolated[1] == pytest.approx(1.0, abs=1e-9)
    assert rep.K == pytest.approx(0.5, abs=1e-12)
    assert rep.diameter == math.pi


def test_bounds_report_s1():
    rep = sp.bounds_report(parse_manifold("sphere:1:1"), ZERO, 256)
    assert rep.lambda1 == pytest.approx(0.5, abs=1e-6)
    assert dict(rep.chen_wang)["additive"] == 0.5
    assert rep.lichnerowicz is None and rep.harmonic_mean is None
    assert rep.bakry_emery_cd is None


def test_bounds_dominance_sweep():
    cases = [(ZERO, 2.0), (parse_potential("0.1*cos"), 3.0),
             (parse_potential("0.2*cos"), 10.0), (parse_potential("0.3*cos"), 3.0)]
    for pot, npr in cases:
        rep = sp.bounds_report(S2, pot, 256, n_prime=npr)
        for name, val in rep.applicable_bounds():
            assert val <= rep.lambda1 + 1e-6, (name, val, rep.lambda1)
        if rep.interpolated is not None and rep.harmonic_mean is not None:
            assert rep.interpolated[1] >= rep.harmonic_mean - 1e-12
        if pot.is_zero:
            assert rep.interpolated[1] >= rep.lichnerowicz - 1e-12


def test_bounds_homogeneity_under_generator_scaling():
    # doubling the generator doubles the gap and every formula bound
    w = np.full(12, 1 / 12)
    k = np.linspace(0.4, 0.9, 12)
    assert sp.harmonic_mean_bound(2 * k, w) == pytest.approx(
        2 * sp.harmonic_mean_bound(k, w), rel=1e-12)
    c1, v1 = sp.interpolated_bound(k, w, 2)
    c2, v2 = sp.interpolated_bound(2 * k, w, 2)
    assert v2 == pytest.approx(2 * v1, rel=1e-9)
    c1, v1 = sp.cd_bound(k, w, 3.0)
    c2, v2 = sp.cd_bound(2 * k, w, 3.0)
    assert v2 == pytest.approx(2 * v1, rel=1e-6)
