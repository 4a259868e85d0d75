import csv
import io
import json
import math
import os
import pathlib
import struct
import tempfile
import threading
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import riccigap
from riccigap import cli, curvature, simulate
from riccigap.cli import main
from riccigap.errors import NonPSDWarning
from test_simulate import _time_budget, record_manifold_threads


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def read_csv(path):
    import csv

    with open(path, newline="") as fh:
        first = fh.readline()
        assert first.startswith("# schema=")
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, rec)) for rec in reader if rec]
    return rows


def test_the_suite_tests_the_checkout():
    # pyproject.toml puts src/ on pytest's path, so a stale installed copy
    # of the package is never the one tested
    checkout = pathlib.Path(__file__).resolve().parents[1] / "src" / "riccigap"
    assert pathlib.Path(riccigap.__file__).resolve().parent == checkout


def test_kappa_formula(runner, tmp_path):
    out = tmp_path / "k.csv"
    res = invoke(runner, ["kappa", "--manifold", "sphere:2:1", "--field", "brownian",
                          "--method", "formula", "--point", "0,0,1", "--direction", "any",
                          "--out", str(out)])
    assert res.exit_code == 0
    row = read_csv(str(out))[0]
    assert float(row["kappa"]) == pytest.approx(0.5, abs=1e-12)


def test_kappa_pair_and_limit(runner, tmp_path):
    out = tmp_path / "k.csv"
    res = invoke(runner, ["kappa", "--manifold", "euclidean:2", "--field", "ou",
                          "--method", "limit", "--point", "0.3,0.4", "--out", str(out)])
    assert res.exit_code == 0
    assert float(read_csv(str(out))[0]["kappa"]) == pytest.approx(1.0, abs=1e-9)
    res = invoke(runner, ["kappa", "--manifold", "sphere:2:1", "--pair",
                          "0,0,1;1,0,0", "--out", str(out)])
    assert res.exit_code == 0
    want = math.tan(math.pi / 4) / (math.pi / 2)
    assert float(read_csv(str(out))[0]["kappa"]) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("where", [
    ["--method", "formula", "--pair", "0,0,1;0.0009999998333333417,0,0.9999995000000417"],
    ["--method", "limit", "--point", "0,0,1", "--direction", "1,0,0",
     "--delta-ladder", "0.001,0.0005"]], ids=["formula", "limit"])
def test_kappa_at_small_distance_with_drift_exits_0(runner, tmp_path, where):
    # d = 1e-3: the jet-quadratic parts are ~1e6 and the drift term nonzero
    out = tmp_path / "k.csv"
    res = invoke(runner, ["kappa", "--manifold", "sphere:2:1", "--field", "potential:0.3*cos",
                          *where, "--out", str(out)])
    assert res.exit_code == 0
    assert float(read_csv(str(out))[0]["kappa"]) == pytest.approx(0.35, abs=1e-6)


@pytest.mark.parametrize("space,ladder", [
    (["sphere:2:1", "--point", "0,0,1"], "0.1,0"),
    (["sphere:2:1", "--point", "0,0,1"], "0.1,-0.05"),
    (["sphere:2:1", "--point", "0,0,1"], "4,2"),
    (["sphere:2:1", "--point", "0,0,1"], "0.1,inf"),
    (["hyperbolic:2:1", "--point", "0,0,1"], "30,20"),
    (["hyperbolic:2:1", "--point", "0,0,1"], "1000,500"),
    (["euclidean:2", "--field", "ou", "--point", "0,0"], "1e300,1e299"),
], ids=["zero", "negative", "past-the-cut", "infinite", "hyperbolic-no-digits-left",
        "hyperbolic-overflow", "euclidean-overflow"])
def test_kappa_limit_rejects_a_delta_outside_the_cut_threshold(runner, tmp_path, space, ladder):
    # each delta is the distance of a pair: 4 > pi would land 2 pi - 4 away;
    # with no cut locus, a delta whose exp map overflows, or runs so far out
    # on the hyperboloid that its Lorentz form has no digits left, is as bad;
    # invoke_bad_input fails on any warning, a RuntimeWarning included
    out = tmp_path / "k.csv"
    res = invoke_bad_input(runner, ["kappa", "--manifold", *space, "--method", "limit",
                                    "--delta-ladder", ladder, "--out", str(out)])
    assert "delta" in res.output
    assert not out.exists()


def test_invalid_manifold_exits_2_writes_nothing(runner, tmp_path):
    out = tmp_path / "k.csv"
    res = runner.invoke(main, ["kappa", "--manifold", "banana:2", "--point", "0,0",
                               "--out", str(out)])
    assert res.exit_code == 2
    assert not out.exists()


def test_numerical_error_exits_3(runner, tmp_path):
    # antipodal pair: cut locus -> numerical error channel
    res = runner.invoke(main, ["kappa", "--manifold", "sphere:2:1", "--pair",
                               "0,0,1;0,0,-1", "--out", str(tmp_path / "k.csv")])
    assert res.exit_code == 3


def invoke_bad_input(runner, args):
    """A command that must fail on its arguments: exit 2 with an `error:`
    line, no output file and no warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke(runner, args)
    assert res.exit_code == 2
    assert res.output.startswith("error: ")
    assert [str(w.message) for w in caught] == []
    return res


def test_overflowing_potential_exits_2(runner, tmp_path):
    # exp(phi) overflows double precision on the grid
    out = tmp_path / "s.csv"
    invoke_bad_input(runner, ["spectrum", "--manifold", "sphere:1:1", "--potential", "800*cos",
                              "--grid", "64", "--out", str(out)])
    assert not out.exists()


def test_nprime_below_dimension_exits_2(runner, tmp_path):
    out = tmp_path / "b.csv"
    invoke_bad_input(runner, ["bounds", "--manifold", "sphere:2:1", "--nprime", "1.5",
                              "--out", str(out)])
    assert not out.exists()


def test_grid_below_minimum_exits_2(runner, tmp_path):
    out = tmp_path / "s.csv"
    invoke_bad_input(runner, ["spectrum", "--manifold", "sphere:2:1", "--grid", "8",
                              "--out", str(out)])
    assert not out.exists()


def test_kappa_normal_direction_exits_2(runner, tmp_path):
    # the direction is normal to the sphere: its tangent part is zero
    out = tmp_path / "k.csv"
    invoke_bad_input(runner, ["kappa", "--manifold", "sphere:2:1", "--point", "0,0,1",
                              "--direction", "0,0,1", "--out", str(out)])
    assert not out.exists()


# identity Kulkarni-Nomizu files on S^2 with one entry infinite, NaN, or so
# large (1e200) that its square overflows
_OUT_OF_RANGE_TENSORS = [json.dumps({"kn_pairs": [[[[v, 0, 0], [0, 1, 0], [0, 0, 1]],
                                                     np.eye(3).tolist()]]})
                         for v in (math.inf, math.nan, 1e200)]


@pytest.mark.parametrize("body", ["5", "null", '{"kn_pairs": 5}', '{"kn_pairs": [5]}',
                                  *_OUT_OF_RANGE_TENSORS])
def test_malformed_tensor_file_exits_2(runner, tmp_path, body):
    tensor = tmp_path / "t.json"
    tensor.write_text(body)
    out = tmp_path / "k.csv"
    invoke_bad_input(runner, ["kappa", "--manifold", "sphere:2:1", "--field",
                              f"example-t:{tensor}", "--point", "0,0,1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("dt, horizon", [("1e-3", "inf"), ("1e-3", "1e308"), ("inf", "inf")])
def test_simulate_without_a_finite_step_count_exits_2(runner, tmp_path, dt, horizon):
    out = tmp_path / "s.csv"
    res = invoke_bad_input(runner, ["simulate", "--manifold", "euclidean:2", "--x0", "0.5,0",
                                    "--y0", "-0.5,0", "--dt", dt, "--horizon", horizon,
                                    "--paths", "2", "--out", str(out)])
    assert "not a finite step count" in res.output
    assert not out.exists()


def test_kappa_direction_normalised_far_out_on_the_hyperboloid_is_unit(runner):
    # at rho = 10 on H^2 the Lorentz norm of a unit direction carries eps cosh^2 rho
    # ~ 3e-8 of rounding, which a fixed 1e-9 unit check rejected at 14 of 20 angles
    ch, sh = math.cosh(10.0), math.sinh(10.0)
    for i in range(20):
        a = 0.37 * i
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = invoke(runner, ["kappa", "--manifold", "hyperbolic:2:1", "--method", "formula",
                                  "--point", f"{sh * math.cos(a)!r},{sh * math.sin(a)!r},{ch!r}",
                                  "--direction", f"{math.cos(2 * a)!r},{math.sin(2 * a)!r},0"])
        assert res.exit_code == 0, (i, res.output)
        row = list(csv.DictReader(io.StringIO(res.output.split("\n", 1)[1])))[0]
        assert abs(float(row["kappa"]) + 0.5) <= 1e-9, (i, row["kappa"])


def test_workers_below_one_exit_2(runner, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text("[]")
    out = tmp_path / "o.csv"
    for workers in ("0", "-3"):
        for args in (["simulate", "--manifold", "euclidean:2", "--x0", "0.5,0",
                      "--y0", "-0.5,0", "--dt", "1e-2", "--horizon", "0.1", "--paths", "2"],
                     ["sweep", "--configs", str(cfg)]):
            res = invoke_bad_input(runner, args + ["--workers", workers, "--out", str(out)])
            assert res.output.splitlines() == ["error: need at least one worker"]
            assert not out.exists()


def test_bounds_command_values(runner, tmp_path):
    out = tmp_path / "b.csv"
    res = invoke(runner, ["bounds", "--manifold", "sphere:2:1", "--potential", "0",
                          "--grid", "256", "--nprime", "2", "--out", str(out)])
    assert res.exit_code == 0
    row = read_csv(str(out))[0]
    assert float(row["lambda1"]) == pytest.approx(1.0, abs=1e-3)
    assert float(row["harmonic_mean"]) == pytest.approx(0.5, abs=1e-9)
    assert float(row["lichnerowicz"]) == 1.0
    assert float(row["chen_wang_cosine"]) == 1.0
    assert float(row["cd_value"]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("radius", ["1e-4", "1e7", "1e-30", "1e30"])
def test_bounds_on_any_sphere_scale_as_the_inverse_square_radius(runner, tmp_path, radius):
    # the search for the interpolated bound's c in [0, K] stops at a width
    # relative to K: an absolute 1e-10 is below the ulp of K = 5e7 on
    # sphere:2:1e-4, where the search never ended.  The CD search runs over
    # [0, R] itself: an absolute margin below R emptied it from r ~ 1e6.
    # Under a potential the flat maximum fixes c only to ~sqrt(eps), so the
    # c columns are compared on the zero potential, whose optimum is an end.
    for pot, cols in (("0", ("lichnerowicz", "interpolated_c", "cd_c")), ("0.1*cos", ())):
        rows = []
        for r in ("1", radius):
            out = tmp_path / f"b{r}.csv"
            with _time_budget(5.0):
                res = invoke(runner, ["bounds", "--manifold", f"sphere:2:{r}", "--potential",
                                      pot, "--grid", "64", "--nprime", "3", "--out", str(out)])
            assert res.exit_code == 0, res.output
            rows.append(read_csv(str(out))[0])
        for col in ("lambda1", "K", "harmonic_mean", "interpolated", "cd_value") + cols:
            assert float(rows[1][col]) * float(radius) ** 2 == pytest.approx(
                float(rows[0][col]), rel=1e-9), (pot, col)


def test_spectrum_command(runner, tmp_path):
    out = tmp_path / "s.csv"
    res = invoke(runner, ["spectrum", "--manifold", "sphere:1:1", "--grid", "256",
                          "--out", str(out)])
    assert res.exit_code == 0
    assert float(read_csv(str(out))[0]["lambda1"]) == pytest.approx(0.5, abs=1e-6)


def test_spectrum_small_gap_at_fine_grid(runner, tmp_path):
    # the Richardson step runs at grid 2048, where lambda_max ~ 1e6 dwarfs the gap
    out = tmp_path / "s.csv"
    res = invoke(runner, ["spectrum", "--manifold", "sphere:1:1", "--potential", "8*cos^2",
                          "--grid", "1024", "--out", str(out)])
    assert res.exit_code == 0
    assert float(read_csv(str(out))[0]["lambda1"]) == pytest.approx(1.5885e-3, rel=1e-4)


def test_coupling_command(runner, tmp_path):
    a = tmp_path / "a.csv"
    d = tmp_path / "d.csv"
    b = tmp_path / "b.csv"
    np.savetxt(a, np.eye(2), delimiter=",")
    np.savetxt(d, np.diag([3.0, 0.0]), delimiter=",")
    np.savetxt(b, np.eye(2), delimiter=",")
    cout = tmp_path / "c0.csv"
    rout = tmp_path / "r.csv"
    res = invoke(runner, ["coupling", "--a-csv", str(a), "--d-csv", str(d),
                          "--b-csv", str(b), "--out-c", str(cout), "--out", str(rout)])
    assert res.exit_code == 0
    C = np.loadtxt(cout, delimiter=",")
    assert np.abs(C - np.diag([-1.0, 0.0])).max() < 1e-12
    row = read_csv(str(rout))[0]
    assert float(row["value"]) == pytest.approx(-3.0, abs=1e-12)
    assert row["feasible"] == "true"
    assert row["rank"] == "1"


@pytest.mark.parametrize("a, d, b, value, rank", [
    # A's 1e-10 eigenvalue is the only one the cost sees: the minimum
    # -tr sqrt(A D B D^T) = -1e-5 with a rank-one C0
    (np.diag([1.0, 1e-10]), np.diag([0.0, 1.0]), np.eye(2), "-1.0000000000000001e-05", "1"),
    # C0 = -diag(1, 1e-12): the rank counts the singular values the coupling
    # layer's rounding rule keeps, as C0's construction does
    (np.diag([1.0, 1e-12]), np.eye(2), np.diag([1.0, 1e-12]), "-1.0000000000010001", "2"),
])
def test_coupling_command_keeps_ill_conditioned_directions(runner, tmp_path, a, d, b, value, rank):
    paths = []
    for name, mat in (("a", a), ("d", d), ("b", b)):
        paths.append(tmp_path / f"{name}.csv")
        np.savetxt(paths[-1], mat, delimiter=",")
    rout = tmp_path / "r.csv"
    res = invoke(runner, ["coupling", "--a-csv", str(paths[0]), "--d-csv", str(paths[1]),
                          "--b-csv", str(paths[2]), "--out", str(rout)])
    assert res.exit_code == 0
    row = read_csv(str(rout))[0]
    assert (row["value"], row["rank"], row["feasible"]) == (value, rank, "true")


def test_coupling_command_exit_codes(runner, tmp_path):
    def csv(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    eye = csv("eye.csv", "1,0\n0,1\n")
    out = tmp_path / "r.csv"
    for a, d in ((csv("skew.csv", "1,0.5\n0,1\n"), eye),        # A not symmetric
                 (eye, csv("wide.csv", "1,0,0\n0,1,0\n")),      # D of the wrong shape
                 (csv("text.csv", "1,x\n0,1\n"), eye)):         # not numeric
        res = invoke_bad_input(runner, ["coupling", "--a-csv", a, "--d-csv", d,
                                        "--b-csv", eye, "--out", str(out)])
        assert len(res.output.splitlines()) == 1
        assert not out.exists()
    empty = csv("empty.csv", "")  # numpy reads no data, and warns
    res = invoke_bad_input(runner, ["coupling", "--a-csv", empty, "--d-csv", eye,
                                    "--b-csv", eye, "--out", str(out)])
    assert "empty.csv" in res.output and len(res.output.splitlines()) == 1
    assert not out.exists()
    res = invoke(runner, ["coupling", "--a-csv", csv("neg.csv", "1,0\n0,-1\n"), "--d-csv", eye,
                          "--b-csv", eye, "--out", str(out)])
    assert res.exit_code == 3
    assert len(res.output.splitlines()) == 1
    assert res.output.startswith("numerical error: ")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["check-h", "--manifold", "sphere:2:1", "--field", "brownian", "--geodesics", "0"],
    ["check-h", "--manifold", "sphere:2:1", "--field", "banana"],
    ["check-h", "--manifold", "sphere:2:1e-200", "--field", "brownian"],   # r^2 underflows
    ["variance", "--manifold", "sphere:2:1", "--samples", "1"],             # no sample variance
    ["variance", "--manifold", "hyperbolic:2:1", "--samples", "100"],
    ["variance", "--manifold", "sphere:2:1e200", "--samples", "100"],       # r^2 overflows
], ids=["no-geodesic", "bad-field", "tiny-scale", "one-sample", "no-positive-ricci", "huge-scale"])
def test_check_h_and_variance_exit_2(runner, tmp_path, args):
    out = tmp_path / "o.csv"
    res = invoke_bad_input(runner, args + ["--out", str(out)])
    assert len(res.output.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "bounds"])
def test_spectrum_and_bounds_zero_conductance_exit_3(runner, tmp_path, command):
    # exp(-700 cos) underflows on the coarse grid.  Conductances formed in log
    # space (ROADMAP, spectral gaps) would give this input a gap; this test
    # then needs another numerical failure.
    out = tmp_path / "o.csv"
    res = invoke(runner, [command, "--manifold", "sphere:2:1", "--potential", "700*cos",
                          "--grid", "16", "--out", str(out)])
    assert res.exit_code == 3
    assert res.output.splitlines() == [
        "numerical error: an edge conductance is zero or not finite"]
    assert not out.exists()


def test_simulate_non_psd_tensor_field_exits_3(runner, tmp_path):
    # the tensor k-n(I, -I) gives a negative definite diffusion tensor
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"kn_pairs": [[np.eye(3).tolist(), (-np.eye(3)).tolist()]]}))
    out = tmp_path / "t.csv"
    with pytest.warns(NonPSDWarning):
        res = invoke(runner, ["simulate", "--manifold", "sphere:2:1", "--field",
                              f"example-t:{tensor}", "--x0", "0,0,1",
                              "--y0", "0.479425538604203,0,0.8775825618903728", "--dt", "1e-2",
                              "--horizon", "0.1", "--paths", "2", "--out", str(out)])
    assert res.exit_code == 3
    assert res.output.splitlines() == [
        "numerical error: A_x has eigenvalue -2.000e+00 below -1e-10"]
    assert not out.exists()


@pytest.mark.parametrize("manifold", ["hyperbolic:2:1e5", "hyperbolic:2:1e-3", "sphere:2:1e3",
                                      "sphere:2:1e5"])
@pytest.mark.parametrize("field", ["brownian", "tensor"])
def test_check_h_walks_in_units_of_the_scale(runner, tmp_path, manifold, field):
    # the geodesics run to 0.6 * min(cut threshold, r), so they stay on the
    # space at every scale
    if field == "tensor":
        tensor = tmp_path / "t.json"
        tensor.write_text(json.dumps({"kn_pairs": [[np.eye(3).tolist(), np.eye(3).tolist()]]}))
        field = f"example-t:{tensor}"
    out = tmp_path / "h.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke(runner, ["check-h", "--manifold", manifold, "--field", field,
                              "--geodesics", "4", "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert res.exit_code == 0
    assert read_csv(str(out))[0]["admissible"] == "true"


@pytest.mark.parametrize("manifold", ["hyperbolic:2:1e7", "sphere:2:1e9", "hyperbolic:2:1"])
def test_check_h_tolerance_is_relative_to_the_tensor(runner, tmp_path, manifold):
    # the identity Kulkarni-Nomizu field is invariant by construction; its
    # residual grows with A, to ~1e-8 at these scales, where |A| is ~1e15
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"kn_pairs": [[np.eye(3).tolist(), np.eye(3).tolist()]]}))
    out = tmp_path / "h.csv"
    res = invoke(runner, ["check-h", "--manifold", manifold, "--field", f"example-t:{tensor}",
                          "--geodesics", "4", "--out", str(out)])
    assert res.exit_code == 0
    row = read_csv(str(out))[0]
    assert row["admissible"] == "true"
    if manifold != "hyperbolic:2:1":
        assert float(row["max_residual"]) > 1e-8


def test_check_h_on_a_sphere_below_the_old_absolute_cut_guard(runner, tmp_path):
    # the cut guards are angles, so half the circumference of a 1e-12 sphere
    # is as far from the guard as on the unit sphere
    out = tmp_path / "h.csv"
    res = invoke(runner, ["check-h", "--manifold", "sphere:2:1e-12", "--field", "brownian",
                          "--geodesics", "2", "--out", str(out)])
    assert res.exit_code == 0
    assert read_csv(str(out))[0]["admissible"] == "true"


def test_antipodal_pair_on_a_small_sphere_exits_3(runner, tmp_path):
    out = tmp_path / "k.csv"
    res = invoke(runner, ["kappa", "--manifold", "sphere:2:1e-12", "--pair",
                          "0,0,1e-12;0,0,-1e-12", "--out", str(out)])
    assert res.exit_code == 3
    assert res.output.startswith("numerical error: distance jet needs 0 < d < ")
    assert not out.exists()


@pytest.mark.parametrize("manifold,field", [
    ("sphere:2:1e5", "brownian"), ("hyperbolic:2:1e3", "brownian"),
    ("hyperbolic:2:1e7", "kn"), ("sphere:2:1e9", "kn"),
    ("sphere:2:1e-9", "kn"), ("sphere:2:1e-30", "kn"), ("hyperbolic:2:1e-20", "kn")])
def test_check_h_reads_invariant_fields_as_admissible_at_every_scale(runner, tmp_path,
                                                                      manifold, field):
    # with the default 32 geodesics: the walk starts from x and u themselves
    # (exp_map(x, 0) is x only to rounding, and u transported over that
    # distance failed the tangency check), and the residual, a derivative
    # along a unit vector, is compared with |A(x)|/r
    if field == "kn":
        tensor = tmp_path / "t.json"
        tensor.write_text(json.dumps({"kn_pairs": [[np.eye(3).tolist(), np.eye(3).tolist()]]}))
        field = f"example-t:{tensor}"
    out = tmp_path / "h.csv"
    res = invoke(runner, ["check-h", "--manifold", manifold, "--field", field,
                          "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert read_csv(str(out))[0]["admissible"] == "true"


def test_kappa_mc_cloud_over_cap_exits_2(runner, tmp_path, monkeypatch):
    # 10^6 samples in the default 16 batches are 62,500 points per cloud, whose
    # assignment would need a 31 GB cost matrix: refused before any stepping
    def stepped(*args):
        raise AssertionError("the estimator started stepping")

    monkeypatch.setattr(simulate, "_pairs", stepped)
    out = tmp_path / "k.csv"
    res = invoke_bad_input(runner, ["kappa", "--manifold", "sphere:2:1", "--method", "mc",
                                    "--pair", "0,0,1;0.479425538604203,0,0.8775825618903728",
                                    "--samples", "1000000", "--out", str(out)])
    assert res.output.splitlines() == [
        "error: the direct estimator takes at most 4096 points per cloud; "
        "1000000 samples in 16 batches give 62500"]
    assert not out.exists()


_PAIR = "0,0,1;0.479425538604203,0,0.8775825618903728"


@pytest.mark.parametrize("args", [
    ["--method", "limit", "--pair", _PAIR],
    ["--pair", _PAIR, "--point", "0,0,1"],
    ["--pair", _PAIR, "--direction", "any"],
    ["--method", "formula", "--pair", "0,0,1;0,0,1"],
    ["--method", "mc", "--pair", "0,0,1;0,0,1"],
], ids=["limit", "point", "direction", "coincident-formula", "coincident-mc"])
def test_kappa_pair_rejects_what_it_cannot_honour_before_computing(runner, tmp_path,
                                                                   monkeypatch, args):
    # the limit is taken along a direction at one point; identical points
    # have no pair curvature by any method
    def computed(*args, **kwargs):
        raise AssertionError("kappa computed before the options were checked")

    for name in ("kappa_pair", "estimate_kappa_direct", "kappa_dir", "kappa_dir_by_limit"):
        monkeypatch.setattr(curvature, name, computed)
    out = tmp_path / "k.csv"
    invoke_bad_input(runner, ["kappa", "--manifold", "sphere:2:1", *args, "--out", str(out)])
    assert not out.exists()


def test_simulate_command_and_summary(runner, tmp_path):
    out = tmp_path / "t.csv"
    summ = tmp_path / "s.json"
    res = invoke(runner, ["simulate", "--manifold", "euclidean:2", "--field", "ou",
                          "--x0", "0.5,0", "--y0", "-0.5,0", "--dt", "1e-3",
                          "--horizon", "0.2", "--paths", "4", "--seed", "1",
                          "--out", str(out), "--summary", str(summ)])
    assert res.exit_code == 0
    with open(summ) as fh:
        payload = json.load(fh)
    assert payload["schema_version"]
    assert payload["mean_abs_defect"] < 1e-10
    assert payload["abort_fraction"] == 0.0
    rows = read_csv(str(out))
    assert {r["trajectory"] for r in rows} == {"0", "1", "2", "3"}
    final = [r for r in rows if r["trajectory"] == "0"][-1]
    assert float(final["distance"]) == pytest.approx(math.exp(-0.2), rel=1e-9)


def test_check_h_and_variance(runner, tmp_path):
    tensor = tmp_path / "t.json"
    with open(tensor, "w") as fh:
        json.dump({"kn_pairs": [[np.eye(3).tolist(), np.eye(3).tolist()]]}, fh)
    out = tmp_path / "h.csv"
    res = invoke(runner, ["check-h", "--manifold", "sphere:2:1", "--field",
                          f"example-t:{tensor}", "--geodesics", "8", "--out", str(out)])
    assert res.exit_code == 0
    row = read_csv(str(out))[0]
    assert row["admissible"] == "true"
    assert float(row["max_residual"]) <= 1e-9
    out2 = tmp_path / "v.csv"
    res = invoke(runner, ["variance", "--manifold", "sphere:2:1", "--samples", "20000",
                          "--out", str(out2)])
    assert res.exit_code == 0
    assert read_csv(str(out2))[0]["within_bound"] == "true"


def test_malformed_config_exits_2(runner, tmp_path):
    out = tmp_path / "s.csv"
    for name, text in (("broken.json", '{"grid": 64,'), ("list.json", "[1, 2]")):
        cfg = tmp_path / name
        cfg.write_text(text)
        res = invoke(runner, ["spectrum", "--manifold", "sphere:1:1", "--config", str(cfg),
                              "--out", str(out)])
        assert res.exit_code == 2
        assert "error: bad config file" in res.output
        assert not out.exists()


def test_config_file_defaults_and_override(runner, tmp_path):
    cfg = tmp_path / "c.json"
    with open(cfg, "w") as fh:
        json.dump({"manifold": "sphere:1:1", "grid": 128}, fh)
    out = tmp_path / "s.csv"
    res = invoke(runner, ["spectrum", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0
    assert read_csv(str(out))[0]["m"] == "128"
    res = invoke(runner, ["spectrum", "--config", str(cfg), "--grid", "64",
                          "--out", str(out)])
    assert read_csv(str(out))[0]["m"] == "64"


def test_sweep_empty_and_rows(runner, tmp_path):
    cfg = tmp_path / "sweep.json"
    with open(cfg, "w") as fh:
        json.dump([], fh)
    out = tmp_path / "sweep.csv"
    res = invoke(runner, ["sweep", "--configs", str(cfg), "--out", str(out)])
    assert res.exit_code == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2  # schema + header only

    items = [
        {"command": "bounds", "manifold": "sphere:2:1", "potential": "0.1*cos",
         "grid": 128, "nprime": 3},
        {"command": "bounds", "manifold": "sphere:2:1", "potential": "0.1*cos",
         "grid": 128, "nprime": 3},
        {"command": "kappa", "manifold": "euclidean:2", "field": "ou",
         "point": "1,0", "direction": "any"},
        {"command": "bounds", "manifold": "nope:1"},
    ]
    with open(cfg, "w") as fh:
        json.dump(items, fh)
    res = invoke(runner, ["sweep", "--configs", str(cfg), "--out", str(out)])
    assert res.exit_code == 0
    rows = read_csv(str(out))
    assert len(rows) == 4
    assert rows[0]["status"] == rows[1]["status"] == "ok"
    # duplicate configs give identical rows
    assert rows[0] == rows[1]
    assert rows[2]["kappa"] == "1"
    assert rows[3]["status"] == "error" and rows[3]["error"]


# (command, the required keys (kappa: and a point), every option that can be
# set together: kappa's --pair takes no --point or --direction)
SWEEP_ROW_CASES = [
    ("kappa", {"manifold": "sphere:2:1", "point": "0,0,1"},
     {"manifold": "sphere:2:1", "field": "potential:0.3*cos", "method": "mc",
      "pair": "0,0,1;0.479425538604203,0,0.8775825618903728",
      "delta_ladder": "0.2,0.1", "seed": 3, "samples": 256}),
    ("spectrum", {"manifold": "sphere:1:1"},
     {"manifold": "sphere:2:1", "potential": "0.3*cos", "grid": 64}),
    ("bounds", {"manifold": "sphere:1:1"},
     {"manifold": "sphere:2:1", "potential": "0.1*cos", "grid": 64, "nprime": 3}),
    ("check-h", {"manifold": "sphere:2:1", "field": "brownian"},
     {"manifold": "hyperbolic:2:1", "field": "brownian:2", "geodesics": 3, "seed": 5}),
    ("variance", {"manifold": "sphere:2:1"},
     {"manifold": "sphere:3:1", "samples": 2000, "seed": 4}),
]


@pytest.mark.parametrize("command, required, full", SWEEP_ROW_CASES,
                         ids=[case[0] for case in SWEEP_ROW_CASES])
def test_sweep_row_is_the_subcommand_row(runner, tmp_path, command, required, full):
    # a sweep item takes the subcommand's option names and defaults; its
    # config and out keys are not the item's options and change nothing
    items = [required, full, {**full, "config": str(tmp_path / "none.json"),
                              "out": str(tmp_path / "stray.csv")}]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps([{"command": command, **item} for item in items]))
    out = tmp_path / "sweep.csv"
    assert invoke(runner, ["sweep", "--configs", str(cfg), "--out", str(out)]).exit_code == 0
    rows = read_csv(str(out))
    assert not (tmp_path / "stray.csv").exists()
    assert rows[2] == rows[1]
    for item, swept in zip(items[:2], rows):
        args = [command]
        for key, value in item.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        one = tmp_path / "one.csv"
        assert invoke(runner, args + ["--out", str(one)]).exit_code == 0
        want = read_csv(str(one))[0]
        assert swept["status"] == "ok"
        assert {key: swept[key] for key in want} == want


def test_sweep_error_rows_carry_clicks_message(runner, tmp_path):
    items = [{"command": "bounds", "potential": "0.1*cos"},
             {"command": "kappa", "manifold": "sphere:2:1", "point": "0,0,1", "method": "bogus"}]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(items))
    out = tmp_path / "sweep.csv"
    assert invoke(runner, ["sweep", "--configs", str(cfg), "--out", str(out)]).exit_code == 0
    rows = read_csv(str(out))
    assert [row["status"] for row in rows] == ["error", "error"]
    assert rows[0]["error"] == "Missing parameter: manifold"
    assert rows[1]["error"] == "'bogus' is not one of 'formula'; 'limit'; 'mc'."
    res = runner.invoke(main, ["kappa", "--manifold", "sphere:2:1", "--point", "0,0,1",
                               "--method", "bogus"])
    assert res.exit_code == 2
    assert "'bogus' is not one of 'formula', 'limit', 'mc'." in res.output


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_non_object_items_give_error_rows(runner, tmp_path, workers):
    # an item that is not a JSON object is one bad item: an error row, and
    # the valid item after it still runs
    valid = {"command": "bounds", "manifold": "sphere:1:1", "grid": 64}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps([1, "x", None, valid]))
    out = tmp_path / "sweep.csv"
    res = invoke(runner, ["sweep", "--configs", str(cfg), "--workers", str(workers),
                          "--out", str(out)])
    assert res.exit_code == 0
    rows = read_csv(str(out))
    assert [(row["command"], row["status"], row["error"]) for row in rows[:3]] == [
        ("", "error", "sweep item 1 is not an object"),
        ("", "error", "sweep item 'x' is not an object"),
        ("", "error", "sweep item None is not an object")]
    assert rows[3]["command"] == "bounds" and rows[3]["status"] == "ok"
    one = tmp_path / "one.csv"
    assert invoke(runner, ["bounds", "--manifold", "sphere:1:1", "--grid", "64",
                           "--out", str(one)]).exit_code == 0
    want = read_csv(str(one))[0]
    assert {key: rows[3][key] for key in want} == want


def test_sweep_potential_dominance(runner, tmp_path):
    items = [{"command": "bounds", "manifold": "sphere:2:1", "potential": f"{a}*cos",
              "grid": 128, "nprime": 3} for a in (0, 0.1, 0.2, 0.3)]
    cfg = tmp_path / "sweep.json"
    with open(cfg, "w") as fh:
        json.dump(items, fh)
    out = tmp_path / "sweep.csv"
    res = invoke(runner, ["sweep", "--configs", str(cfg), "--out", str(out)])
    assert res.exit_code == 0
    rows = read_csv(str(out))
    assert len(rows) == 4
    for row in rows:
        assert row["status"] == "ok"
        lam = float(row["lambda1"])
        for col in ("lichnerowicz", "chen_wang_additive", "chen_wang_cosine",
                    "harmonic_mean", "interpolated", "cd_value"):
            if row[col]:
                assert float(row[col]) <= lam + 1e-6, (row["potential"], col)


def test_outputs_byte_identical_across_runs_and_workers(runner, tmp_path):
    items = [
        {"command": "kappa", "manifold": "sphere:2:1", "pair": "0,0,1;1,0,0",
         "method": "mc", "seed": 3, "samples": 512},
        {"command": "variance", "manifold": "sphere:2:1", "samples": 5000, "seed": 2},
    ]
    cfg = tmp_path / "sweep.json"
    with open(cfg, "w") as fh:
        json.dump(items, fh)
    blobs = []
    for workers, name in ((1, "a.csv"), (4, "b.csv"), (1, "c.csv")):
        out = tmp_path / name
        res = invoke(runner, ["sweep", "--configs", str(cfg), "--workers", str(workers),
                              "--out", str(out)])
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_sweep_calls_the_package_on_the_calling_thread_only(runner, tmp_path, monkeypatch):
    # rows run in input order on the calling thread at any --workers
    items = [{"command": "kappa", "manifold": "sphere:2:1", "method": "formula",
              "point": f"{math.sin(a)},0,{math.cos(a)}", "direction": "0,1,0"}
             for a in (0.1, 0.2, 0.3, 0.4)]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(items))
    idents = record_manifold_threads(monkeypatch)
    out = tmp_path / "sweep.csv"
    res = invoke(runner, ["sweep", "--configs", str(cfg), "--workers", "4", "--out", str(out)])
    assert res.exit_code == 0
    assert [row["status"] for row in read_csv(str(out))] == ["ok"] * 4
    assert idents and set(idents) == {threading.get_ident()}


def reference_csv(rows, columns=None):
    """The CSV as written before the columnar writer: one fmt() list and
    one csv.writer row per row."""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    buf = io.StringIO()
    buf.write(f"# schema={cli.SCHEMA_VERSION}\r\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cli.fmt(row.get(c)) for c in columns])
    return buf.getvalue()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300, 0.1, 1 / 3,
                  -2.5e-17, 1e16, 1e17, 123456789.125, np.float64(2.0) / 3]


def simulate_table(trajs):
    """The simulate rows as dicts, built as before the columnar table."""
    rows = []
    for j, tr in enumerate(trajs):
        defect = tr.defect
        for i, t in enumerate(tr.times):
            rows.append({"trajectory": j, "t": float(t),
                         "distance": math.exp(tr.log_distance[i]),
                         "kappa_integral": float(tr.kappa_integral[i]),
                         "defect": float(defect[i])})
    return rows


def assert_writes_like_reference(rows, want, tmp_path, capsys, columns=None):
    path = tmp_path / "w.csv"
    cli.write_csv(str(path), rows, columns)
    assert path.read_bytes() == want.encode()
    capsys.readouterr()
    cli.write_csv(None, rows, columns)
    assert capsys.readouterr().out == want


def test_write_csv_matches_csv_writer_on_dict_rows(tmp_path, capsys):
    strings = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " pad ", "50%",
               '",\n"']
    rows = [{"x": v, "n": i, "flag": i % 2 == 0, "none": None, "s": strings[i % len(strings)]}
            for i, v in enumerate(SPECIAL_FLOATS)]
    rows += [{"n": np.int64(7), "x": np.float64(-0.0), "s": s, "extra": True} for s in strings]
    assert_writes_like_reference(rows, reference_csv(rows), tmp_path, capsys)
    cols = ["s", "missing", "x"]
    assert_writes_like_reference(rows, reference_csv(rows, cols), tmp_path, capsys, cols)
    assert_writes_like_reference([], reference_csv([]), tmp_path, capsys)


def test_write_csv_matches_csv_writer_on_command_rows(tmp_path, capsys):
    pair = cli.kappa_row("sphere:2:1", "brownian", "formula", None, None,
                         "0,0,1;0.479425538604203,0,0.8775825618903728", "0.1", 0, 16)
    assert "," in pair["pair"]
    assert_writes_like_reference([pair], reference_csv([pair]), tmp_path, capsys)
    # a sweep: rows of different commands, and an error row, share the columns
    sweep = [{"command": "kappa", **pair, "status": "ok", "error": None},
             {"command": "spectrum", **cli.spectrum_row("sphere:1:1", "0.7*cos", 64),
              "status": "ok", "error": None},
             {"command": "bounds", "status": "error", "error": "unknown manifold 'nope:1'"}]
    assert_writes_like_reference(sweep, reference_csv(sweep), tmp_path, capsys)


def test_write_csv_matches_csv_writer_on_tables(tmp_path, capsys):
    m = cli.parse_manifold("sphere:2:1")
    trajs = simulate.run_coupled(
        cli.parse_field(m, "brownian"), cli.parse_coords(m, "0,0,1"),
        cli.parse_coords(m, "0.479425538604203,0,0.8775825618903728"),
        simulate.SimConfig(dt=1e-3, horizon=0.05, trajectories=3, seed=2))
    table, _ = cli.simulate_rows("sphere:2:1", "brownian", "0,0,1",
                                 "0.479425538604203,0,0.8775825618903728", 1e-3, 0.05, 3, 2,
                                 0.1, 1)
    assert len(table) == 3 * 51
    assert_writes_like_reference(table, reference_csv(simulate_table(trajs)), tmp_path, capsys)
    # more rows than one formatting block, with every special value in the float columns
    g = np.random.default_rng(5)
    n = 2 * cli._BLOCK_ROWS + 11
    big = np.empty(n, dtype=table.dtype)
    big["trajectory"] = g.integers(-2**62, 2**62, n)
    for col in ("t", "distance", "kappa_integral", "defect"):
        big[col] = g.standard_normal(n) * 10.0 ** g.integers(-320, 300, n)
        big[col][g.integers(0, n, 50)] = g.choice(SPECIAL_FLOATS, 50)
    dicts = [dict(zip(big.dtype.names, rec)) for rec in big.tolist()]
    assert_writes_like_reference(big, reference_csv(dicts), tmp_path, capsys)


def _double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _near(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# doubles at the edges of the typed writer's exact fast path (1e-11 <= |x| < 1e16)
# and of its decade guess, and exact ties of the 17-digit rounding
_WRITER_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),
    st.floats(1e-12, 1e17),
    st.builds(lambda k, u: _near(10.0**k, u), st.integers(-13, 17), st.integers(-2, 2)),
    st.builds(lambda j, m: j * 2.0**-m, st.integers(1, 2**53), st.integers(0, 80)),
    st.builds(_near, st.sampled_from([1e-11, 1e16, 1e-4, 1e-5]), st.integers(-3, 3)),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(xs=st.lists(_WRITER_FLOATS, min_size=1, max_size=40),
       ns=st.lists(st.integers(-2**63, 2**63 - 1), min_size=40, max_size=40))
def test_typed_writer_cells_are_percent_17g(xs, ns):
    table = np.empty(len(xs), dtype=[("n", np.int64), ("x", float)])
    table["n"] = ns[:len(xs)]
    table["x"] = xs
    text = "".join(cli._csv_blocks(table, ["n", "x"]))
    want = "".join("%d,%.17g\r\n" % pair for pair in zip(ns, xs))
    assert text == f"# schema={cli.SCHEMA_VERSION}\r\nn,x\r\n" + want


def test_write_csv_failure_in_second_block_leaves_no_file(tmp_path, monkeypatch):
    blocks = []
    table_text = cli._table_text

    def fail_second(block, columns):
        blocks.append(len(block))
        if len(blocks) == 2:
            raise RuntimeError("formatting failed")
        return table_text(block, columns)

    monkeypatch.setattr(cli, "_table_text", fail_second)
    table = np.zeros(2 * cli._BLOCK_ROWS, dtype=[("n", np.int64), ("x", float)])
    with pytest.raises(RuntimeError, match="formatting failed"):
        cli.write_csv(str(tmp_path / "t.csv"), table)
    assert blocks == [cli._BLOCK_ROWS] * 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_typed_writer_rejects_a_decade_guess_off_by_one(monkeypatch, toward):
    # a log10 one ulp off guesses the decade of every power of ten wrong
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    xs = [s * _near(10.0**k, u) for k in range(-12, 18) for u in (-1, 0, 1) for s in (1, -1)]
    table = np.empty(len(xs), dtype=[("x", float)])
    table["x"] = xs
    text = "".join(cli._csv_blocks(table, ["x"]))
    assert text.split("\r\n")[2:-1] == ["%.17g" % x for x in xs]


# ---------------------------------------------------------------------------
# the vectorised route: the estimator and the coupled-step kernel


@pytest.mark.parametrize("args", [
    ["kappa", "--method", "mc", "--manifold", "hyperbolic:2:1e-3", "--pair",
     "0,0,0.001;0.0005210953054937474,0,0.0011276259652063807", "--samples", "64"],
    ["simulate", "--manifold", "hyperbolic:2:1", "--field", "brownian:1e6", "--x0", "0,0,1",
     "--y0", "0.5210953054937474,0,1.1276259652063807", "--dt", "1e-3", "--horizon", "0.05",
     "--paths", "2"],
    ["simulate", "--manifold", "euclidean:2", "--field", "ou:-1e6", "--x0", "0,0", "--y0", "1,0",
     "--dt", "1e-3", "--horizon", "0.05", "--paths", "2"],
    ["simulate", "--manifold", "euclidean:2", "--field", "ou:-1e5", "--x0", "0,0", "--y0", "1,0",
     "--dt", "1e-3", "--horizon", "0.05", "--paths", "2"],
    ["kappa", "--method", "mc", "--manifold", "euclidean:1", "--field", "ou:-1e6", "--pair", "0;1",
     "--samples", "64"],
], ids=["H2-mc", "H2-simulate", "E2-ou-simulate", "E2-ou-growth-simulate", "E1-ou-mc"])
def test_blow_up_on_the_vectorised_route_exits_3(runner, args):
    # coordinates that overflow (in one step, or by e^100 a step, which
    # leaves NaN distances rather than a stop), a hyperboloid point with no
    # digits left in its Lorentz form and an OU flow exp(-rate dt) that
    # overflows are a DivergenceError, raised with no floating-point warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke(runner, args)
    assert res.exit_code == 3
    assert res.output.startswith("numerical error: ")
    assert [str(w.message) for w in caught] == []


@st.composite
def _vectorised_route_args(draw):
    """kappa --method mc or simulate on E, S or H of dimension 1-3 and scale
    1e-75-1e75, with a Brownian (c in 1e-6-1e6), OU (rate +-1e6, on E) or
    potential (|a| <= 50, on S) field; or, half the draws on S and H,
    simulate at scale 1e-3-1e3 with a Kulkarni-Nomizu field, well formed or
    not (_KN_FIELDS), which takes the per-pair noise map; from the base point
    to a point 1e-9 r away up to near the cut locus (3 r on H); simulate's
    horizon is 0.05 or, for a step count that is not finite, inf or 1e308."""
    kind = draw(st.sampled_from(["euclidean", "sphere", "hyperbolic"]))
    n = draw(st.integers(1, 3))
    kn = kind != "euclidean" and draw(st.booleans())
    r = 10.0 ** draw(st.floats(-3.0, 3.0) if kn else st.floats(-75.0, 75.0))
    fields = [st.just("brownian"), st.floats(-6.0, 6.0).map(lambda e: f"brownian:{10.0**e!r}")]
    if kind == "euclidean":
        fields.append(st.sampled_from(["ou:1e6", "ou:-1e6"]))
    if kind == "sphere":
        fields.append(st.floats(-50.0, 50.0).map(lambda a: f"potential:{a!r}*cos"))
    field = draw(st.just("kn") | _KN_FIELDS if kn else st.one_of(fields))  # kn: well formed 1 in 2
    top = math.pi if kind == "sphere" else 3.0
    theta = draw(st.one_of(st.floats(-9.0, 0.0).map(lambda e: top * 10.0**e),
                           st.floats(-12.0, -1.0).map(lambda e: top * (1.0 - 10.0**e))))
    x, y = np.zeros(n + (kind != "euclidean")), np.zeros(n + (kind != "euclidean"))
    if kind == "euclidean":
        y[0] = r * theta
        space = f"euclidean:{n}"
    else:
        sin, cos = (math.sin, math.cos) if kind == "sphere" else (math.sinh, math.cosh)
        x[-1], y[0], y[-1] = r, r * sin(theta), r * cos(theta)
        space = f"{kind}:{n}:{r!r}"
    x, y = (",".join(repr(float(v)) for v in p) for p in (x, y))
    if not kn and draw(st.booleans()):
        return ["kappa", "--method", "mc", "--manifold", space, "--field", field,
                "--pair", f"{x};{y}", "--samples", str(draw(st.integers(16, 64)))]
    return ["simulate", "--manifold", space, "--field", field, "--x0", x, "--y0", y,
            "--dt", "1e-3", "--horizon", draw(st.just("0.05") | st.sampled_from(["inf", "1e308"])),
            "--paths", "2"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=_vectorised_route_args())
def test_vectorised_route_exits_0_2_or_3_in_time_with_no_warning(args):
    # every input ends in a row or a typed error, never in a traceback, a
    # NaN row or a floating-point warning
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        args = _with_kn_tensor(args, tmp)
        with warnings.catch_warnings(record=True) as caught, _time_budget(5.0):
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, [*args, "--out", out], catch_exceptions=False)
        assert res.exit_code in (0, 2, 3), (args, res.output)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args
        if res.exit_code == 0:  # the estimate, or the distances, integrals and defects
            rows = read_csv(out)
            assert rows and all(math.isfinite(float(row[k])) for row in rows
                                for k in list(row)[-3:]), args


# the field "kn" of the fuzzes below: the identity Kulkarni-Nomizu tensor,
# "kn*V", the same with one entry V (inf, nan or 1e200, whose square
# overflows), or "kn=TEXT", a malformed tensor file holding TEXT
_KN_FIELDS = st.just("kn") | st.sampled_from(["inf", "nan", "1e200"]).map("kn*{}".format) | (
    st.sampled_from(["5", "null", '{"kn_pairs": 5}', '{"kn_pairs": [5]}', "[]", '"x"']).map(
        "kn={}".format))


def _with_kn_tensor(args, tmp):
    """args with a field drawn from _KN_FIELDS replaced by a tensor file in
    tmp: for "kn" the identity Kulkarni-Nomizu tensor of the manifold's
    ambient dimension, for "kn*V" the same with V in its first entry, for
    "kn=TEXT" the text TEXT."""
    field = next((a for a in args if a == "kn" or a.startswith(("kn*", "kn="))), None)
    if field is None:
        return args
    n = int(args[args.index("--manifold") + 1].split(":")[1])
    tensor = os.path.join(tmp, "t.json")
    with open(tensor, "w") as fh:
        if field.startswith("kn="):
            fh.write(field[3:])
        else:
            h = np.eye(n + 1)
            h[0, 0] = float(field[3:] or 1.0)
            json.dump({"kn_pairs": [[h.tolist(), np.eye(n + 1).tolist()]]}, fh)
    return [f"example-t:{tensor}" if a == field else a for a in args]


@st.composite
def _single_point_args(draw):
    """kappa --method formula or limit at one point of S2, H2 or H3 (scale
    1e-3-1e3): on the sphere anywhere, on the hyperboloid out to distance 20,
    past the reach (about 14.2); along "any", a drawn direction, the point
    itself or zero (no tangent part); Brownian, a potential or a
    Kulkarni-Nomizu field, well formed or not (_KN_FIELDS)."""
    space = draw(st.sampled_from(["sphere:2", "hyperbolic:2", "hyperbolic:3"]))
    r = 10.0 ** draw(st.floats(-3.0, 3.0))
    n = int(space[-1])
    omega = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    omega = np.array(omega) / max(np.linalg.norm(omega), 1e-300)
    top = math.pi if space == "sphere:2" else 20.0
    t = draw(st.floats(0.0, top) | st.just(top))
    sin, cos = (math.sin, math.cos) if space == "sphere:2" else (math.sinh, math.cosh)
    x = r * np.append(sin(t) * omega, cos(t))
    direction = draw(st.sampled_from(["any", "x", "0"]) | st.lists(
        st.floats(-1e3, 1e3), min_size=n + 1, max_size=n + 1).map(
        lambda v: ",".join(map(repr, v))))
    direction = {"x": ",".join(map(repr, x.tolist())),
                 "0": ",".join(["0.0"] * (n + 1))}.get(direction, direction)
    field = draw(st.sampled_from(["brownian", "kn", "potential:0.3*cos"]))
    field = draw(_KN_FIELDS) if field == "kn" else field
    method = draw(st.sampled_from(["formula", "limit"]))
    return ["kappa", "--method", method, "--manifold", f"{space}:{r!r}", "--field", field,
            "--point", ",".join(map(repr, x.tolist())), "--direction", direction]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(args=_single_point_args())
def test_single_point_kappa_exits_0_2_or_3_in_time_with_no_warning(args):
    # every point and direction ends in a finite row or a typed error, never
    # in a traceback, a hang or a floating-point warning
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        args = _with_kn_tensor(args, tmp)
        with warnings.catch_warnings(record=True) as caught, _time_budget(5.0):
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, [*args, "--out", out], catch_exceptions=False)
        assert res.exit_code in (0, 2, 3), (args, res.output)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args
        if res.exit_code == 0:
            assert math.isfinite(float(read_csv(out)[0]["kappa"])), args


@st.composite
def _pair_args(draw):
    """kappa --pair --method formula|limit|mc (mc with 16-64 samples) on S^2,
    H^2 and H^3 at scales 1e-3-1e3: the first point anywhere on the sphere or
    out to rho = 12 on the hyperboloid, the second 1e-6 r to past the cut
    threshold (10 r on H) away along a drawn direction, or the first again;
    the brownian field, potential:0.3*cos on S^2, or a Kulkarni-Nomizu field,
    well formed or not (_KN_FIELDS)."""
    space = draw(st.sampled_from(["sphere:2", "hyperbolic:2", "hyperbolic:3"]))
    m = cli.parse_manifold(f"{space}:{10.0 ** draw(st.floats(-3.0, 3.0))!r}")
    unit = st.lists(st.floats(-1.0, 1.0), min_size=m.dim, max_size=m.dim).map(np.array).filter(
        lambda w: np.linalg.norm(w) > 1e-3).map(lambda w: w / np.linalg.norm(w))
    omega, c = draw(unit), draw(unit)
    if m.kind == "sphere":
        a, top = draw(st.floats(0.0, math.pi)), math.pi
        sin, cos = math.sin(a), math.cos(a)
    else:
        rho, top = draw(st.floats(0.0, 12.0)), 10.0
        sin, cos = math.sinh(rho), math.cosh(rho)
    x = m.radius * np.append(sin * omega, cos)
    t = draw(st.floats(-6.0, math.log10(top)).map(lambda e: 10.0**e)
             | st.floats(-12.0, -6.0).map(lambda e: top * (1.0 - 10.0**e)) | st.just(0.0))
    y = m.exp_many(x, t * m.radius * (m.frame(m.point(x)) @ c)) if t else x
    fields = [st.just("brownian"), _KN_FIELDS]
    if m.kind == "sphere":
        fields.append(st.just("potential:0.3*cos"))
    method = draw(st.sampled_from(["formula", "limit", "mc"]))
    args = ["kappa", "--method", method, "--manifold", f"{space}:{m.radius!r}",
            "--field", draw(st.one_of(fields)),
            "--pair", ";".join(",".join(map(repr, p.tolist())) for p in (x, y))]
    return args + ["--samples", str(draw(st.integers(16, 64)))] if method == "mc" else args


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=_pair_args())
def test_pair_kappa_exits_0_2_or_3_in_time_with_no_warning(args):
    # every pair ends in a finite row or a typed error, never in a traceback,
    # a hang or a floating-point warning; the limit needs --point, and
    # identical points have no pair curvature
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        args = _with_kn_tensor(args, tmp)
        with warnings.catch_warnings(record=True) as caught, _time_budget(5.0):
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, [*args, "--out", out], catch_exceptions=False)
        x, y = args[args.index("--pair") + 1].split(";")
        allowed = (2,) if "limit" in args or x == y else (0, 2, 3)
        assert res.exit_code in allowed, (args, res.output)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args
        if res.exit_code == 0:
            assert math.isfinite(float(read_csv(out)[0]["kappa"])), args


@st.composite
def _report_args(draw):
    """spectrum, bounds, check-h or variance on scales 1e-75-1e75: zonal
    potentials a cos^k up to the overflow edge of exp(phi), grids 16-1024,
    --nprime below, at and above n, check-h on the brownian, a potential or
    a Kulkarni-Nomizu field, well formed or not (_KN_FIELDS), and variance
    with 2-1,000 samples."""
    command = draw(st.sampled_from(["spectrum", "bounds", "check-h", "variance"]))
    r = 10.0 ** draw(st.floats(-75.0, 75.0))
    n = draw(st.integers(1, 3))
    potential = draw(st.one_of(st.just("0"), st.builds(
        "{!r}*cos^{}".format, st.floats(-750.0, 750.0) | st.floats(-2.0, 2.0), st.integers(1, 4))))
    if command in ("spectrum", "bounds"):
        args = [command, "--manifold", f"sphere:{n}:{r!r}", "--potential", potential,
                "--grid", str(draw(st.integers(16, 1024)))]
        nprime = draw(st.none() | st.sampled_from([n - 0.5, n]) | st.floats(n, 1e3))
        return args + ["--nprime", repr(nprime)] if command == "bounds" and nprime else args
    kind = draw(st.sampled_from(["euclidean", "sphere", "hyperbolic"]))
    space = f"euclidean:{n}" if kind == "euclidean" else f"{kind}:{n}:{r!r}"
    if command == "variance":
        return ["variance", "--manifold", space, "--samples", str(draw(st.integers(2, 1000)))]
    field = draw(st.sampled_from(["brownian", "kn", f"potential:{potential}"]))
    field = draw(_KN_FIELDS) if field == "kn" else field
    return ["check-h", "--manifold", space, "--field", field,
            "--geodesics", str(draw(st.integers(1, 4)))]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(args=_report_args())
def test_report_commands_exit_0_2_or_3_in_time_with_no_warning(args):
    # every input ends in a finite row or a typed error, never in a traceback,
    # a hang or a floating-point warning; a row's bounds are below its gap and
    # an invariant field reads admissible.  The gap is the grid's, whose
    # Richardson-extrapolated error is O(m^-4): 1.1 m^-4 relative with no
    # potential, where the Lichnerowicz and Chen-Wang bounds are the exact
    # continuum gap, so 2 m^-4 is allowed besides 1e-6
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        args = _with_kn_tensor(args, tmp)
        with warnings.catch_warnings(record=True) as caught, _time_budget(5.0):
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, [*args, "--out", out], catch_exceptions=False)
        assert res.exit_code in (0, 2, 3), (args, res.output)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args
        if res.exit_code != 0:
            return
        row = read_csv(out)[0]
        text = ("manifold", "potential", "field", "admissible", "within_bound")
        assert all(math.isfinite(float(v)) for k, v in row.items() if k not in text and v), row
        if args[0] == "bounds":
            top = float(row["lambda1"]) * (1.0 + 1e-6 + 2.0 * float(row["m"]) ** -4)
            assert all(float(row[k]) <= top for k in (
                "lichnerowicz", "chen_wang_additive", "chen_wang_cosine", "harmonic_mean",
                "interpolated", "cd_value") if row[k]), row
        if args[0] == "check-h" and not args[4].startswith("potential:"):
            assert row["admissible"] == "true", (args, row)
