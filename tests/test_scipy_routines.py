"""The two compiled scipy routines the package calls, taken from their
extension modules without their packages' __init__ (manifolds._scipy_routine):
the exact assignment of the MC estimator and LAPACK's bisection dstebz of the
spectral gap.

Written against scipy 1.17.1, whose files are
scipy/optimize/_lsap.cpython-311-x86_64-linux-gnu.so and
scipy/linalg/_flapack.cpython-311-x86_64-linux-gnu.so; there
scipy.optimize.linear_sum_assignment is scipy.optimize._lsap's and
scipy.linalg.lapack.dstebz is scipy.linalg._flapack's.  The test modules of
curvature and coupling import scipy.optimize and scipy.linalg, so in this
process both routes are one function: each route runs in a fresh interpreter.
"""

import importlib
import importlib.machinery
import json
import os
import pathlib
import pickle
import subprocess
import sys
import types

import numpy as np
import pytest
from click.testing import CliRunner

from riccigap import curvature, manifolds, spectral
from riccigap.cli import main
from riccigap.fields import parse_potential

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ROUTINES = [("optimize._lsap", "linear_sum_assignment", "scipy.optimize"),
            ("linalg._flapack", "dstebz", "scipy.linalg.lapack")]


def _fresh(script: str, *args) -> str:
    """Standard output of `script` run with args in a new interpreter that
    imports riccigap from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout


# Every assignment the estimator solves (the first cloud pair of a run on its
# centred cost, the later ones on the warm-start-shifted cost), the centred cost
# of every one of those cloud pairs, and integer costs full of exact ties; then
# every _ground of S^1 and both S^2 sectors.  The "private" route calls the
# package as it is; the "public" one imports scipy.optimize and scipy.linalg
# first and solves by their public functions, with _ground's bisection as
# eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 0)).
AGREEMENT = r"""
import pickle, sys
import numpy as np
route, out = sys.argv[1:]
if route == "public":
    import scipy.optimize
    from scipy.linalg import eigh_tridiagonal
from riccigap import curvature, spectral
from riccigap.cli import parse_field
from riccigap.curvature import estimate_kappa_direct
from riccigap.fields import parse_potential
from riccigap.manifolds import parse_manifold

solve = (scipy.optimize.linear_sum_assignment if route == "public"
         else curvature.linear_sum_assignment)
solves, clouds, grounds = [], [], []
assign, ground = curvature._assignment_w1, spectral._ground

def record(cost):
    rows, cols = solve(cost)
    solves.append((cost.copy(), rows, cols))
    return rows, cols

def capture(m, X, Y, *args):
    clouds.append((m, X.copy(), Y.copy()))
    return assign(m, X, Y, *args)

curvature.linear_sum_assignment, curvature._assignment_w1 = record, capture
for manifold, field, x, y in [("sphere:2:1", "brownian", [0, 0, 1], [1, 0, 0]),
                              ("sphere:2:1", "potential:0.3*cos", [0, 0, 1], [0.6, 0, 0.8]),
                              ("sphere:3:0.7", "brownian", [0, 0, 0, 0.7], [0.42, 0, 0, 0.56]),
                              ("hyperbolic:2:1", "brownian", [0, 0, 1], [0.75, 0, 1.25])]:
    m = parse_manifold(manifold)
    estimate_kappa_direct(parse_field(m, field), m.point(x), m.point(y), samples=1024,
                          batches=4, substeps=5, seed=3)
curvature._assignment_w1 = assign
for m, X, Y in clouds:
    assign(m, X, Y)
g = np.random.default_rng(11)
for shape, top in [((4, 4), 2), ((64, 64), 3), ((300, 300), 4), ((64, 64), 1), ((100, 60), 3)]:
    record(g.integers(0, top, shape))

if route == "public":
    def dstebz(d, e, *args):
        w = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 0))
        return 1, w, None, None, 0
    spectral._scipy_routine = lambda *args: dstebz

def recorded(*args):
    grounds.append(ground(*args))
    return grounds[-1]

spectral._ground = recorded
for size in (16, 17, 512, 1024, 2048):
    for text in ("0", "0.3*cos", "8*cos^2"):
        pot = parse_potential(text)
        spectral.spectral_gap(spectral.discretize_s1(pot, size))
        spectral.spectral_gap(spectral.discretize_zonal(pot, size))
        spectral.lowest_eigenvalue(spectral.azimuthal_operator(pot, size))
loaded = sorted(k for k in sys.modules if k.split(".")[:2] in (["scipy", "optimize"],
                                                              ["scipy", "linalg"]))
with open(out, "wb") as f:
    pickle.dump({"solves": solves, "grounds": grounds, "clouds": len(clouds),
                 "loaded": loaded}, f)
"""


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def test_private_and_public_routes_agree_bit_for_bit(tmp_path):
    runs = {}
    for route in ("private", "public"):
        _fresh(AGREEMENT, route, str(tmp_path / route))
        runs[route] = pickle.loads((tmp_path / route).read_bytes())
    private, public = runs["private"], runs["public"]
    assert private["loaded"] == ["scipy.linalg._flapack", "scipy.optimize._lsap"]
    assert {"scipy.optimize", "scipy.linalg"} <= set(public["loaded"])
    # 4 runs of 4 batches at each of the two ladder times, each cloud pair
    # solved again on its centred cost, and 5 tie-laden integer costs
    assert private["clouds"] == public["clouds"] == 4 * 2 * 4
    assert len(private["solves"]) == len(public["solves"]) == 2 * 4 * 2 * 4 + 5
    for i, (a, b) in enumerate(zip(private["solves"], public["solves"])):
        assert [_bits(v) for v in a] == [_bits(v) for v in b], i
    # S^1's spectral_gap takes two _grounds (even and odd functions on the
    # circle), each S^2 sector one
    assert len(private["grounds"]) == len(public["grounds"]) == 4 * 5 * 3
    assert _bits(private["grounds"]) == _bits(public["grounds"])


FRESH = r"""
import hashlib, json, sys
from click.testing import CliRunner
from riccigap.cli import main
from riccigap.manifolds import _scipy_routine

out = {}
for name, argv in json.loads(sys.argv[1]).items():
    res = CliRunner().invoke(main, argv, catch_exceptions=False)
    out[name] = [res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest()]
out["loaded"] = sorted(k for k in sys.modules if k.split(".")[:2] in (
    ["scipy", "optimize"], ["scipy", "linalg"], ["scipy", "sparse"]))
routines = [_scipy_routine(*r) for r in json.loads(sys.argv[2])]
import scipy.linalg.lapack, scipy.optimize
out["same"] = [routines[0] is scipy.optimize.linear_sum_assignment,
               routines[1] is scipy.linalg.lapack.dstebz]
print(json.dumps(out))
"""

# (stdout sha256, argv) of the README's bounds and spectrum commands and a
# small kappa --method mc one, as before the routines were taken privately
COMMANDS = {
    "bounds": ("ebdb3de51a7f03a196f25b111c5173efbbe4a02049f6263aa9710bc792ac3dd4",
               ["bounds", "--manifold", "sphere:2:1", "--potential", "0.3*cos", "--grid", "512",
                "--nprime", "3"]),
    "spectrum": ("b8837b40328b6bebc9608f017e3c7fe1395e2b2b9a1c1fd37f79d527461e367f",
                 ["spectrum", "--manifold", "sphere:2:1", "--potential", "0.3*cos", "--grid",
                  "512"]),
    "kappa-mc": ("7f49214587bf28824077be53d9c4f4bf4b1f1cd0bed9226ba457f85f8a6fe246",
                 ["kappa", "--manifold", "sphere:2:1", "--method", "mc", "--pair", "0,0,1;1,0,0",
                  "--samples", "512", "--seed", "0"]),
}


def test_cli_commands_import_neither_scipy_optimize_nor_linalg_nor_sparse():
    out = json.loads(_fresh(FRESH, json.dumps({k: v[1] for k, v in COMMANDS.items()}),
                            json.dumps(ROUTINES)))
    assert {k: out[k] for k in COMMANDS} == {k: [0, v[0]] for k, v in COMMANDS.items()}
    # only the two extension modules, registered under their own names
    assert out["loaded"] == ["scipy.linalg._flapack", "scipy.optimize._lsap"]
    # and the public packages, imported afterwards, bind the very same functions
    assert out["same"] == [True, True]


@pytest.fixture
def public():
    """The public routines, imported."""
    import scipy.linalg.lapack
    import scipy.optimize

    return [getattr(importlib.import_module(p), name) for _, name, p in ROUTINES]


def _results():
    """One assignment with ties and every _ground of a zonal spectral gap."""
    cost = np.random.default_rng(5).integers(0, 3, (50, 50))
    rows, cols = curvature.linear_sum_assignment(cost)
    op = spectral.discretize_zonal(parse_potential("0.3*cos"), 64)
    return _bits(rows), _bits(cols), spectral.spectral_gap(op)


def test_a_missing_extension_file_falls_back_to_the_public_routine(public, monkeypatch):
    want = _results()
    for ext, _, _ in ROUTINES:
        monkeypatch.delitem(sys.modules, "scipy." + ext)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    assert [manifolds._scipy_routine(*r) for r in ROUTINES] == public
    assert all("scipy." + ext not in sys.modules for ext, _, _ in ROUTINES)
    assert _results() == want


def test_a_module_without_the_routine_falls_back_to_the_public_routine(public, monkeypatch):
    want = _results()
    for ext, _, _ in ROUTINES:
        monkeypatch.setitem(sys.modules, "scipy." + ext, types.ModuleType("scipy." + ext))
    assert [manifolds._scipy_routine(*r) for r in ROUTINES] == public
    assert _results() == want


@pytest.mark.parametrize("found, info", [(0, 0), (1, 2), (1, -3)])
def test_a_bisection_without_the_ground_eigenvalue_is_a_numerical_error(found, info, monkeypatch):
    # dstebz's count and info, checked by _ground itself: eigh_tridiagonal
    # raised LinAlgError or ValueError for a nonzero info, so the CLI exited 2
    def dstebz(d, e, *args):
        return found, np.zeros(d.size), None, None, info

    monkeypatch.setattr(spectral, "_scipy_routine", lambda *args: dstebz)
    res = CliRunner().invoke(main, ["spectrum", "--manifold", "sphere:2:1", "--grid", "64"])
    assert res.exit_code == 3
    assert res.output.splitlines() == [
        f"numerical error: dstebz found {found} ground eigenvalues, info {info}"]
