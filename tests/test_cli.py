import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from riccigap.cli import main


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
