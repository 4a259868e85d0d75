"""Experiment CLI: curvature evaluation, Gaussian couplings, coupled-path
simulation, spectra and bound reports, with reproducible CSV/JSON output.

Exit codes: 0 success, 2 invalid input, 3 numerical failure inside a
computation.  Every float is serialized with 17 significant digits and all
files are written atomically (temp file + rename).

CSV rows are either a list of dicts (one row per command, or a sweep) or a
typed table (`simulate`: a numpy structured array, one column per field).
`write_csv` formats them a block of rows at a time, with one %-conversion
per column, and streams each block to the temp file or to stdout; the bytes
are those of csv.writer over fmt() cells.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import click
import numpy as np

from . import curvature, simulate, spectral
from .coupling import c0_covariance
from .errors import InputError, RicciGapError
from .fields import (
    DiffusionSpec,
    brownian,
    h_residual,
    kulkarni_nomizu,
    ornstein_uhlenbeck,
    parse_potential,
    reversible_potential,
    RiemannLikeTensor,
    tensor_diffusion,
)
from .manifolds import ModelManifold, TangentVector, parse_manifold

SCHEMA_VERSION = "riccigap-report-1"


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# %-conversions of typed table columns; '%.17g' % x is f"{x:.17g}"
_COLUMN_SPECS = {"f": "%.17g", "i": "%d"}
_BLOCK_ROWS = 4096


def _quote(text: str) -> str:
    """A CSV cell as csv.writer's QUOTE_MINIMAL writes it."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_blocks(rows, columns: list[str]):
    """The CSV text in blocks of _BLOCK_ROWS rows, each formatted by one
    %-operation.  Rows are a numpy structured array, whose columns are
    formatted by type, or a list of dicts, whose cells are fmt() strings."""
    yield f"# schema={SCHEMA_VERSION}\r\n" + ",".join(map(_quote, columns)) + "\r\n"
    typed = isinstance(rows, np.ndarray)
    if typed:
        line = ",".join(_COLUMN_SPECS[rows.dtype[c].kind] for c in columns) + "\r\n"
    else:
        line = ",".join(["%s"] * len(columns)) + "\r\n"
    for i in range(0, len(rows), _BLOCK_ROWS):
        block = rows[i:i + _BLOCK_ROWS]
        if typed:
            cells = tuple(itertools.chain.from_iterable(zip(*(block[c].tolist() for c in columns))))
        else:
            cells = tuple(_quote(fmt(row.get(c))) for row in block for c in columns)
        yield (line * len(block)) % cells


def write_csv(path: str | None, rows, columns: list[str] | None = None):
    """Write rows (see _csv_blocks) as CSV to path, or to stdout when path is
    None, streaming block by block.  Columns default to the table's fields
    or to the dict keys in first-seen order."""
    if columns is None:
        if isinstance(rows, np.ndarray):
            columns = list(rows.dtype.names)
        else:
            columns = list(dict.fromkeys(key for row in rows for key in row))
    blocks = _csv_blocks(rows, columns)
    if path is None:
        for text in blocks:
            click.echo(text, nl=False)
        return
    with _atomic_open(path) as handle:
        handle.writelines(blocks)


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle on a temp file that replaces path when the block exits
    normally and is removed otherwise."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".riccigap-")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str):
    with _atomic_open(path) as handle:
        handle.write(text)


def write_json(path: str, payload: dict):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def parse_field(manifold: ModelManifold, text: str) -> DiffusionSpec:
    t = text.strip()
    low = t.lower()
    if low == "brownian":
        return brownian(manifold)
    if low.startswith("brownian:"):
        return brownian(manifold, float(t.split(":", 1)[1]))
    if low == "ou":
        return ornstein_uhlenbeck(manifold)
    if low.startswith("ou:"):
        return ornstein_uhlenbeck(manifold, float(t.split(":", 1)[1]))
    if low.startswith("potential:"):
        return reversible_potential(manifold, parse_potential(t.split(":", 1)[1]))
    if low.startswith("example-t:"):
        return tensor_diffusion(manifold, load_tensor(t.split(":", 1)[1]))
    raise InputError(f"unknown field spec {text!r}")


def load_tensor(path: str) -> RiemannLikeTensor:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read tensor file {path!r}: {exc}") from exc
    if "entries" in data:
        return RiemannLikeTensor(np.asarray(data["entries"], dtype=float))
    if "kn_pairs" in data:
        total = None
        for h, k in data["kn_pairs"]:
            term = kulkarni_nomizu(np.asarray(h, dtype=float), np.asarray(k, dtype=float)).entries
            total = term if total is None else total + term
        return RiemannLikeTensor(total)
    raise InputError("tensor file needs an 'entries' or 'kn_pairs' key")


def parse_coords(manifold: ModelManifold, text: str):
    vals = [float(v) for v in text.split(",")]
    return manifold.point(np.asarray(vals))


def with_error_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, click.UsageError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except RicciGapError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(3)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def config_defaults(ctx, param, value):
    """--config JSON supplies defaults; explicit flags override."""
    if value is None:
        return None
    try:
        with open(value) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("it must hold a JSON object")
    except (OSError, ValueError) as exc:  # parsing runs outside with_error_codes
        click.echo(f"error: bad config file {value!r}: {exc}", err=True)
        ctx.exit(2)
    ctx.default_map = {**data, **(ctx.default_map or {})}
    return value


def _config_option(fn):
    return click.option("--config", type=click.Path(exists=True), callback=config_defaults,
                        expose_value=False, is_eager=True,
                        help="JSON file with default option values")(fn)


@click.group()
def main():
    """Coarse Ricci curvature machinery on model manifolds."""


# ---------------------------------------------------------------------------


def kappa_row(manifold: str, field: str, method: str, point: str | None,
              direction: str | None, pair: str | None, delta_ladder: str,
              seed: int, samples: int) -> dict:
    mfd = parse_manifold(manifold)
    spec = parse_field(mfd, field)
    row = {"manifold": manifold, "field": field, "method": method, "seed": seed}
    if pair:
        try:
            xs, ys = pair.split(";")
        except ValueError as exc:
            raise InputError("pair must be 'x1,..;y1,..'") from exc
        x = parse_coords(mfd, xs)
        y = parse_coords(mfd, ys)
        row.update(pair=pair)
        if method == "mc":
            est, (lo, hi) = curvature.estimate_kappa_direct(spec, x, y, seed=seed,
                                                            samples=samples)
            row.update(kappa=est, ci_lo=lo, ci_hi=hi)
        else:
            rep = curvature.kappa_pair(spec, x, y)
            row.update(kappa=rep.kappa, **rep.terms)
        return row
    if not point:
        raise InputError("kappa needs --pair or --point")
    x = parse_coords(mfd, point)
    if direction in (None, "any"):
        u = TangentVector(x, mfd.frame(x)[:, 0].copy())
    else:
        u = mfd.tangent(x, np.asarray([float(v) for v in direction.split(",")]), project=True)
        nu = mfd.norm(u)
        if not nu > 0:
            raise InputError("direction has no tangent part at the point")
        u = TangentVector(x, u.components / nu)
    row.update(point=point, direction=direction or "any")
    if method == "formula":
        rep = curvature.kappa_dir(spec, x, u)
        row.update(kappa=rep.kappa, **rep.terms)
    elif method == "limit":
        deltas = [float(d) for d in delta_ladder.split(",")]
        row.update(kappa=curvature.kappa_dir_by_limit(spec, x, u, deltas))
    else:
        raise InputError("--method mc needs --pair")
    return row


@main.command("kappa")
@_config_option
@click.option("--manifold", required=True)
@click.option("--field", default="brownian", show_default=True)
@click.option("--method", type=click.Choice(["formula", "limit", "mc"]), default="formula")
@click.option("--point", default=None, help="comma-separated ambient coordinates")
@click.option("--direction", default=None, help="ambient components or 'any'")
@click.option("--pair", default=None, help="two points 'x1,..;y1,..'")
@click.option("--delta-ladder", default="0.1,0.05,0.025", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--samples", default=4096, show_default=True)
@click.option("--out", default=None, type=click.Path())
@with_error_codes
def kappa_cmd(manifold, field, method, point, direction, pair, delta_ladder, seed, samples, out):
    """Evaluate the coarse Ricci curvature (formula, limit, or Monte Carlo)."""
    row = kappa_row(manifold, field, method, point, direction, pair, delta_ladder,
                    seed, samples)
    write_csv(out, [row])


# ---------------------------------------------------------------------------


@main.command("coupling")
@_config_option
@click.option("--a-csv", required=True, type=click.Path(exists=True))
@click.option("--d-csv", required=True, type=click.Path(exists=True))
@click.option("--b-csv", required=True, type=click.Path(exists=True))
@click.option("--out-c", default=None, type=click.Path(), help="where to write C0 as CSV")
@click.option("--out", default=None, type=click.Path())
@with_error_codes
def coupling_cmd(a_csv, d_csv, b_csv, out_c, out):
    """Minimal-rank optimal Gaussian coupling for cost matrices read as CSV."""
    A = np.atleast_2d(np.loadtxt(a_csv, delimiter=","))
    D = np.atleast_2d(np.loadtxt(d_csv, delimiter=","))
    B = np.atleast_2d(np.loadtxt(b_csv, delimiter=","))
    res = c0_covariance(A, D, B)
    if out_c:
        _atomic_write(out_c, "\n".join(",".join(f"{v:.17g}" for v in r) for r in res.C) + "\n")
    rank = int(np.linalg.matrix_rank(res.C, tol=1e-9 * max(np.abs(res.C).max(), 1e-300)))
    write_csv(out, [{
        "value": res.value, "feasible": res.feasible,
        "min_eigenvalue": res.min_eigenvalue, "rank": rank,
        "rows": A.shape[0], "cols": B.shape[0],
    }])


# ---------------------------------------------------------------------------


def simulate_rows(manifold: str, field: str, x0: str, y0: str, dt: float,
                  horizon: float, paths: int, seed: int, cut_margin: float,
                  workers: int) -> tuple[np.ndarray, dict]:
    """The trajectory table, one row per recorded time of each path, as a
    numpy structured array, and the summary."""
    mfd = parse_manifold(manifold)
    spec = parse_field(mfd, field)
    x = parse_coords(mfd, x0)
    y = parse_coords(mfd, y0)
    cfg = simulate.SimConfig(dt=dt, horizon=horizon, trajectories=paths, seed=seed,
                             cut_margin=cut_margin, workers=workers)
    trajs = simulate.run_coupled(spec, x, y, cfg)
    logd = np.concatenate([tr.log_distance for tr in trajs])
    rows = np.empty(logd.size, dtype=[("trajectory", np.int64), ("t", float), ("distance", float),
                                      ("kappa_integral", float), ("defect", float)])
    rows["trajectory"] = np.repeat(np.arange(len(trajs)), [tr.times.size for tr in trajs])
    rows["t"] = np.concatenate([tr.times for tr in trajs])
    # math.exp, not np.exp: the two can differ in the last bit
    rows["distance"] = np.fromiter(map(math.exp, logd.tolist()), float, logd.size)
    rows["kappa_integral"] = np.concatenate([tr.kappa_integral for tr in trajs])
    rows["defect"] = np.concatenate([tr.defect for tr in trajs])
    finals = np.array([tr.defect[-1] for tr in trajs])
    summary = {
        "manifold": manifold, "field": field, "dt": dt, "horizon": horizon,
        "paths": paths, "seed": seed,
        "mean_abs_defect": float(np.abs(finals).mean()),
        "mean_defect": float(finals.mean()),
        "abort_fraction": float(np.mean([tr.aborted for tr in trajs])),
    }
    return rows, summary


@main.command("simulate")
@_config_option
@click.option("--manifold", required=True)
@click.option("--field", default="brownian", show_default=True)
@click.option("--x0", required=True)
@click.option("--y0", required=True)
@click.option("--dt", type=float, required=True)
@click.option("--horizon", type=float, required=True)
@click.option("--paths", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--cut-margin", type=float, default=0.1, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="trajectory CSV")
@click.option("--summary", default=None, type=click.Path(), help="summary JSON")
@with_error_codes
def simulate_cmd(manifold, field, x0, y0, dt, horizon, paths, seed, cut_margin,
                 workers, out, summary):
    """Coupled-path simulation with the pathwise contraction defect."""
    rows, summ = simulate_rows(manifold, field, x0, y0, dt, horizon, paths, seed,
                               cut_margin, workers)
    write_csv(out, rows)
    if summary:
        write_json(summary, summ)
    else:
        click.echo(json.dumps({"schema_version": SCHEMA_VERSION, **summ}, sort_keys=True))


# ---------------------------------------------------------------------------


def spectrum_row(manifold: str, potential: str, grid: int) -> dict:
    mfd = parse_manifold(manifold)
    pot = parse_potential(potential)
    row = {"manifold": manifold, "potential": potential, "m": grid}
    if mfd.kind != "sphere" or mfd.dim not in (1, 2):
        raise InputError("spectrum covers sphere:1:r and sphere:2:r")
    if mfd.dim == 1:
        row["lambda1"] = spectral.s1_spectrum(pot, grid, mfd.radius)["lambda1"]
    else:
        gaps = spectral.sphere_spectrum(pot, grid, mfd.radius)
        row.update(lambda1=gaps["lambda1"], lambda1_zonal=gaps["zonal"],
                   lambda1_azimuthal=gaps["azimuthal"])
    return row


@main.command("spectrum")
@_config_option
@click.option("--manifold", required=True)
@click.option("--potential", default="0", show_default=True)
@click.option("--grid", default=512, show_default=True)
@click.option("--out", default=None, type=click.Path())
@with_error_codes
def spectrum_cmd(manifold, potential, grid, out):
    """Spectral gap of the discretized reversible generator."""
    write_csv(out, [spectrum_row(manifold, potential, grid)])


BOUNDS_COLUMNS = [
    "manifold", "potential", "m", "nprime", "lambda1", "lambda1_zonal",
    "lambda1_azimuthal", "K", "diameter", "lichnerowicz", "chen_wang_additive",
    "chen_wang_cosine", "harmonic_mean", "interpolated_c", "interpolated",
    "cd_c", "cd_value",
]


def bounds_row(manifold: str, potential: str, grid: int, nprime: float | None) -> dict:
    mfd = parse_manifold(manifold)
    rep = spectral.bounds_report(mfd, parse_potential(potential), grid, nprime)
    chen = dict(rep.chen_wang or [])
    return {
        "manifold": manifold, "potential": potential, "m": grid, "nprime": nprime,
        "lambda1": rep.lambda1, "lambda1_zonal": rep.lambda1_zonal,
        "lambda1_azimuthal": rep.lambda1_azimuthal, "K": rep.K,
        "diameter": rep.diameter, "lichnerowicz": rep.lichnerowicz,
        "chen_wang_additive": chen.get("additive", chen.get("additive-negative")),
        "chen_wang_cosine": chen.get("cosine", chen.get("cosh")),
        "harmonic_mean": rep.harmonic_mean,
        "interpolated_c": None if rep.interpolated is None else rep.interpolated[0],
        "interpolated": None if rep.interpolated is None else rep.interpolated[1],
        "cd_c": None if rep.bakry_emery_cd is None else rep.bakry_emery_cd[1],
        "cd_value": None if rep.bakry_emery_cd is None else rep.bakry_emery_cd[2],
    }


@main.command("bounds")
@_config_option
@click.option("--manifold", required=True)
@click.option("--potential", default="0", show_default=True)
@click.option("--grid", default=512, show_default=True)
@click.option("--nprime", type=float, default=None)
@click.option("--out", default=None, type=click.Path())
@with_error_codes
def bounds_cmd(manifold, potential, grid, nprime, out):
    """Spectral gap and every applicable lower bound (half-Laplacian units)."""
    row = bounds_row(manifold, potential, grid, nprime)
    write_csv(out, [row], BOUNDS_COLUMNS)
    if out:
        width = max(len(c) for c in BOUNDS_COLUMNS)
        for col in BOUNDS_COLUMNS:
            if row.get(col) is not None:
                click.echo(f"{col:<{width}}  {fmt(row[col])}")


# ---------------------------------------------------------------------------


def check_h_row(manifold: str, field: str, geodesics: int, seed: int) -> dict:
    mfd = parse_manifold(manifold)
    spec = parse_field(mfd, field)
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed & (2**64 - 1), 0xC4EC], dtype=np.uint64)))
    worst = 0.0
    drift = 0.0
    for _ in range(geodesics):
        x = mfd.random_point(rng)
        u = mfd.random_tangent(rng, x)
        worst = max(worst, h_residual(spec, x, u))
        vals = []
        for t in np.linspace(0.0, 0.6 * min(mfd.cut_threshold, 1.0), 7):
            y = mfd.exp_map(x, TangentVector(x, t * u.components))
            ut = mfd.parallel_transport(u, y)
            E = mfd.frame(y, first=ut.components)
            vals.append(float(spec.diffusion.matrix(y, E)[0, 0]))
        drift = max(drift, float(np.ptp(vals)))
    return {"manifold": manifold, "field": field, "geodesics": geodesics, "seed": seed,
            "max_residual": worst, "max_invariant_drift": drift,
            "admissible": worst <= 1e-8}


@main.command("check-h")
@_config_option
@click.option("--manifold", required=True)
@click.option("--field", required=True)
@click.option("--geodesics", default=32, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@with_error_codes
def check_h_cmd(manifold, field, geodesics, seed, out):
    """Geodesic-invariance residual of a diffusion tensor field."""
    write_csv(out, [check_h_row(manifold, field, geodesics, seed)])


def variance_row(manifold: str, samples: int, seed: int) -> dict:
    mfd = parse_manifold(manifold)
    var, bound, se = simulate.lipschitz_variance_check(mfd, samples=samples, seed=seed)
    return {"manifold": manifold, "samples": samples, "seed": seed,
            "variance": var, "bound": bound, "stderr": se,
            "within_bound": var <= bound + 3 * se}


@main.command("variance")
@_config_option
@click.option("--manifold", required=True)
@click.option("--samples", default=1000000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@with_error_codes
def variance_cmd(manifold, samples, seed, out):
    """Variance of the distance function against the inverse-curvature bound."""
    write_csv(out, [variance_row(manifold, samples, seed)])


# ---------------------------------------------------------------------------


_SWEEP_DISPATCH = {
    "kappa": lambda c: kappa_row(
        c["manifold"], c.get("field", "brownian"), c.get("method", "formula"),
        c.get("point"), c.get("direction"), c.get("pair"),
        c.get("delta_ladder", "0.1,0.05,0.025"), int(c.get("seed", 0)),
        int(c.get("samples", 4096))),
    "spectrum": lambda c: spectrum_row(c["manifold"], c.get("potential", "0"),
                                       int(c.get("grid", 512))),
    "bounds": lambda c: bounds_row(c["manifold"], c.get("potential", "0"),
                                   int(c.get("grid", 512)),
                                   None if c.get("nprime") is None else float(c["nprime"])),
    "check-h": lambda c: check_h_row(c["manifold"], c["field"],
                                     int(c.get("geodesics", 32)), int(c.get("seed", 0))),
    "variance": lambda c: variance_row(c["manifold"], int(c.get("samples", 10**6)),
                                       int(c.get("seed", 0))),
}


@main.command("sweep")
@click.option("--configs", required=True, type=click.Path(exists=True),
              help="JSON list of row configs, each with a 'command' key")
@click.option("--workers", default=1, show_default=True)
@click.option("--out", default=None, type=click.Path())
@with_error_codes
def sweep_cmd(configs, workers, out):
    """Run a list of experiment configs; one output row per config, in input
    order, with per-row error columns."""
    if workers < 1:
        raise InputError("need at least one worker")
    with open(configs) as handle:
        items = json.load(handle)
    if not isinstance(items, list):
        raise InputError("sweep config must be a JSON list")

    def run_one(item):
        row = {"command": item.get("command", "")}
        try:
            cmd = item.get("command")
            if cmd not in _SWEEP_DISPATCH:
                raise InputError(f"unknown sweep command {cmd!r}")
            row.update(_SWEEP_DISPATCH[cmd](item))
            row["status"] = "ok"
            row["error"] = None
        except Exception as exc:  # per-row errors never abort the sweep
            row["status"] = "error"
            row["error"] = str(exc).replace(",", ";").replace("\n", " ")
        return row

    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_one, items))
    else:
        rows = [run_one(item) for item in items]
    write_csv(out, rows)


if __name__ == "__main__":
    main()
