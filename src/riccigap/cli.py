"""Experiment CLI: curvature evaluation, Gaussian couplings, coupled-path
simulation, spectra and bound reports, with reproducible CSV/JSON output.

Exit codes: 0 success, 2 invalid input, 3 numerical failure inside a
computation.  Every float is serialized with 17 significant digits and all
files are written atomically (temp file + rename).

CSV rows are either a list of dicts (one row per command, or a sweep) or a
typed table (`simulate`: a numpy structured array, one column per field).
`write_csv` formats them a block of rows at a time and streams each block to
the temp file or to stdout; the bytes are those of csv.writer over fmt()
cells.  A block of dicts is one %-operation.  A typed table's int and float
columns are formatted a whole column at a time in numpy: its floats by exact
integer arithmetic on the significand where 1e-11 <= |x| < 1e16, and by
'%.17g' per cell elsewhere (zeros, non-finite, tiny and huge values), with
the bytes of '%.17g' in both cases.
"""

from __future__ import annotations

import contextlib
import functools
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


_BLOCK_ROWS = 4096


def _quote(text: str) -> str:
    """A CSV cell as csv.writer's QUOTE_MINIMAL writes it."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# Typed tables are formatted a column at a time into NUL-padded ASCII
# "planes": a (width, n) uint8 array whose column j holds cell j.  The NULs
# are deleted once the block's text is assembled.
_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_POW5 = np.array([5**p for p in range(28)], dtype=np.uint64)
_E10_LO, _E10_HI = -11, 15  # decimal exponents of the exact fast path
_DIGIT = np.arange(17, dtype=np.int8)[:, None]
_LEAD = np.arange(3, dtype=np.int8)[:, None]
_FLOAT_WIDTH = 43  # sign, '0.000', 17 digits with a '.' slot between each two, 'e-dd'
_FALLBACK_WIDTH = 24  # len('%.17g' % -2.2250738585072014e-308)
_CRLF = np.array([[13], [10]], dtype=np.uint8)


def _ascii(ch: str) -> np.uint8:
    return np.uint8(ord(ch))


def _digit_planes(u: np.ndarray, count: int) -> np.ndarray:
    """The `count` decimal digits of each uint64 in u < 10**count, most
    significant first, as a (count, n) uint8 array; eight digits at a time in
    uint32, by scalar divisions."""
    out = np.empty((count, u.size), np.uint8)
    k = count
    while k > 0:
        if k > 8:
            rest = u // _U64(10**8)
            piece = (u - rest * _U64(10**8)).astype(np.uint32)
            u = rest
        else:
            piece = u.astype(np.uint32)
        for _ in range(min(k, 8)):
            k -= 1
            rest32 = piece // np.uint32(10)
            out[k] = piece - rest32 * np.uint32(10)
            piece = rest32
    return out


def _float_planes(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each double v of the 1-d array x, as (_FLOAT_WIDTH, n)
    cell planes.

    The fast path is exact for 1e-11 <= |v| < 1e16.  With v = M 2^E (M < 2^53)
    and p = 16 - floor(log10|v|) in [1, 27], 5^p < 2^63 and
    D = round(|v| 10^p) = round(M 5^p 2^(E+p)) comes from the product M 5^p
    on two uint64 limbs, shifted right by r = -(E+p) in [-2, 62] and rounded
    half to even on the exact remainder.  D is accepted when the truncated
    quotient is >= 10^16 and D < 10^17, which fails when log10's rounding put
    the decade off by one; then its digits are the 17 that '%.17g' prints
    and p fixes their exponent.  Digits past the last nonzero one are
    blanked, and the '.', the '0.000' lead of fixed notation down to 1e-4 and
    the 'e-dd' of exponent notation below it are set by masks.  Every other
    value (0, -0, nan, inf, |v| < 1e-11, |v| >= 1e16, a rejected D) is
    formatted by '%.17g' per cell.
    """
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    e10 = np.clip(np.floor(np.log10(a)), _E10_LO, _E10_HI).astype(np.int64)
    p = 16 - e10
    mant, e2 = np.frexp(a)
    m = (mant * 2.0**53).astype(np.uint64)
    r = 53 - e2 - p
    m <<= np.maximum(-r, 0).astype(np.uint64)  # a left shift is exact
    r = np.maximum(r, 0).astype(np.uint64)
    f = _POW5[p]
    mh, ml, fh, fl = m >> _U64(32), m & _LO32, f >> _U64(32), f & _LO32
    low = ml * fl
    mid = mh * fl + ml * fh + (low >> _U64(32))
    hi = mh * fh + (mid >> _U64(32))
    lo = (mid << _U64(32)) | (low & _LO32)
    q = (lo >> r) | ((hi << _U64(1)) << (_U64(63) - r))  # two shifts: r may be 0
    one = _U64(1) << r
    twice_rem = (lo & (one - _U64(1))) << _U64(1)
    d = q + ((twice_rem > one) | ((twice_rem == one) & (q & _U64(1) == 1)))
    ok = fast & ((hi >> r) == 0) & (q >= _U64(10**16)) & (d < _U64(10**17))
    digits = _digit_planes(np.where(ok, d, _U64(10**16)), 17)
    tail = digits != 0  # then: a digit at this index or later is nonzero
    for k in range(15, -1, -1):
        tail[k] |= tail[k + 1]
    e10 = e10.astype(np.int8)
    expo = e10 < -4
    lead = (e10 < 0) & ~expo
    dot = np.where(expo, np.int8(0), e10)  # the digit a '.' follows
    planes = np.empty((_FLOAT_WIDTH, x.size), np.uint8)
    planes[0] = (x < 0) * _ascii("-")
    planes[1] = lead * _ascii("0")
    planes[2] = lead * _ascii(".")
    planes[3:6] = (lead & (_LEAD < -1 - e10)) * _ascii("0")
    planes[6:40:2] = (digits + _ascii("0")) * (tail | (_DIGIT <= e10))
    planes[7:39:2] = (tail[1:] & (_DIGIT[:16] == dot)) * _ascii(".")
    planes[39] = expo * _ascii("e")
    planes[40] = expo * _ascii("-")
    planes[41] = expo * ((-e10) // 10 + 48).astype(np.uint8)
    planes[42] = expo * ((-e10) % 10 + 48).astype(np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        cells = [("%.17g" % v).encode() for v in x[slow].tolist()]
        planes[:, slow] = 0
        planes[:_FALLBACK_WIDTH, slow] = np.array(cells, dtype=f"S{_FALLBACK_WIDTH}").view(
            np.uint8).reshape(slow.size, _FALLBACK_WIDTH).T
    return planes


def _int_planes(v: np.ndarray) -> np.ndarray:
    """'%d' % i for each i of the int64 array v, as (20, n) cell planes."""
    digits = _digit_planes(np.abs(v).astype(np.uint64), 19)
    head = digits != 0  # then: a digit at this index or earlier is nonzero
    head[18] = True
    for k in range(1, 19):
        head[k] |= head[k - 1]
    planes = np.empty((20, v.size), np.uint8)
    planes[0] = (v < 0) * _ascii("-")
    planes[1:] = (digits + _ascii("0")) * head
    return planes


def _table_text(block: np.ndarray, columns: list[str]) -> str:
    """The CSV lines of a block of a numpy structured array."""
    floats = [c for c in columns if block.dtype[c].kind == "f"]
    planes = {}
    if floats:
        stacked = _float_planes(np.array([block[c] for c in floats], dtype=float).ravel())
        planes = dict(zip(floats, stacked.reshape(_FLOAT_WIDTH, len(floats), len(block))
                          .transpose(1, 0, 2)))
    comma = np.full((1, len(block)), ord(","), np.uint8)
    parts = []
    for c in columns:
        if c not in planes:
            planes[c] = _int_planes(block[c].astype(np.int64, casting="safe"))
        parts += [planes[c], comma]
    parts[-1] = np.broadcast_to(_CRLF, (2, len(block)))
    stacked = np.concatenate(parts)
    used = np.flatnonzero(stacked.any(axis=1))  # an all-NUL plane adds no text
    # rows n + 64 bytes apart: at a power-of-two n the transposing copy in
    # tobytes() reads addresses that collide in the cache
    lines = np.empty((used.size, len(block) + 64), np.uint8)[:, :len(block)]
    np.take(stacked, used, axis=0, out=lines, mode="clip")  # "clip" writes out directly
    return lines.T.tobytes().translate(None, b"\0").decode("ascii")


def _csv_blocks(rows, columns: list[str]):
    """The CSV text in blocks of _BLOCK_ROWS rows.  Rows are a list of dicts,
    whose cells are fmt() strings put in by one %-operation per block, or a
    numpy structured array, whose columns are formatted a whole column at a
    time with the bytes of '%d' and '%.17g': ints by their digits, floats
    exactly from the significand where 1e-11 <= |x| < 1e16 and by '%.17g'
    per cell elsewhere (_float_planes)."""
    yield f"# schema={SCHEMA_VERSION}\r\n" + ",".join(map(_quote, columns)) + "\r\n"
    typed = isinstance(rows, np.ndarray)
    line = ",".join(["%s"] * len(columns)) + "\r\n"
    for i in range(0, len(rows), _BLOCK_ROWS):
        block = rows[i:i + _BLOCK_ROWS]
        if typed:
            yield _table_text(block, columns)
        else:
            yield (line * len(block)) % tuple(_quote(fmt(row.get(c))) for row in block
                                              for c in columns)


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


_ROW_COMMANDS = {}  # subcommand name -> the builder of its one CSV row


def _row_command(name: str, build, help: str, *options, show=None):
    """Register subcommand `name` with --config, then `options` (click.option
    decorators), then --out.  It writes build(**values) as one CSV row, then
    calls show(row) if given and the row went to a file.  sweep runs the same
    builder on the same options."""

    def run(out, **values):
        row = build(**values)
        write_csv(out, [row])
        if show is not None and out:
            show(row)

    fn = click.option("--out", default=None, type=click.Path())(with_error_codes(run))
    for option in reversed(options):
        fn = option(fn)
    main.command(name, help=help)(_config_option(fn))
    _ROW_COMMANDS[name] = build


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


_row_command(
    "kappa", kappa_row, "Evaluate the coarse Ricci curvature (formula, limit, or Monte Carlo).",
    click.option("--manifold", required=True),
    click.option("--field", default="brownian", show_default=True),
    click.option("--method", type=click.Choice(["formula", "limit", "mc"]), default="formula"),
    click.option("--point", default=None, help="comma-separated ambient coordinates"),
    click.option("--direction", default=None, help="ambient components or 'any'"),
    click.option("--pair", default=None, help="two points 'x1,..;y1,..'"),
    click.option("--delta-ladder", default="0.1,0.05,0.025", show_default=True),
    click.option("--seed", default=0, show_default=True),
    click.option("--samples", default=4096, show_default=True))


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


_row_command(
    "spectrum", spectrum_row, "Spectral gap of the discretized reversible generator.",
    click.option("--manifold", required=True),
    click.option("--potential", default="0", show_default=True),
    click.option("--grid", default=512, show_default=True))


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


def _print_bounds(row: dict):
    """bounds with --out also prints every set cell of its row on stdout."""
    width = max(map(len, row))
    for col, value in row.items():
        if value is not None:
            click.echo(f"{col:<{width}}  {fmt(value)}")


_row_command(
    "bounds", bounds_row,
    "Spectral gap and every applicable lower bound (half-Laplacian units).",
    click.option("--manifold", required=True),
    click.option("--potential", default="0", show_default=True),
    click.option("--grid", default=512, show_default=True),
    click.option("--nprime", type=float, default=None),
    show=_print_bounds)


# ---------------------------------------------------------------------------


def check_h_row(manifold: str, field: str, geodesics: int, seed: int) -> dict:
    if geodesics < 1:
        raise InputError("need at least one geodesic")
    mfd = parse_manifold(manifold)
    spec = parse_field(mfd, field)
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed & (2**64 - 1), 0xC4EC], dtype=np.uint64)))
    worst, drift, admissible = 0.0, 0.0, True
    for _ in range(geodesics):
        x = mfd.random_point(rng)
        u = mfd.random_tangent(rng, x)
        res, ok = curvature.h_check(spec, x, u)
        worst, admissible = max(worst, res), admissible and ok
        vals = []
        for t in np.linspace(0.0, 0.6 * min(mfd.cut_threshold, mfd.radius), 7):
            y = mfd.exp_map(x, TangentVector(x, t * u.components))
            ut = mfd.parallel_transport(u, y)
            E = mfd.frame(y, first=ut.components)
            vals.append(float(spec.diffusion.matrix(y, E)[0, 0]))
        drift = max(drift, float(np.ptp(vals)))
    return {"manifold": manifold, "field": field, "geodesics": geodesics, "seed": seed,
            "max_residual": worst, "max_invariant_drift": drift,
            "admissible": admissible}


_row_command(
    "check-h", check_h_row, "Geodesic-invariance residual of a diffusion tensor field.",
    click.option("--manifold", required=True),
    click.option("--field", required=True),
    click.option("--geodesics", default=32, show_default=True),
    click.option("--seed", default=0, show_default=True))


def variance_row(manifold: str, samples: int, seed: int) -> dict:
    mfd = parse_manifold(manifold)
    var, bound, se = simulate.lipschitz_variance_check(mfd, samples=samples, seed=seed)
    return {"manifold": manifold, "samples": samples, "seed": seed,
            "variance": var, "bound": bound, "stderr": se,
            "within_bound": var <= bound + 3 * se}


_row_command(
    "variance", variance_row,
    "Variance of the distance function against the inverse-curvature bound.",
    click.option("--manifold", required=True),
    click.option("--samples", default=1000000, show_default=True),
    click.option("--seed", default=0, show_default=True))


# ---------------------------------------------------------------------------


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
        row = {"command": item.get("command", "") if isinstance(item, dict) else ""}
        try:
            if not isinstance(item, dict):
                raise InputError(f"sweep item {item!r} is not an object")
            cmd = item.get("command")
            if cmd not in _ROW_COMMANDS:
                raise InputError(f"unknown sweep command {cmd!r}")
            # the subcommand's options parse the item; --config and --out do not apply
            values = {k: v for k, v in item.items() if k not in ("config", "out")}
            params = main.commands[cmd].make_context(cmd, [], default_map=values).params
            del params["out"]
            row.update(_ROW_COMMANDS[cmd](**params))
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
