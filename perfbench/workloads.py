"""Inputs, jobs and output checks of the four benchmark workloads.

A workload is a fixed list of jobs built from a seed.  Every job calls the
public entry points the CLI uses (``riccigap.cli`` row builders and
``write_csv``, and the ``riccigap.coupling`` functions); the library sees
only the generated inputs.  Library callables are always looked up as
module attributes at call time (``cli.bounds_row``, never a name imported
into this module), so that the traced run can wrap them from outside.

Each job has a timed part, ``run``, and an untimed part, ``inspect``, that
digests the job's outputs (rows and CSV bytes) and checks them against the
paper's invariants at the tolerances of the acceptance criteria.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from riccigap import cli, coupling, curvature, fields, manifolds

WORKLOADS = ("bounds", "brownian", "drifted", "coupling")

# The kind of job whose throughput is each workload's `work_per_s`.
PRIMARY_KIND = {"bounds": "bounds", "brownian": "simulate", "drifted": "simulate",
                "coupling": "coupling"}

SIM_COLUMNS = ["trajectory", "t", "distance", "kappa_integral", "defect"]
T_LADDER_LEN = 2          # estimate_kappa_direct's default t ladder (0.02, 0.01)
BOUND_COLUMNS = ("lichnerowicz", "chen_wang_additive", "chen_wang_cosine",
                 "harmonic_mean", "interpolated", "cd_value")


@dataclass
class Record:
    """What inspect() learned from one job's outputs."""

    digest: str
    failures: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    kind: str
    units: float                      # work units: problems, pair-steps, samples
    run: Callable[[], object]         # timed: calls into the library
    inspect: Callable[[object, dict], Record]  # untimed: (raw output, earlier records)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _coords(point) -> str:
    return ",".join(f"{v:.17g}" for v in point.coords)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _pair(manifold: str, rng: np.random.Generator, distance: float):
    """Two points `distance` apart, at a random place and direction."""
    m = manifolds.parse_manifold(manifold)
    x = m.random_point(rng)
    u = m.random_tangent(rng, x)
    y = m.exp_map(x, manifolds.TangentVector(x, distance * u.components))
    return x, y


# ---------------------------------------------------------------------------
# bounds: spectral gaps and every curvature lower bound


def _bounds_job(manifold: str, potential: str, nprime: float | None,
                closed_form: float | None) -> Job:
    def run():
        return cli.bounds_row(manifold, potential, 512, nprime)

    def inspect(row, _earlier):
        lam = row["lambda1"]
        rec = Record(_digest(row),
                     values={"bounds": [row[c] for c in BOUND_COLUMNS if row[c] is not None]})
        for col in BOUND_COLUMNS:
            if row[col] is not None and not row[col] <= lam + 1e-6:
                rec.failures.append(f"{col}={row[col]!r} exceeds lambda1={lam!r}")
        if closed_form is not None:
            rec.values["gap_rel_err"] = abs(lam - closed_form) / closed_form
            if abs(lam - closed_form) > 1e-3:
                rec.failures.append(f"lambda1={lam!r} misses the closed form {closed_form}")
        if manifold == "sphere:2:1" and potential == "0":
            # c08's pinned flat-sphere values; the CD optimum at n' is n'/(2(n'-1))
            pinned = (abs(row["harmonic_mean"] - 0.5) <= 1e-9
                      and row["lichnerowicz"] == 1.0
                      and row["chen_wang_cosine"] == 1.0
                      and abs(row["cd_value"] - nprime / (2 * (nprime - 1))) <= 1e-6)
            if not pinned:
                rec.failures.append("flat-sphere pinned values differ")
        return rec

    label = f"bounds {manifold} {potential} n'={nprime}"
    return Job(label, "bounds", 1.0, run, inspect)


def _spectrum_job(potential: str, nprime_jobs: list[str]) -> Job:
    def run():
        return cli.spectrum_row("sphere:2:1", potential, 1024)

    def inspect(row, earlier):
        rec = Record(_digest(row))
        lam = row["lambda1"]
        if not (math.isfinite(lam) and lam > 0
                and lam == min(row["lambda1_zonal"], row["lambda1_azimuthal"])):
            rec.failures.append(f"lambda1={lam!r} is not the least positive sector gap")
        for name in nprime_jobs:
            for b in earlier[name].values["bounds"]:
                if not b <= lam + 1e-6:
                    rec.failures.append(f"bound {b!r} of {name} exceeds lambda1={lam!r}")
        return rec

    return Job(f"spectrum sphere:2:1 {potential} m=1024", "spectrum", 1.0, run, inspect)


def bounds_workload(seed: int) -> list[Job]:
    rng = _rng(seed, "bounds")
    pots = [f"{0.3 * (1.0 - rng.random()):.17g}*cos" for _ in range(2)]   # a in (0, 0.3]
    jobs = [_bounds_job("sphere:1:1", "0", None, 0.5),
            _bounds_job("sphere:2:1", "0", 3.0, 1.0)]
    for pot in pots:
        for nprime in (3.0, 10.0):
            jobs.append(_bounds_job("sphere:2:1", pot, nprime, None))
    jobs.append(_spectrum_job(pots[0], [j.name for j in jobs[2:4]]))
    return jobs


# ---------------------------------------------------------------------------
# coupled paths and the Monte Carlo curvature estimator


def _simulate_job(tmpdir: str, manifold: str, field_spec: str, x, y, paths: int,
                  seed: int, max_defect: float | None) -> Job:
    """Coupled paths and their CSV.  With max_defect the check is c06's: no
    aborts and final mean |defect| <= max_defect; without it, every
    recorded defect must be finite."""
    dt, horizon = 1e-3, 0.5
    path = os.path.join(tmpdir, f"paths-{manifold.replace(':', '_')}.csv")
    x0, y0 = _coords(x), _coords(y)

    def run():
        rows, summary = cli.simulate_rows(manifold, field_spec, x0, y0, dt, horizon, paths,
                                          seed, 0.1, 1)
        cli.write_csv(path, rows, SIM_COLUMNS)
        return summary

    def inspect(summary, _earlier):
        with open(path, "rb") as handle:
            data = handle.read()
        os.remove(path)
        rec = Record(_digest(data, summary),
                     values={"mean_abs_defect": summary["mean_abs_defect"]})
        if max_defect is None:
            text = io.StringIO(data.decode())
            next(text)                                   # schema line
            defects = [float(r["defect"]) for r in csv.DictReader(text)]
            if not all(math.isfinite(d) for d in defects):
                rec.failures.append("non-finite pathwise defect")
            return rec
        if summary["abort_fraction"] != 0.0:
            rec.failures.append(f"abort fraction {summary['abort_fraction']!r}")
        if not summary["mean_abs_defect"] <= max_defect:
            rec.failures.append(f"mean |defect| {summary['mean_abs_defect']!r} > {max_defect}")
        return rec

    steps = round(horizon / dt)
    return Job(f"simulate {manifold} {field_spec} paths={paths}", "simulate",
               float(paths * steps), run, inspect)


def _kappa_mc_job(field_spec: str, x, y, samples: int, seed: int,
                  reference: float | None) -> Job:
    pair = f"{_coords(x)};{_coords(y)}"

    def run():
        return cli.kappa_row("sphere:2:1", field_spec, "mc", None, None, pair,
                             "0.1,0.05,0.025", seed, samples)

    def inspect(row, _earlier):
        rec = Record(_digest(row),
                     values={"ci_halfwidth": 0.5 * (row["ci_hi"] - row["ci_lo"])})
        if not all(math.isfinite(row[k]) for k in ("kappa", "ci_lo", "ci_hi")):
            rec.failures.append("non-finite estimate")
        if reference is not None and not row["ci_lo"] <= reference <= row["ci_hi"]:
            rec.failures.append(f"CI ({row['ci_lo']!r}, {row['ci_hi']!r}) misses "
                                f"kappa_pair={reference!r}")
        return rec

    return Job(f"kappa mc sphere:2:1 {field_spec} samples={samples}", "kappa_mc",
               float(samples * T_LADDER_LEN), run, inspect)


def brownian_workload(seed: int, tmpdir: str) -> list[Job]:
    rng = _rng(seed, "brownian")
    x, y = _pair("sphere:2:1", rng, 0.5)
    sim_seed, mc_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    spec = fields.brownian(x.manifold)
    reference = curvature.kappa_pair(spec, x, y).kappa
    return [_simulate_job(tmpdir, "sphere:2:1", "brownian", x, y, 1000, sim_seed, 5e-2),
            _kappa_mc_job("brownian", x, y, 4096, mc_seed, reference)]


def drifted_workload(seed: int, tmpdir: str) -> list[Job]:
    rng = _rng(seed, "drifted")
    xs, ys = _pair("sphere:2:1", rng, 0.5)
    xh, yh = _pair("hyperbolic:2:1", rng, 0.5)
    s_seed, h_seed, mc_seed = (int(s) for s in rng.integers(0, 2**31, size=3))
    return [_simulate_job(tmpdir, "sphere:2:1", "potential:0.3*cos", xs, ys, 2, s_seed, None),
            _simulate_job(tmpdir, "hyperbolic:2:1", "brownian", xh, yh, 2, h_seed, None),
            _kappa_mc_job("potential:0.3*cos", xs, ys, 64, mc_seed, None)]


# ---------------------------------------------------------------------------
# optimal Gaussian couplings and their certification


def _coupling_job(index: int, A, D, B, sample_seed: int, count: int) -> Job:
    def run():
        value = coupling.min_coupling_value(A, D, B)
        c0 = coupling.c0_covariance(A, D, B)
        costs = np.einsum("kij,ij->k", coupling.sample_feasible_array(A, B, count, sample_seed), D)
        return value, c0, costs

    def inspect(raw, _earlier):
        value, c0, costs = raw
        err = abs(c0.value - value)
        advantage = value - float(costs.min())
        rec = Record(_digest([value, c0.value, c0.feasible, c0.min_eigenvalue],
                             c0.C.tobytes(), costs.tobytes()),
                     values={"value_err": err})
        if err > 1e-10:
            rec.failures.append(f"|C0 value - min| = {err!r}")
        if not c0.feasible:
            rec.failures.append("C0 is not feasible")
        if advantage > 1e-9:
            rec.failures.append(f"a sampled coupling beats the minimum by {advantage!r}")
        return rec

    n1, n2 = A.shape[0], B.shape[0]
    return Job(f"coupling #{index} {n1}x{n2}", "coupling", float(count), run, inspect)


def coupling_workload(seed: int) -> list[Job]:
    """Every (n1, n2) in 2..5 once: the dimension mix c01 draws at random,
    held fixed so that the work per run does not depend on the seed."""
    g = _rng(seed, "coupling")
    jobs = []
    for n1 in range(2, 6):
        for n2 in range(2, 6):
            a = g.standard_normal((n1, n1))
            b = g.standard_normal((n2, n2))
            A = a @ a.T + 0.3 * np.eye(n1)
            D = g.standard_normal((n1, n2))
            B = b @ b.T + 0.3 * np.eye(n2)
            jobs.append(_coupling_job(len(jobs), A, D, B, int(g.integers(0, 2**31)), 100_000))
    return jobs


def build(workload: str, seed: int, tmpdir: str) -> list[Job]:
    if workload == "bounds":
        return bounds_workload(seed)
    if workload == "brownian":
        return brownian_workload(seed, tmpdir)
    if workload == "drifted":
        return drifted_workload(seed, tmpdir)
    return coupling_workload(seed)
