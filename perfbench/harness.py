"""Timed loop, metrics and report of the riccigap benchmark (see run.py)."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy
import scipy

import layertrace
import workloads
import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
REFERENCE_EVERY_S = 1.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s")]
PER_LAYER = layertrace.METRICS + [("trace_overhead", "ratio"), ("traced_wall_s", "s")]


# ---------------------------------------------------------------------------
# provenance


def _blas_threads():
    """OpenBLAS's own thread count, when numpy bundles scipy-openblas."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def provenance(args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src", "riccigap")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        run = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = run.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"), "blas_threads": _blas_threads(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "argv": sys.argv,
    }


# ---------------------------------------------------------------------------
# rounds


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of fresh interpreters that import
    riccigap.cli and build the workload's inputs, one per probe process."""
    samples = []
    for _ in range(SETUP_PROBES):
        run = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                              workload, str(seed)], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        seconds, reference = run.stdout.split()[-2:]
        samples.append((float(seconds), float(reference)))
    return samples


@dataclass
class Timing:
    seconds: float       # wall time of the job
    reference: float     # mean of the yardstick times that bracket it
    raw: object          # what job.run() returned, dropped once inspected
    error: str | None

    @property
    def calibrated(self) -> float:
        return self.seconds * yardstick.NOMINAL_S / self.reference


def run_round(jobs, tracer=None, round_no=0) -> list[Timing]:
    """Run every job once.  The yardstick runs before the first job, after
    the last, and after any job that ends REFERENCE_EVERY_S or more after
    its previous run; each job's reference is the mean of the two yardstick
    times that bracket it."""
    timings, pending = [], []
    before, last = yardstick.reference_seconds(), time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.set_job(f"{round_no}.{index}")
        t0 = time.perf_counter()
        try:
            raw, err = job.run(), None
        except Exception as exc:  # a failing job is counted, the run goes on
            where = traceback.extract_tb(exc.__traceback__)[-1]
            raw, err = None, f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
        pending.append((time.perf_counter() - t0, raw, err))
        if index == len(jobs) - 1 or time.perf_counter() - last >= REFERENCE_EVERY_S:
            after, last = yardstick.reference_seconds(), time.perf_counter()
            timings += [Timing(s, 0.5 * (before + after), r, e) for s, r, e in pending]
            pending, before = [], after
    return timings


def inspect_round(jobs, timings) -> list:
    """Records (digest, failures, values) of one round, in job order."""
    records = {}
    for job, t in zip(jobs, timings):
        if t.error is None:
            records[job.name] = job.inspect(t.raw, records)
        else:
            records[job.name] = workloads.Record("", [f"raised {t.error}"])
        t.raw = None
    return [records[job.name] for job in jobs]


def _rate(jobs, rounds, kind, calibrated=True) -> float:
    """Work units per (calibrated) second over every job of one kind."""
    units = secs = 0.0
    for timings in rounds:
        for job, t in zip(jobs, timings):
            if job.kind == kind:
                units += job.units
                secs += t.calibrated if calibrated else t.seconds
    return units / secs


def _worst(values: list[dict], key: str) -> float | None:
    """Largest value of one check quantity; None when no job produced it."""
    return max((v[key] for v in values if key in v), default=None)


def _round_s(timings, calibrated=True) -> float:
    return sum(t.calibrated if calibrated else t.seconds for t in timings)


# ---------------------------------------------------------------------------
# the two kinds of run


def plain_run(args, jobs) -> tuple[dict, dict, int, int, bool]:
    setup = measure_setup(args.workload, args.seed)
    rounds, records = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(jobs))
        records.append(inspect_round(jobs, rounds[-1]))
    values = [rec.values for recs in records for rec in recs]
    attempted = len(jobs) * len(rounds)
    failed = sum(bool(rec.failures) for recs in records for rec in recs)
    kinds = {job.kind for job in jobs}
    primary = workloads.PRIMARY_KIND[args.workload]
    metrics = {
        "setup_s": (statistics.median(s * yardstick.NOMINAL_S / r for s, r in setup), "s"),
        "wall_s": (statistics.median(_round_s(r) for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (_rate(jobs, rounds, primary), "1/s"),
        "fail_frac": (failed / attempted, "ratio"),
        "raw_setup_s": (statistics.median(s for s, _ in setup), "s"),
        "raw_wall_s": (statistics.median(_round_s(r, False) for r in rounds), "s"),
        "raw_work_per_s": (_rate(jobs, rounds, primary, False), "1/s"),
        "reference_s": (statistics.median(t.reference for r in rounds for t in r), "s"),
    }
    if "spectrum" in kinds:
        metrics["bounds_per_s"] = (_rate(jobs, rounds, "bounds"), "1/s")
        metrics["spectrum_s"] = (statistics.median(
            t.calibrated for r in rounds for job, t in zip(jobs, r) if job.kind == "spectrum"),
            "s")
        metrics["gap_rel_err"] = (_worst(values, "gap_rel_err"), "1")
    if "simulate" in kinds:
        metrics["pair_steps_per_s"] = (_rate(jobs, rounds, "simulate"), "1/s")
        metrics["mc_samples_per_s"] = (_rate(jobs, rounds, "kappa_mc"), "1/s")
        metrics["mean_abs_defect"] = (_worst(values, "mean_abs_defect"), "1")
        metrics["mc_ci_halfwidth"] = (_worst(values, "ci_halfwidth"), "1")
    if "coupling" in kinds:
        metrics["certified_per_s"] = (_rate(jobs, rounds, "coupling"), "1/s")
        metrics["coupling_value_err"] = (_worst(values, "value_err"), "1")
    report = {
        "mode": "end_to_end", "rounds": len(rounds), "setup_probes": setup,
        "jobs": [{"name": job.name, "kind": job.kind,
                  "seconds": [r[i].seconds for r in rounds],
                  "reference_s": [r[i].reference for r in rounds],
                  "digest": records[-1][i].digest,
                  "failures": sorted({f for recs in records for f in recs[i].failures})}
                 for i, job in enumerate(jobs)],
    }
    return report, metrics, attempted, failed, failed == 0


def _tracer_errors(totals: dict, wall: float) -> set:
    """Per round, each layer's self time is within its busy time and the
    self times add up to no more than the traced round."""
    errors = {f"{layer}.self_s > {layer}.busy_s" for layer in layertrace.LAYERS
              if totals[f"{layer}.self_s"] > totals[f"{layer}.busy_s"]}
    if sum(totals[f"{layer}.self_s"] for layer in layertrace.LAYERS) > wall:
        errors.add("the self times add up to more than the traced round")
    return errors


def traced_run(args, jobs) -> tuple[dict, dict, int, int, bool]:
    """Untraced and traced rounds of the same jobs, in alternation."""
    tracer = layertrace.Tracer()
    plain_s, traced_s, layer_rounds = [], [], []
    mismatches, failures, tracer_errors = set(), set(), set()
    attempted = failed = 0
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < args.seconds:
        records = []
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                results = run_round(jobs, tracer if traced else None, len(traced_s))
            finally:
                tracer.uninstall()
            (traced_s if traced else plain_s).append(results)
            records.append(inspect_round(jobs, results))
            attempted += len(jobs)
            failed += sum(bool(r.failures) for r in records[-1])
            failures |= {f"{j.name}: {f}" for j, r in zip(jobs, records[-1]) for f in r.failures}
        layer_rounds.append(tracer.take_totals())
        tracer_errors |= _tracer_errors(layer_rounds[-1], _round_s(traced_s[-1], False))
        mismatches |= {job.name for job, a, b in zip(jobs, *records)
                       if not a.digest or a.digest != b.digest}
    metrics = {}
    for name, unit in layertrace.METRICS:
        value = statistics.median(r[name] for r in layer_rounds)
        metrics[name] = (int(value) if unit in ("count", "B") else value, unit)
    metrics["traced_wall_s"] = (statistics.median(_round_s(r, False) for r in traced_s), "s")
    metrics["trace_overhead"] = (statistics.median(_round_s(r) for r in traced_s)
                                 / statistics.median(_round_s(r) for r in plain_s), "ratio")
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    tracer.write_spans(spans_path)
    report = {
        "mode": "per_layer", "pairs": len(traced_s),
        "plain_round_s": [_round_s(r, False) for r in plain_s],
        "traced_round_s": [_round_s(r, False) for r in traced_s], "spans": tracer.span_count(),
        "self_sum_s": [sum(r[f"{layer}.self_s"] for layer in layertrace.LAYERS)
                       for r in layer_rounds],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "outputs_identical": not mismatches, "mismatched_jobs": sorted(mismatches),
        "tracer_errors": sorted(tracer_errors), "job_failures": sorted(failures),
    }
    return report, metrics, attempted, failed, failed == 0 and not mismatches and not tracer_errors


def main(args) -> int:
    yardstick.reference_seconds()   # first use of numpy and LAPACK in this process
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        jobs = workloads.build(args.workload, args.seed, tmpdir)
        run = traced_run if args.trace else plain_run
        report, metrics, attempted, failed, correct = run(args, jobs)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["provenance"] = provenance(args)
    print(json.dumps({"report": report}, sort_keys=True))
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted},
    }))
    return 0
