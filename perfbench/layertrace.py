"""Per-layer tracing of the riccigap library from outside the package.

The layers are the package's modules.  install() wraps every public
function and public method they define (plus scipy's
linear_sum_assignment as bound in `curvature`) and rebinds the wrapper in
every riccigap namespace that holds the original, so calls between modules
are seen too; uninstall() puts the originals back.  Nothing inside src/ is
changed, and a wrapper only reads the clock and the sizes of arguments and
results, so traced outputs equal untraced ones.

Each call is a span (name, start, end, parent span, job) kept in memory.
Per layer the tracer adds up:
  busy_s   time inside calls that are not nested in a call of the same layer;
  self_s   busy time minus the time of nested calls into other layers;
  <group>_calls, <group>_s  calls of one named group and their time.
In the leaf layers (manifolds, fields, coupling) a call nested in another
call of the same layer belongs to that outer call, so groups split the
layer's busy time.  In the other layers groups are stages nested inside the
entry point (kappa_dir inside bounds_report, the assignment inside the
estimator), and a call counts unless it is nested in a call of its own group.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

from riccigap import cli, coupling, curvature, fields, manifolds, simulate, spectral

LAYERS = {"cli": cli, "simulate": simulate, "curvature": curvature, "spectral": spectral,
          "coupling": coupling, "fields": fields, "manifolds": manifolds}
LEAF_LAYERS = {"manifolds", "fields", "coupling"}

# fmt runs once per CSV cell (2.5M times in the brownian workload); its time
# stays in write_csv, which is traced.
EXCLUDED = {("cli", "fmt")}

GROUPS = {
    "cli": {"write_csv": "write", "write_json": "write"},
    "simulate": {"step_coupled": "step_coupled", "run_coupled": "run"},
    "curvature": {"kappa_pair": "kappa_pair", "kappa_dir": "kappa_dir",
                  "estimate_kappa_direct": "estimate", "linear_sum_assignment": "assignment"},
    "spectral": {"discretize_s1": "discretize", "discretize_zonal": "discretize",
                 "azimuthal_operator": "discretize", "discretize": "discretize",
                 "spectral_gap": "eig", "lowest_eigenvalue": "eig", "rho": "rho",
                 "effective_kappa_grid": "kappa_grid", "s1_effective_kappa": "kappa_grid",
                 "harmonic_mean_bound": "bound_opt", "interpolated_bound": "bound_opt",
                 "cd_bound": "bound_opt", "lichnerowicz_bound": "bound_opt",
                 "chen_wang_bounds": "bound_opt"},
    "coupling": {"extremal_covariances": "extremal", "sym_psd_sqrt": "sqrt",
                 "psd_sqrt": "sqrt", "tr_sqrt_sandwich": "sqrt", "tr_sqrt_product": "sqrt",
                 "sample_feasible_array": "sample_feasible",
                 "sample_feasible": "sample_feasible", "c0_covariance": "c0",
                 "min_coupling_value": "min_value"},
    "fields": {"matrix": "matrix", "vector": "drift", "flow": "drift",
               "derivative": "derivative", "du_uu": "derivative", "hess_uu": "derivative",
               "p": "potential", "dp": "potential", "d2p": "potential", "value": "potential",
               "dtheta": "potential", "d2theta": "potential", "parse_potential": "potential"},
    "manifolds": {"distance_jet": "jet", "distance_jet_numeric": "jet"},
}
# Manifold kernels that take stacked points: a call with any 2-d array
# argument is "batched", otherwise "scalar" like every other manifolds call.
BATCHABLE = {"ip", "project_tangent", "exp_many", "dist_many", "log_many", "transport_many"}

# (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("manifolds.batched_calls", "count"), ("manifolds.batched_rows", "count"),
    ("manifolds.batched_s", "s"), ("manifolds.scalar_calls", "count"),
    ("manifolds.scalar_s", "s"), ("manifolds.jet_calls", "count"), ("manifolds.jet_s", "s"),
    ("manifolds.busy_s", "s"), ("manifolds.self_s", "s"),
    ("fields.matrix_calls", "count"), ("fields.matrix_s", "s"),
    ("fields.drift_calls", "count"), ("fields.drift_s", "s"),
    ("fields.derivative_calls", "count"), ("fields.derivative_s", "s"),
    ("fields.potential_calls", "count"), ("fields.potential_s", "s"),
    ("fields.busy_s", "s"), ("fields.self_s", "s"),
    ("coupling.extremal_calls", "count"), ("coupling.extremal_s", "s"),
    ("coupling.sqrt_calls", "count"), ("coupling.sqrt_s", "s"),
    ("coupling.sampled", "count"), ("coupling.sample_feasible_s", "s"),
    ("coupling.c0_s", "s"), ("coupling.min_value_s", "s"),
    ("coupling.busy_s", "s"), ("coupling.self_s", "s"),
    ("curvature.kappa_pair_calls", "count"), ("curvature.kappa_pair_s", "s"),
    ("curvature.kappa_dir_calls", "count"), ("curvature.kappa_dir_s", "s"),
    ("curvature.assignment_calls", "count"), ("curvature.assignment_s", "s"),
    ("curvature.estimate_s", "s"), ("curvature.busy_s", "s"), ("curvature.self_s", "s"),
    ("simulate.pair_steps", "count"), ("simulate.step_coupled_calls", "count"),
    ("simulate.busy_s", "s"), ("simulate.self_s", "s"), ("simulate.accept_ratio", "ratio"),
    ("spectral.discretize_calls", "count"), ("spectral.discretize_s", "s"),
    ("spectral.operator_bytes", "B"), ("spectral.eig_calls", "count"),
    ("spectral.eig_s", "s"), ("spectral.eig_flops_computed", "flop"),
    ("spectral.rho_s", "s"), ("spectral.kappa_grid_s", "s"),
    ("spectral.bound_opt_s", "s"), ("spectral.busy_s", "s"), ("spectral.self_s", "s"),
    ("cli.busy_s", "s"), ("cli.self_s", "s"), ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "count"), ("cli.write_s", "s"),
]


def _rows(args) -> int:
    """Rows of a batched call: the broadcast size of the leading axes."""
    lead = [a.shape[:-1] for a in args if isinstance(a, np.ndarray) and a.ndim >= 2]
    if all(s == lead[0] for s in lead):
        return math.prod(lead[0])
    width = max(len(s) for s in lead)
    dims = [1] * width
    for s in lead:
        for i, n in enumerate(s, width - len(s)):
            dims[i] = max(dims[i], n)
    return math.prod(dims)


def _is_batched(args) -> bool:
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim >= 2:
            return True
    return False


def _count_discretize(t, args, kwargs, op):
    t["spectral.operator_bytes"] += op.matrix.nbytes


def _count_eig(t, args, kwargs, result):
    t["spectral.eig_flops_computed"] += 4.0 / 3.0 * args[0].size ** 3   # dense symmetric solve


def _count_sampled(t, args, kwargs, samples):
    t["coupling.sampled"] += len(samples)


def _count_csv(t, args, kwargs, result):
    path, rows = args[0], args[1]
    t["cli.csv_rows"] += len(rows)
    if path is not None:
        t["cli.csv_bytes"] += os.path.getsize(path)


def _count_run(t, args, kwargs, trajs):
    """Pair-steps, and accepted over attempted steps: a trajectory's steps up
    to its abort are accepted and the step that aborts it is not (located at
    the recording resolution, where the state stops changing)."""
    cfg = args[3]
    steps = math.ceil(cfg.horizon / cfg.dt - 1e-9)
    t["simulate.pair_steps"] += cfg.trajectories * steps
    for tr in trajs:
        if tr.aborted:
            moving = np.flatnonzero(np.diff(tr.log_distance) != 0)
            last = tr.times[moving[-1] + 1] if moving.size else 0.0
            t["simulate.accepted"] += round(last / cfg.dt)
            t["simulate.attempted"] += round(last / cfg.dt) + 1
        else:
            t["simulate.accepted"] += steps
            t["simulate.attempted"] += steps


COUNTERS = {
    ("spectral", "discretize"): _count_discretize, ("spectral", "eig"): _count_eig,
    ("coupling", "sample_feasible"): _count_sampled,
    ("cli", "write_csv"): _count_csv, ("simulate", "run_coupled"): _count_run,
}


class Tracer:
    """Spans and per-layer totals of the calls made while installed.

    Spans are kept as flat runs of six numbers (id, parent, job, name,
    start, end) in one list, so that recording keeps no objects the garbage
    collector tracks.  A call that a leaf layer makes to itself is not a
    span: its time belongs to the outer call, which leaves busy and self
    times unchanged.
    """

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: list = []
        self.names: list[str] = []
        self.jobs: list[str] = [""]
        self.job = 0
        self.totals: dict = defaultdict(float)
        self._ids = itertools.count()
        self._stack_id: list[int] = []        # open spans
        self._stack_child: list[float] = []   # time of their child spans
        self._depth: dict = {}
        self._patches: list[tuple] = []

    def set_job(self, label: str):
        self.jobs.append(label)
        self.job = len(self.jobs) - 1

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        short = name.rsplit(".", 1)[-1]
        group = GROUPS[layer].get(short, "scalar" if layer == "manifolds" else "other")
        batchable = layer == "manifolds" and short in BATCHABLE
        counter = COUNTERS.get((layer, short)) or COUNTERS.get((layer, group))
        keys = {g: (f"{layer}.{g}_s", f"{layer}.{g}_calls", f"{layer}.{g}")
                for g in ((group, "batched") if batchable else (group,))}
        self_key, busy_key = f"{layer}.self_s", f"{layer}.busy_s"
        depth = self._depth
        for key in [layer] + [k[2] for k in keys.values()]:
            depth.setdefault(key, 0)
        self.names.append(name)
        name_id = len(self.names) - 1
        tracer, totals, spans = self, self.totals, self.spans
        stack_id, stack_child, ids, clock = (self._stack_id, self._stack_child, self._ids,
                                             time.perf_counter)
        simple = counter is None and not batchable and name != "spectral.bakry_emery_rho"

        def finish(result, args, kwargs, batched):
            if counter is not None:
                counter(totals, args, kwargs, result)
            if batched:
                totals["manifolds.batched_rows"] += _rows(args)
            if name == "spectral.bakry_emery_rho":
                return tracer.wrap(result, "spectral", "spectral.rho")
            return result

        if layer in LEAF_LAYERS:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if depth[layer]:
                    return fn(*args, **kwargs)
                batched = batchable and _is_batched(args)
                g_s, g_calls, _ = keys["batched" if batched else group]
                sid = next(ids)
                parent = stack_id[-1] if stack_id else -1
                stack_id.append(sid)
                stack_child.append(0.0)
                depth[layer] = 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack_id.pop()
                    child = stack_child.pop()
                    depth[layer] = 0
                    dur = t1 - t0
                    if stack_child:
                        stack_child[-1] += dur
                    totals[self_key] += dur - child
                    totals[busy_key] += dur
                    totals[g_s] += dur
                    totals[g_calls] += 1
                    spans.extend((sid, parent, tracer.job, name_id, t0, t1))
                return result if simple else finish(result, args, kwargs, batched)

            return traced

        g_s, g_calls, g_depth = keys[group]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = not depth[g_depth]
            sid = next(ids)
            parent = stack_id[-1] if stack_id else -1
            stack_id.append(sid)
            stack_child.append(0.0)
            depth[layer] += 1
            depth[g_depth] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack_id.pop()
                child = stack_child.pop()
                depth[layer] -= 1
                depth[g_depth] -= 1
                dur = t1 - t0
                if stack_child:
                    stack_child[-1] += dur
                totals[self_key] += dur - child
                if not depth[layer]:
                    totals[busy_key] += dur
                if counts:
                    totals[g_s] += dur
                    totals[g_calls] += 1
                spans.extend((sid, parent, tracer.job, name_id, t0, t1))
            return finish(result, args, kwargs, False) if counts and not simple else result

        return traced

    # -- patching ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, layer, span name) of every callable to wrap."""
        for layer, mod in LAYERS.items():
            for attr, obj in list(vars(mod).items()):
                if (layer, attr) in EXCLUDED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    yield mod, attr, obj, layer, f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_")
                                                       or meth == "__post_init__"):
                            yield obj, meth, fn, layer, f"{layer}.{attr}.{meth}"
        yield (curvature, "linear_sum_assignment", curvature.linear_sum_assignment,
               "curvature", "curvature.linear_sum_assignment")

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items()
                      if n == "riccigap" or n.startswith("riccigap.")]
        for owner, attr, orig, layer, name in list(self._targets()):
            wrapped = self.wrap(orig, layer, name)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def take_totals(self) -> dict:
        """Per-layer metrics since the last call, and reset the totals."""
        t = self.totals
        out = {name: t.get(name, 0.0) for name, _ in METRICS}
        out["simulate.accept_ratio"] = (t["simulate.accepted"] / t["simulate.attempted"]
                                        if t.get("simulate.attempted") else 0.0)
        t.clear()
        return out

    def span_count(self) -> int:
        return len(self.spans) // 6

    def write_spans(self, path: str):
        """All spans as gzipped CSV; job is "<round>.<job index>"."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,job,name,start_s,end_s\n")
            s = self.spans
            for i in range(0, len(s), 6):
                out.write(f"{s[i]},{s[i + 1]},{self.jobs[s[i + 2]]},"
                          f"{self.names[s[i + 3]]},{s[i + 4] - self.epoch:.9f},"
                          f"{s[i + 5] - self.epoch:.9f}\n")
