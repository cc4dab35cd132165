"""Spans and counters recorded around calls into tubelab's layers.

The traced run installs wrappers on the module and class attributes that
tubelab's own callers resolve at call time (`cli.mk_ratio` as well as
`suites.mk_ratio`, `FamilyRaster.build` on the class, ...).  Each wrapper
records one span (name, parent span, start, end) and updates the counters
of its layer when the call returns.  Spans stay in memory and are written
out when the round ends.

A layer metric ending in `_s` is the summed self time of its spans: a
span's duration minus the time covered by its child spans.  `cli.<scenario>_s`
is inclusive: the whole scenario run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

SCENARIOS = ("sharpness", "dimension", "kakeya", "decompose", "induction", "dichotomy", "thin")

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    [
        ("functionals.raster_s", "s"),
        ("functionals.raster_entries", "count"),
        ("functionals.raster_entries_per_s", "1/s"),
        ("functionals.occupied_cells", "count"),
        ("functionals.raster_dense_builds", "count"),
        ("functionals.raster_builds", "count"),
        ("functionals.raster_distinct", "count"),
        ("functionals.multilinear_s", "s"),
        ("functionals.multilinear_cells", "count"),
        ("functionals.cap_grouping_s", "s"),
        ("functionals.coarse_grouping_s", "s"),
        ("functionals.coarsen_s", "s"),
        ("functionals.coarse_tubes", "count"),
        ("functionals.lp_norm_s", "s"),
        ("functionals.chain_s", "s"),
        ("concentration.candidate_keys_s", "s"),
        ("concentration.candidate_keys", "count"),
        ("concentration.scan_s", "s"),
        ("concentration.scan_calls", "count"),
        ("concentration.worst_ratio_s", "s"),
        ("concentration.thin_s", "s"),
        ("concentration.thin_attempts", "count"),
        ("concentration.try_add_s", "s"),
        ("concentration.try_add_calls", "count"),
        ("concentration.try_add_accepted", "count"),
        ("generators.random_s", "s"),
        ("generators.random_calls", "count"),
        ("generators.random_distinct", "count"),
        ("generators.draws", "count"),
        ("generators.planes_s", "s"),
        ("dichotomy.decide_s", "s"),
        ("dichotomy.verify_s", "s"),
        ("dichotomy.control_ratio_s", "s"),
        ("dichotomy.trials", "count"),
        ("dimension.fit_s", "s"),
        ("dimension.holder_s", "s"),
        ("dimension.box_count_s", "s"),
        ("linegeom.cap_cover_s", "s"),
        ("suites.mk_ratio_s", "s"),
        ("suites.decompose_constant_s", "s"),
        ("suites.induction_constant_s", "s"),
    ]
    + [(f"cli.{name}_s", "s") for name in SCENARIOS]
    + [
        ("process.cpu_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_s", "s"),
    ]
)


# ---------------------------------------------------------------------------
# counters, each called as fn(counters, sets, arguments, result, exc)
# ---------------------------------------------------------------------------


class _Arguments:
    """A call's arguments by parameter name, bound only when a counter asks:
    binding costs more than most traced calls."""

    __slots__ = ("_signature", "_args", "_kwargs", "_bound")

    def __init__(self, signature, args, kwargs):
        self._signature, self._args, self._kwargs, self._bound = signature, args, kwargs, None

    def __getitem__(self, name):
        if self._bound is None:
            bound = self._signature.bind(*self._args, **self._kwargs)
            bound.apply_defaults()
            self._bound = bound.arguments
        return self._bound[name]


def _family_key(F) -> str:
    h = hashlib.sha1()
    for t in F.tubes:
        h.update(t.segment_center.tobytes())
        h.update(t.direction.u.tobytes())
    h.update(np.array([F.delta, F.d, F.beta, F.ball_radius]).tobytes())
    return h.hexdigest()


def _count_raster_tube(c, sets, args, result, exc):
    if result is not None:
        c["functionals.raster_entries"] += int(result.size)


def _count_raster_build(c, sets, args, result, exc):
    if result is None:
        return
    c["functionals.raster_builds"] += 1
    c["functionals.occupied_cells"] += int(result.occ.size)
    c["functionals.raster_dense_builds"] += int(result.tube_cells is None)
    sets["functionals.raster_distinct"].add((_family_key(args["F"]), args["grid"].key()))


def _count_multilinear(c, sets, args, result, exc):
    if result is not None:
        c["functionals.multilinear_cells"] += int(result[0].size)


def _count_coarsen(c, sets, args, result, exc):
    if result is not None:
        c["functionals.coarse_tubes"] += len(result.coarse_tubes)


def _count_keys(c, sets, args, result, exc):
    if result is not None:
        c["concentration.candidate_keys"] += len(result)


def _count_scan(c, sets, args, result, exc):
    c["concentration.scan_calls"] += 1


def _count_thin(c, sets, args, result, exc):
    if result is not None:
        c["concentration.thin_attempts"] += result.attempts
    elif exc is not None:
        c["concentration.thin_attempts"] += args["max_attempts"]


def _count_try_add(c, sets, args, result, exc):
    c["concentration.try_add_calls"] += 1
    c["concentration.try_add_accepted"] += int(bool(result))


def _count_random(c, sets, args, result, exc):
    c["generators.random_calls"] += 1
    sets["generators.random_distinct"].add(
        tuple(args[k] for k in ("n", "d", "beta", "delta", "seed", "size_cap"))
    )
    if result is not None:
        c["generators.draws"] += result.draws


def _count_decide(c, sets, args, result, exc):
    c["dichotomy.trials"] += 1


#: (time metric, attributes to wrap, counter).  Attributes are resolved under
#: the `tubelab` package; `Class.method` names a class attribute.
HOOKS = [
    ("functionals.raster_s", ["functionals.rasterize_tube"], _count_raster_tube),
    ("functionals.raster_s", ["functionals.FamilyRaster.build"], _count_raster_build),
    ("functionals.multilinear_s", ["functionals.multilinear_cell_values"], _count_multilinear),
    ("functionals.cap_grouping_s", ["functionals.decompose_lp", "suites.decompose_lp"], None),
    ("functionals.coarse_grouping_s", ["functionals.induction_step_terms", "suites.induction_step_terms"], None),
    ("functionals.coarsen_s", ["functionals.coarsen_to_rho_tubes"], _count_coarsen),
    ("functionals.lp_norm_s", ["functionals.lp_norm_tube_sum", "suites.lp_norm_tube_sum"], None),
    ("functionals.chain_s", ["functionals.calculation_chain"], None),
    ("linegeom.cap_cover_s", ["linegeom.build_cap_cover", "functionals.build_cap_cover"], None),
    ("linegeom.cap_cover_s", ["linegeom.CapCover.caps_containing"], None),
    ("concentration.candidate_keys_s", ["concentration.BallNet.candidate_keys"], _count_keys),
    ("concentration.scan_s", ["concentration.BallNet.scan"], _count_scan),
    ("concentration.worst_ratio_s", ["concentration.worst_ratio_of_lines", "cli.worst_ratio_of_lines"], None),
    ("concentration.worst_ratio_s", ["concentration.ball_condition_worst_ratio"], None),
    ("concentration.thin_s", ["concentration.random_thin", "cli.random_thin"], _count_thin),
    ("concentration.thin_s", ["concentration.check_ball_condition"], None),
    ("concentration.try_add_s", ["concentration.IncrementalBallCounter.try_add"], _count_try_add),
    (
        "generators.random_s",
        ["generators.gen_random_nonconcentrated", "suites.gen_random_nonconcentrated"],
        _count_random,
    ),
    (
        "generators.planes_s",
        ["generators.gen_lines_in_planes", "suites.gen_lines_in_planes", "cli.gen_lines_in_planes"],
        None,
    ),
    ("dichotomy.decide_s", ["dichotomy.decide_dichotomy", "cli.decide_dichotomy"], _count_decide),
    ("dichotomy.verify_s", ["dichotomy.verify_option_a", "cli.verify_option_a"], None),
    ("dichotomy.verify_s", ["dichotomy.verify_option_b", "cli.verify_option_b"], None),
    ("dichotomy.control_ratio_s", ["dichotomy.control_card_ratio", "cli.control_card_ratio"], None),
    ("dimension.fit_s", ["dimension.exponent_fit_norms", "cli.exponent_fit_norms"], None),
    ("dimension.holder_s", ["dimension.holder_comparison", "cli.holder_comparison"], None),
    ("dimension.box_count_s", ["dimension.box_counting_dim", "cli.box_counting_dim"], None),
    ("dimension.box_count_s", ["dimension.box_counts"], None),
    ("suites.mk_ratio_s", ["suites.mk_ratio", "cli.mk_ratio"], None),
    ("suites.decompose_constant_s", ["suites.decompose_constant", "cli.decompose_constant"], None),
    ("suites.induction_constant_s", ["suites.induction_constant", "cli.induction_constant"], None),
]


class Tracer:
    """Records spans with parent links, self times and counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_time: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)

    def wrap(self, span_name, metric, fn, counter=None, name_of=None):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args) if name_of else span_name
            key = metric(args) if callable(metric) else metric
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            record = [name, parent, time.perf_counter(), None]
            self.spans.append(record)
            self._stack.append([index, 0.0])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                _, covered = self._stack.pop()
                record[3] = end
                duration = end - record[2]
                self.self_time[key] += duration - covered
                self.inclusive[key] += duration
                if self._stack:
                    self._stack[-1][1] += duration
                if counter is not None:
                    counter(self.counters, self.sets, _Arguments(signature, args, kwargs), result, exc)

        return traced

    def install(self) -> list[str]:
        """Wrap every hooked attribute; returns the attributes not found."""
        missing = []
        wrapped: dict[int, object] = {}
        for metric, targets, counter in HOOKS:
            for target in targets:
                if not _install_one(self, target, metric, counter, wrapped):
                    missing.append(target)
        cli = importlib.import_module("tubelab.cli")
        cli.run_scenario = self.wrap(
            "cli.run_scenario",
            lambda args: f"cli.{args[0].scenario}_s",
            cli.run_scenario,
            name_of=lambda args: f"cli.{args[0].scenario}",
        )
        return missing

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures for one traced round (without the run-level ones)."""
        out = {name: 0.0 for name, _ in PER_LAYER}
        for key, value in self.self_time.items():
            if not key.startswith("cli."):
                out[key] += value
        for name in SCENARIOS:
            out[f"cli.{name}_s"] = self.inclusive.get(f"cli.{name}_s", 0.0)
        for key, value in self.counters.items():
            out[key] = float(value)
        for key, members in self.sets.items():
            out[key] = float(len(members))
        raster_s = out["functionals.raster_s"]
        out["functionals.raster_entries_per_s"] = (
            out["functionals.raster_entries"] / raster_s if raster_s > 0 else 0.0
        )
        top = sum(end - start for _, parent, start, end in self.spans if parent == -1)
        out["trace.coverage"] = top / wall_s if wall_s > 0 else 0.0
        for name in ("process.cpu_s", "trace.overhead_s"):
            out.pop(name)
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        data = {
            "names": names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [index[n], p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans
            ],
        }
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")


def _install_one(tracer: Tracer, target: str, metric: str, counter, wrapped: dict) -> bool:
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"tubelab.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    attr = path[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return False
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw
    wrapper = wrapped.get(id(fn))
    if wrapper is None:
        wrapper = tracer.wrap(f"{module_name}.{'.'.join(path)}", metric, fn, counter)
        wrapped[id(fn)] = wrapper
    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
    return True
