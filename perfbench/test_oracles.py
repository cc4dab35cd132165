"""Self-tests of the benchmark: every oracle accepts tubelab's output and
rejects a deliberately corrupted copy of it.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tubelab import concentration, functionals, generators, linegeom, suites  # noqa: E402


def _op(workload, name):
    return next(op for op in workloads.build(workload, 0) if op.name == name)


def test_raster_oracle_rejects_missing_extra_and_repeated_cells():
    grid = functionals.Grid(3, 1.0 / 32.0, 1.0 + 1.0 / 8.0)
    tube = linegeom.Tube([0.1, -0.05, 0.0], linegeom.Direction([1.0, 0.6, 0.3]), 1.0 / 8.0)
    cells = functionals.rasterize_tube(grid, tube)
    check = lambda c: oracles.check_raster("t", c, grid.n, grid.h, grid.extent, tube)  # noqa: E731
    assert check(cells) == []
    assert "1 of" in check(np.delete(cells, cells.size // 2))[0]
    assert "1 extra" in check(np.append(cells, 0))[0]
    assert "repeated" in check(np.append(cells, cells[0]))[0]


def test_multilinear_oracle_rejects_changed_and_dropped_values():
    fams = suites.suite_member("axes-n3-k3").mk_families(2.0**-4)
    grid = functionals.Grid.for_family(fams[0], factor=4)
    cells, vals = functionals.multilinear_cell_values(fams, grid)
    ref, amb = oracles.multilinear_reference(
        fams, grid.n, grid.h, grid.extent, linegeom.point_in_tube, linegeom.wedge_volume
    )
    assert oracles.check_multilinear("m", cells, vals, ref, amb) == []
    bumped = vals.copy()
    bumped[np.argmax(vals)] *= 1.001
    assert oracles.check_multilinear("m", cells, bumped, ref, amb)
    keep = vals != vals.max()
    assert oracles.check_multilinear("m", cells[keep], vals[keep], ref, amb)


def test_scan_oracle_rejects_a_wrong_maximum():
    fam = generators.gen_random_nonconcentrated(2, 1, 1.0, 2.0**-4, seed=11).family
    lines = fam.lines()
    feet = np.stack([l.x for l in lines])
    dirs = np.stack([l.u.u for l in lines])
    net = concentration.BallNet.build(2, fam.delta)
    for r in net.radii[:3]:
        best = net.scan(r, feet, dirs)[0]
        centers = [net.center_line(r, wi, j) for wi, j in net.candidate_keys(r, feet, dirs).values()]
        assert oracles.check_scan("s", best, r, centers, lines, linegeom.line_metric) == []
        assert oracles.check_scan("s", best + 1.0, r, centers, lines, linegeom.line_metric)
        assert oracles.check_scan("s", best - 1.0, r, centers, lines, linegeom.line_metric)


def test_fit_table_oracle_rejects_a_changed_norm():
    fam = generators.gen_lines_in_planes(2, 1, 1.0, 2.0**-4)
    grid = functionals.Grid.for_family(fam, factor=4)
    p = fam.p
    value = functionals.lp_norm_tube_sum(fam, p, grid) / fam.sum_volume() ** (1.0 / p)
    assert workloads.table_errors("v", fam, 4, p, value) == []
    assert workloads.table_errors("v", fam, 4, p, value * 1.001)


def test_known_value_checks():
    scales = [2.0**-j for j in range(3, 7)]
    assert abs(oracles.loglog_slope(scales, [3.0 * s**-0.5 for s in scales]) + 0.5) < 1e-12
    assert oracles.check_close("x", 0.76, 0.75, 0.02) == []
    assert oracles.check_close("x", 0.72, 0.75, 0.02)
    assert oracles.check_close("x", float("nan"), 0.75, 0.02)


class _Report:
    """Stand-in for an ExperimentReport with a chosen payload."""

    def __init__(self, values, checks=()):
        self.name = "stub"
        self.payload = {"values": values, "checks": list(checks)}


def test_thin_check_rejects_binomial_rate_and_payload_failures():
    op = _op("linespace", "thin-parallel")
    good = {"binomial_rate": 0.751, "success_rate": 1.0, "input_worst_ratio": 1.0}
    assert op.check(_Report(good), {}) == []
    assert op.check(_Report(dict(good, binomial_rate=0.72)), {})
    failed = {"name": "x", "passed": False, "value": 1, "bound": 0}
    assert op.check(_Report(good, [failed]), {})


def test_generate_and_recheck_checks_reject_bad_families():
    gen = _op("linespace", "generate-random-n2-d1")
    res = generators.gen_random_nonconcentrated(2, 1, 1.0, 2.0**-4, seed=11)
    assert gen.check(res, {}) == []
    assert gen.check(dataclasses.replace(res, complete=False), {})
    short = functionals.TubeFamily(res.family.tubes[:-1], res.family.delta, 2, 1, 1.0)
    assert gen.check(dataclasses.replace(res, family=short), {})
    recheck = _op("linespace", "recheck-random-n2-d1")
    out = {"generate-random-n2-d1": res}
    ratio = concentration.ball_condition_worst_ratio(res.family, concentration.BallNet.build(2, 2.0**-4))
    assert recheck.check(ratio, out) == []
    assert recheck.check(ratio * 0.99, out)
    assert recheck.check(1.5, out)


def test_chain_check_rejects_a_changed_line():
    op = _op("transversality", "calculation-chain")
    rep = op.run({})
    assert op.check(rep, {}) == []
    lines = list(rep.lines)
    lines[5] *= 1.01
    assert op.check(dataclasses.replace(rep, lines=tuple(lines)), {})
    assert op.check(dataclasses.replace(rep, cardinality_step_ok=False), {})


def test_fine_grid_operation_is_the_only_known_fault():
    ops = [op for w in workloads.WORKLOADS for op in workloads.build(w, 0)]
    assert [op.name for op in ops if op.known_fault] == ["fine-grid-raster"]


def test_tracer_self_time_counters_and_coverage():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)
        return np.arange(3)

    def outer():
        time.sleep(0.01)
        return traced_inner()

    traced_inner = tracer.wrap("inner", "functionals.raster_s", inner, spans._count_raster_tube)
    traced_outer = tracer.wrap("outer", "suites.mk_ratio_s", outer)
    t0 = time.perf_counter()
    traced_outer()
    metrics = tracer.metrics(time.perf_counter() - t0)
    assert 0.018 < metrics["functionals.raster_s"] < 0.05
    assert 0.008 < metrics["suites.mk_ratio_s"] < 0.018
    assert metrics["functionals.raster_entries"] == 3
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert [s[1] for s in tracer.spans] == [-1, 0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
