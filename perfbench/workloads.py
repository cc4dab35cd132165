"""The benchmark's workloads: the operations of one round and their checks.

An operation is one scenario run through `cli.run_scenario` or one call of a
public library function.  `run` receives the outputs of the operations
before it in the round; `check` receives the operation's output and returns
a list of discrepancies found by the oracles in `oracles.py`.  Checks run
outside the timed region.

Every call into tubelab goes through a module attribute looked up at call
time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
from tubelab import cli, concentration, dimension, functionals, generators, linegeom, suites

WORKLOADS = ("sharpness", "transversality", "linespace")

#: Members of the standard suite whose families are deterministic.
DETERMINISTIC_MEMBERS = [
    "axes-n2-k2",
    "axes-n3-k2",
    "axes-n3-k3",
    "bush-n2",
    "bush-n3",
    "planes-n2-d1-b1",
    "planes-n3-d1-b05",
]

#: Members of the decomposition and induction runs: the deterministic ones
#: without axes-n3-k2 and bush-n3, which alone would double the round.
SPLIT_MEMBERS = ["axes-n2-k2", "axes-n3-k3", "bush-n2", "planes-n2-d1-b1", "planes-n3-d1-b05"]

#: Random members: (name, n, d, beta, generator seed as fixed in suites.py).
RANDOM_MEMBERS = [("random-n2-d1", 2, 1, 1.0, 11), ("random-n3-d1", 3, 1, 1.0, 12)]

#: The fine-grid tubes use this fixed seed, not the workload seed, so that
#: the rasterizer fault they expose fails the same way on every run.
FINE_GRID_SEED = 20240
FINE_GRID_FACTOR = 16
FINE_GRID_CASES = [(2, 1.0 / 16.0, 8), (3, 1.0 / 8.0, 4)]  # (n, delta, tubes)

DENSE_DELTA = 1.0 / 16.0
DENSE_PER_AXIS = 2001

#: Tubes per family whose rasters the check phase compares with brute force.
RASTER_SAMPLE = 2


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list[str]]
    #: Set when the operation fails today because of a known program fault.
    known_fault: str | None = None


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one round of the workload, inputs included."""
    return {"sharpness": _sharpness, "transversality": _transversality, "linespace": _linespace}[
        workload
    ](seed)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def payload_errors(report) -> list[str]:
    """The scenario's own failed checks."""
    return [
        f"{report.name}: check {c['name']} failed (value {c['value']!r}, bound {c['bound']!r})"
        for c in report.payload["checks"]
        if not c["passed"]
    ]


def raster_sample_errors(label: str, family, grid, rng) -> list[str]:
    """`rasterize_tube` on a seeded sample of the family's tubes vs brute force."""
    picks = rng.choice(len(family), size=min(RASTER_SAMPLE, len(family)), replace=False)
    errors = []
    for i in sorted(int(p) for p in picks):
        tube = family.tubes[i]
        cells = functionals.rasterize_tube(grid, tube)
        errors += oracles.check_raster(f"{label} tube {i}", cells, grid.n, grid.h, grid.extent, tube)
    return errors


def table_errors(label: str, family, factor: int, p: float, value: float) -> list[str]:
    """A fit-table value ||sum chi_T||_p / (sum |T|)^(1/p) against brute-force counts."""
    h = family.delta / factor
    extent = family.ball_radius + family.delta
    low, high = oracles.brute_force_counts(family.tubes, family.n, h, extent)
    volume = sum(oracles.capsule_volume(family.n, t.radius, t.length) for t in family.tubes)
    bounds = [(h**family.n * np.sum(c.astype(float) ** p)) ** (1.0 / p) / volume ** (1.0 / p) for c in (low, high)]
    if not bounds[0] * (1 - 1e-9) <= value <= bounds[1] * (1 + 1e-9):
        return [f"{label}: value {value!r} outside brute-force range {bounds}"]
    return []


def holder_errors(label: str, family, grid, mass: float, rhs: float) -> list[str]:
    """The duality chain sum |T ∩ E| <= |E|^(1/p') ||sum chi_T||_p: both sides
    recomputed from brute-force counts, and the inequality itself."""
    low, high = oracles.brute_force_counts(family.tubes, family.n, grid.h, grid.extent)
    hv = grid.h**family.n
    p = family.p
    ref_mass = [hv * float(c.sum()) for c in (low, high)]
    ref_rhs = [
        (hv * c.size) ** (1.0 / family.p_prime) * (hv * np.sum(c.astype(float) ** p)) ** (1.0 / p)
        for c in (low, high)
    ]
    errors = []
    if not ref_mass[0] * (1 - 1e-9) <= mass <= ref_mass[1] * (1 + 1e-9):
        errors.append(f"{label}: tube mass {mass!r} outside brute-force range {ref_mass}")
    if not ref_rhs[0] * (1 - 1e-9) <= rhs <= ref_rhs[1] * (1 + 1e-9):
        errors.append(f"{label}: Hölder bound {rhs!r} outside brute-force range {ref_rhs}")
    if not mass <= rhs * (1 + 1e-9):
        errors.append(f"{label}: duality chain sum |T ∩ E| <= |E|^(1/p') ||sum chi_T||_p fails")
    return errors


def fit_errors(report, tag: str, n: int, d: int, beta: float, factor: int, rng) -> list[str]:
    """Slope of the sharpness fit, its table, and rasters of every family."""
    values = report.payload["values"]
    table = values[f"fit_table[{tag}]"]
    scales = [s for s, _ in table]
    slope = oracles.loglog_slope(scales, [v for _, v in table])
    target = (1.0 - d) / (d + beta)
    errors = oracles.check_close(f"slope[{tag}] refit", values[f"slope[{tag}]"], slope, 1e-9)
    errors += oracles.check_close(f"slope[{tag}] vs (1-d)/(d+beta)", slope, target, 0.15)
    p = (d + beta) / (d + beta - 1.0)
    for s, v in table:
        fam = generators.gen_lines_in_planes(n, d, beta, s, size_cap=400_000)
        grid = functionals.Grid.for_family(fam, factor=factor)
        errors += raster_sample_errors(f"{tag} delta={s}", fam, grid, rng)
        # Full recomputation where the brute force stays cheap.
        if len(fam) <= 1000:
            errors += table_errors(f"fit_table[{tag}] delta={s}", fam, factor, p, v)
    return errors


def _scenario(name: str, scenario: str, seed: int, params: dict, check=None) -> Op:
    cfg = cli.ExperimentConfig(name, scenario, seed, params)
    extra = check or (lambda rep, out: [])
    return Op(name, lambda out: cli.run_scenario(cfg), lambda rep, out: payload_errors(rep) + extra(rep, out))


# ---------------------------------------------------------------------------
# sharpness: rasterization and the dimension layer
# ---------------------------------------------------------------------------


def _fine_grid_inputs():
    rng = np.random.default_rng(FINE_GRID_SEED)
    cases = []
    for n, delta, count in FINE_GRID_CASES:
        grid = functionals.Grid(n, delta / FINE_GRID_FACTOR, 1.0 + delta)
        for _ in range(count):
            u = rng.normal(size=n)
            center = rng.uniform(-0.2, 0.2, size=n)
            cases.append((grid, linegeom.Tube(center, linegeom.Direction(u), delta)))
    return cases


def _dense_inputs():
    """A crossing family of 2 x 2,001 axis-parallel tubes in the plane: above
    PER_TUBE_LIMIT, so `FamilyRaster.build` takes the dense count path, while
    each tube stays cheap to rasterize."""
    fams = generators.gen_axes(2, 2, DENSE_DELTA, DENSE_PER_AXIS)
    family = functionals.TubeFamily([t for f in fams for t in f.tubes], DENSE_DELTA, 2, 1, 1.0)
    return family, functionals.Grid.for_family(family, factor=4)


def _sharpness(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    n2_scales = [2.0**-j for j in range(3, 8)]
    n3_scales = [0.25, 0.16, 0.1]
    fine = _fine_grid_inputs()
    dense_family, dense_grid = _dense_inputs()

    def check_dimension(rep, out):
        values = rep.payload["values"]
        errors = oracles.check_close("disk_dim", values["disk_dim"], 2.0, 0.1)
        errors += oracles.check_close("cantor_dim", values["cantor_dim"], 0.5, 0.15)
        fam = generators.gen_lines_in_planes(2, 1, 1.0, 2.0**-6, size_cap=400_000)
        grid = functionals.Grid.for_family(fam, factor=4)
        chain = next(c for c in rep.payload["checks"] if c["name"] == "holder_chain[n2d1]")
        errors += holder_errors("dimension n2d1", fam, grid, chain["value"], chain["bound"])
        return errors + raster_sample_errors("dimension n2d1", fam, grid, rng)

    def check_fine(cells, out):
        errors = []
        for i, ((grid, tube), c) in enumerate(zip(fine, cells)):
            errors += oracles.check_raster(f"fine n={grid.n} tube {i}", c, grid.n, grid.h, grid.extent, tube)
        return errors

    return [
        _scenario(
            "sharpness-n2d1",
            "sharpness",
            seed,
            {"grid_factor": 4, "configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": n2_scales}]},
            lambda rep, out: fit_errors(rep, "n2d1", 2, 1, 1.0, 4, rng),
        ),
        _scenario(
            "sharpness-n3d2",
            "sharpness",
            seed,
            {"grid_factor": 4, "configs": [{"n": 3, "d": 2, "beta": 1.0, "scales": n3_scales}]},
            lambda rep, out: fit_errors(rep, "n3d2", 3, 2, 1.0, 4, rng),
        ),
        _scenario(
            "dimension-n2d1",
            "dimension",
            seed,
            {"families": [{"n": 2, "d": 1, "beta": 1.0, "delta": 2.0**-6}]},
            check_dimension,
        ),
        Op(
            "holder-dense-axes",
            lambda out: dimension.holder_comparison(dense_family, dense_grid, dense_family.p),
            lambda rep, out: holder_errors("holder-dense-axes", dense_family, dense_grid, rep.mass_lhs, rep.holder_rhs)
            + raster_sample_errors("dense axes", dense_family, dense_grid, rng),
        ),
        Op(
            "fine-grid-raster",
            lambda out: [functionals.rasterize_tube(grid, tube) for grid, tube in fine],
            check_fine,
            known_fault=(
                "rasterize_tube searches a fixed transverse window "
                "(src/tubelab/functionals.py:211) and drops cells at h = delta/16"
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# transversality: multilinear sums, per-tube rasters, cap and coarse grouping
# ---------------------------------------------------------------------------


def _transversality(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    deltas = [2.0**-4, 2.0**-5]
    members = {"deltas": deltas, "members": DETERMINISTIC_MEMBERS}
    split = {"deltas": deltas, "members": SPLIT_MEMBERS, "rho": suites.DECOMPOSE_RHO}
    chain_family = suites.suite_member("planes-n2-d1-b1").family(2.0**-5)
    chain_grid = functionals.Grid.for_family(chain_family, factor=4)
    multilinear_inputs = {}
    for name in ("bush-n2", "axes-n3-k3"):
        fams = suites.suite_member(name).mk_families(2.0**-4)
        multilinear_inputs[name] = (fams, functionals.Grid.for_family(fams[0], factor=4))

    def check_kakeya(rep, out):
        values = rep.payload["values"]
        errors = oracles.check_close("loomis_whitney_ratio", values["loomis_whitney_ratio"], 1.0, 0.1)
        for name in DETERMINISTIC_MEMBERS:
            m = suites.suite_member(name)
            for dl in deltas:
                r = values[f"mk_ratio[{name}][{dl!r}]"]
                # Families of parallel tubes have no transverse tuples: ratio 0.
                if not (math.isfinite(r) and r >= 0):
                    errors.append(f"mk_ratio[{name}][{dl!r}] = {r!r} is not a finite ratio")
                for i, fam in enumerate(m.mk_families(dl)):
                    grid = functionals.Grid.for_family(fam, factor=4)
                    errors += raster_sample_errors(f"{name} family {i} delta={dl}", fam, grid, rng)
        lw = suites.suite_member("axes-n2-k2").mk_families(2.0**-5)[0]
        return errors + raster_sample_errors("axes-n2-k2 factor 8", lw, functionals.Grid.for_family(lw, 8), rng)

    def check_split(label):
        def check(rep, out):
            errors = []
            for name in SPLIT_MEMBERS:
                for dl in deltas:
                    c = rep.payload["values"][f"{label}[{name}][{dl!r}]"]
                    if not (math.isfinite(c) and c > 0):
                        errors.append(f"{label}[{name}][{dl!r}] = {c!r} is not a positive number")
                    fam = suites.suite_member(name).family(dl)
                    errors += raster_sample_errors(f"{name} delta={dl}", fam, functionals.Grid.for_family(fam, 4), rng)
            return errors

        return check

    def check_chain(rep, out):
        F = chain_family
        errors = [
            f"calculation chain: {flag} is false"
            for flag in ("pointwise_step_ok", "regroup_equal", "cardinality_step_ok", "simplify_equal")
            if not getattr(rep, flag)
        ]
        delta, n, d, p, pp = F.delta, F.n, F.d, F.p, F.p_prime
        sum_t = sum(oracles.capsule_volume(n, t.radius, t.length) for t in F.tubes)
        errors += oracles.check_rel("chain line 4", rep.lines[3], delta ** (1.0 + (1.0 - n) * (p - 1.0)) * sum_t**p)
        errors += oracles.check_rel("chain line 6", rep.lines[5], delta ** (p * (1.0 - d) / pp) * sum_t)
        if not rep.lines[0] <= rep.lines[1] * (1 + 1e-9):
            errors.append("chain line 1 exceeds line 2")
        return errors

    def multilinear_op(name):
        fams, grid = multilinear_inputs[name]

        def check(result, out):
            ref, ambiguous = oracles.multilinear_reference(
                fams, grid.n, grid.h, grid.extent, linegeom.point_in_tube, linegeom.wedge_volume
            )
            return oracles.check_multilinear(f"multilinear {name}", result[0], result[1], ref, ambiguous)

        return Op(f"multilinear-{name}", lambda out: functionals.multilinear_cell_values(fams, grid), check)

    return [
        _scenario("kakeya-deterministic", "kakeya", seed, members, check_kakeya),
        _scenario("decompose-deterministic", "decompose", seed, split, check_split("decompose_C")),
        _scenario("induction-deterministic", "induction", seed, split, check_split("induction_C")),
        Op("calculation-chain", lambda out: functionals.calculation_chain(chain_family, chain_grid), check_chain),
        multilinear_op("bush-n2"),
        multilinear_op("axes-n3-k3"),
        # The scenario's own checks re-verify every certificate exhaustively.
        _scenario("dichotomy", "dichotomy", seed, {"trials": 500}),
    ]


# ---------------------------------------------------------------------------
# linespace: rejection sampling, ball scans and thinning
# ---------------------------------------------------------------------------


def _linespace(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    delta = 2.0**-4
    names = [name for name, *_ in RANDOM_MEMBERS]
    members = {"deltas": [delta], "members": names}
    split = {"deltas": [delta], "members": names[:1], "rho": suites.DECOMPOSE_RHO}
    thin = {"n_lines": 128, "delta": 2.0**-9, "seeds": 2, "binomial_trials": 10_000}

    def generate_op(name, n, d, beta, gen_seed):
        def check(res, out):
            target = int(round(delta ** (2.0 * (1 - d) - beta)))
            errors = []
            if not res.complete or len(res.family) != target:
                errors.append(
                    f"{name}: {len(res.family)} tubes (complete={res.complete}), target {target}"
                )
            grid = functionals.Grid.for_family(res.family, factor=4)
            return errors + raster_sample_errors(name, res.family, grid, rng)

        return Op(
            f"generate-{name}",
            lambda out: generators.gen_random_nonconcentrated(n, d, beta, delta, seed=gen_seed),
            check,
        )

    def recheck_op(name, n):
        def check(ratio, out):
            if not ratio <= 1.0 + 1e-9:
                return [f"{name}: fresh-net ball-condition ratio {ratio!r} exceeds 1"]
            return scan_errors(name, n, out[f"generate-{name}"].family, ratio)

        return Op(
            f"recheck-{name}",
            lambda out: concentration.ball_condition_worst_ratio(
                out[f"generate-{name}"].family, concentration.BallNet.build(n, delta)
            ),
            check,
        )

    def scan_errors(name, n, family, ratio):
        """`BallNet.scan` maxima at every radius against all-pairs counts over
        the same net centers, and the re-check ratio they imply."""
        lines = family.lines()
        feet = np.stack([l.x for l in lines])
        dirs = np.stack([l.u.u for l in lines])
        net = concentration.BallNet.build(n, delta)
        s = 2.0 * (family.d - 1) + family.beta
        errors, worst = [], 0.0
        for r in net.radii:
            best = net.scan(r, feet, dirs)[0]
            worst = max(worst, best / (r / delta) ** s)
            centers = [net.center_line(r, wi, j) for wi, j in net.candidate_keys(r, feet, dirs).values()]
            errors += oracles.check_scan(f"scan {name}", best, r, centers, lines, linegeom.line_metric)
        return errors + oracles.check_close(f"{name} worst ratio from scans", ratio, worst, 1e-12)

    def check_thin(rep, out):
        values = rep.payload["values"]
        errors = oracles.check_close("binomial thinning rate", values["binomial_rate"], 0.75, 0.02)
        if values["success_rate"] < 0.9:
            errors.append(f"thinning success rate {values['success_rate']} below 0.9")
        if values["input_worst_ratio"] > 1.0:
            errors.append(f"parallel input ratio {values['input_worst_ratio']} exceeds 1")
        return errors

    ops = [generate_op(*m) for m in RANDOM_MEMBERS]
    ops += [recheck_op(name, n) for name, n, *_ in RANDOM_MEMBERS]
    ops += [
        _scenario("kakeya-random", "kakeya", seed, members),
        _scenario("decompose-random", "decompose", seed, split),
        _scenario("induction-random", "induction", seed, split),
        _scenario("thin-parallel", "thin", seed, thin, check_thin),
    ]
    return ops
