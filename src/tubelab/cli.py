"""Experiment runner and report emitter.

Scenarios are batch experiments over the library's operations; each run
writes one self-describing JSON report (plus a CSV for fit tables) with a
deterministic payload: identical config and seed give byte-identical
payloads, with wall-clock time stored outside the payload.

Subcommands: run / regress / freeze / list-scenarios.  Golden constants live
in the package's goldens/ directory unless TUBELAB_GOLDEN_DIR points
elsewhere; `regress` compares recorded constants against them within a
factor of 2, and `freeze` writes them from a set of reports.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import (
    BallNet,
    ThinningError,
    random_thin,
    random_thin_trials,
    worst_ratio_of_lines,
)
from .dichotomy import (
    BudgetError,
    DirectionMultiset,
    UncertifiedDichotomyError,
    control_card_ratio,
    decide_dichotomy,
    verify_option_a,
    verify_option_b,
)
from .dimension import (
    Region,
    box_counting_dim,
    exponent_fit_norms,
    holder_comparison,
)
from .functionals import Grid
from .generators import IncompleteFamilyError, cantor_offsets, gen_lines_in_planes
from .linegeom import WEDGE_TUPLE_LIMIT, Direction, Line
from .suites import (
    DECOMPOSE_DELTAS,
    DECOMPOSE_RHO,
    MK_DELTAS,
    decompose_constant,
    induction_constant,
    mk_ratio,
    standard_suite,
)

CONFIG_SCHEMA = "tubelab-config-1"
REPORT_SCHEMA = "tubelab-report-1"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


#: Grid factors delta/h that a run accepts: the steps the gates and goldens
#: are run at.
GRID_FACTORS = range(2, 9)


def _is_integral(x) -> bool:
    """True for an int (numpy's too) or an integral float; False for a bool or anything else."""
    if isinstance(x, bool):
        return False
    return isinstance(x, (int, np.integer)) or (isinstance(x, float) and x.is_integer())


def _check_grid_factor(factor, source: str) -> int:
    """`factor` as an int if it is one of GRID_FACTORS; a ConfigError naming
    `source` and the accepted factors otherwise."""
    if not _is_integral(factor) or int(factor) not in GRID_FACTORS:
        factors = ", ".join(str(k) for k in GRID_FACTORS)
        steps = ", ".join(f"1/{k}" for k in GRID_FACTORS)
        raise ConfigError(
            f"{source} is not supported; the grid factor delta/h must be one of "
            f"{factors} (grid steps {steps} of delta), the steps the gates and goldens are run at"
        )
    return int(factor)


def _check_param(key: str, value, default, sc: Scenario) -> None:
    """A ConfigError naming the key path `key` unless `value` has the shape of
    its scenario default: an integer >= 1 for an int (`2.0` counts), a number
    > 0 for a float, a non-empty list of items shaped like `default[0]` for a
    list, and an object with exactly the keys of a dict, each value shaped
    like the default's.  A bool is neither an integer nor a number here.
    A list or number whose name (at any depth; a list's items go by the
    list's name) is in the scenario's `fewest` or `most` must also hold that
    many entries, or be at most that value."""
    name = key.rsplit(".", 1)[-1].split("[")[0]
    if isinstance(default, dict):
        if not isinstance(value, dict) or value.keys() != default.keys():
            raise ConfigError(f"{key} must be an object with exactly the keys {sorted(default)}, got {value!r}")
        for k in default:
            _check_param(f"{key}.{k}", value[k], default[k], sc)
    elif isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key} must be a non-empty list, got {value!r}")
        for i, item in enumerate(value):
            _check_param(f"{key}[{i}]", item, default[0], sc)
        count, why = sc.fewest.get(name, (1, ""))
        if len(value) < count:
            raise ConfigError(f"{key} must hold at least {count} entries ({why}), got {value!r}")
    elif isinstance(default, int) and (not _is_integral(value) or value < 1):
        raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, numbers.Real) or not value > 0:
        raise ConfigError(f"{key} must be a number > 0, got {value!r}")
    elif name in sc.most and value > sc.most[name][0]:
        bound, why = sc.most[name]
        raise ConfigError(f"{key} must be at most {bound!r} ({why}), got {value!r}")


def _grid_factor(grid_h: float) -> int:
    """The integer f with grid_h = 1/f, for f in GRID_FACTORS."""
    f = round(1.0 / grid_h) if grid_h >= 1.0 / (GRID_FACTORS[-1] + 1) else 0
    return _check_grid_factor(f if abs(grid_h * f - 1.0) <= 1e-9 else 0, f"--grid-h {grid_h!r}")


def _suite_members(names):
    """The standard suite members named by a config, in suite order."""
    return [m for m in standard_suite() if names == "all" or m.name in names]


# ---------------------------------------------------------------------------
# config and report records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    scenario: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # Each report is written to <out>/<name>.json.
        if self.name in ("", ".", "..") or "/" in self.name or os.sep in self.name:
            raise ConfigError(
                f"name must be a file name, not empty, '.', '..' or holding a path separator, got {self.name!r}"
            )
        # The one seed check for configs and `--seed`: numpy rejects negative seeds.
        if not _is_integral(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; choose from {sorted(SCENARIOS)}"
            )
        allowed = set(SCENARIOS[self.scenario].defaults)
        unknown = set(self.params) - allowed
        if unknown:
            raise ConfigError(
                f"unknown keys {sorted(unknown)} for scenario {self.scenario!r}; "
                f"allowed: {sorted(allowed)}"
            )
        sc = SCENARIOS[self.scenario]
        for key in sorted(self.params.keys() - {"members", "grid_factor"}):
            _check_param(key, self.params[key], sc.defaults[key], sc)
        if "grid_factor" in self.params:
            factor = self.params["grid_factor"]
            _check_grid_factor(factor, f"grid_factor {factor!r}")
        members = self.params.get("members", "all")
        if members != "all":
            known = [m.name for m in standard_suite()]
            if not isinstance(members, list) or not members or not all(m in known for m in members):
                raise ConfigError(
                    f"members must be \"all\" or a non-empty list of suite members, "
                    f"got {members!r}; known members: {known}"
                )
        sc.joint(self.resolved_params())

    def resolved_params(self) -> dict:
        out = dict(SCENARIOS[self.scenario].defaults)
        out.update(self.params)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a scenario entry must be a JSON object, got {data!r}")
        extra = set(data) - {"name", "scenario", "seed", "params"}
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        missing = {"name", "scenario"} - set(data)
        if missing:
            raise ConfigError(f"config missing keys {sorted(missing)}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"params must be a JSON object, got {params!r}")
        return cls(
            name=str(data["name"]),
            scenario=str(data["scenario"]),
            seed=data.get("seed", 0),
            params=dict(params),
        )


@dataclass(frozen=True)
class ExperimentReport:
    payload: dict
    wall_clock_s: float

    @property
    def passed(self) -> bool:
        return bool(self.payload["passed"])

    @property
    def name(self) -> str:
        return self.payload["name"]

    def payload_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=1)

    def to_json(self) -> str:
        return json.dumps(
            {"payload": self.payload, "wall_clock_s": self.wall_clock_s},
            sort_keys=True,
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        data = json.loads(text)
        return cls(payload=data["payload"], wall_clock_s=float(data["wall_clock_s"]))


def _check(name: str, passed: bool, value, bound) -> dict:
    return {"name": name, "passed": bool(passed), "value": value, "bound": bound}


def _tag(entry: dict) -> str:
    """The key of a sharpness `configs` or dimension `families` entry in its values and checks."""
    return f"n{int(entry['n'])}d{int(entry['d'])}"


def _planes(entry: dict):
    """The planes family of a sharpness `configs` or dimension `families`
    entry as a function of the scale, capped at 400,000 tubes."""
    n, d, beta = int(entry["n"]), int(entry["d"]), float(entry["beta"])
    return lambda delta: gen_lines_in_planes(n, d, beta, delta, size_cap=400_000)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _run_dichotomy(params: dict, seed: int):
    trials = int(params["trials"])
    rhos = [float(r) for r in params["rhos"]]
    max_n = int(params["max_directions"])
    verified = 0
    ratio_max = 0.0
    degenerate_index: dict[str, int] = {}
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        n = int(rng.integers(2, 4))
        N = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(2, n + 1))
        rho = rhos[int(rng.integers(len(rhos)))]
        if rng.random() < 0.5:
            vecs = rng.normal(size=(N, n))
        else:
            base = rng.normal(size=n)
            vecs = base + 0.01 * rng.normal(size=(N, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        U = DirectionMultiset(vecs)
        res = decide_dichotomy(U, k, rho)
        ok = (
            verify_option_a(U, k, rho, res.good_tuple_count)
            if res.variant == "A"
            else verify_option_b(U, k, rho, res.witness)
        )
        if ok:
            verified += 1
        if res.variant == "B":
            j = str(res.degenerate_index)
            degenerate_index[j] = degenerate_index.get(j, 0) + 1
        if trial % 16 == 0:
            ratio_max = max(ratio_max, control_card_ratio(U, k, rho, seed=trial))
    values = {"trials": trials, "verified": verified, "degenerate_index": degenerate_index}
    constants = {"max_control_ratio": ratio_max}
    checks = [
        _check("all_certificates_verified", verified == trials, verified, trials),
        _check("control_ratio_bounded", ratio_max <= 8.0, ratio_max, 8.0),
    ]
    return values, constants, checks


def _run_kakeya(params: dict, seed: int):
    deltas = [float(d) for d in params["deltas"]]
    factor = int(params["grid_factor"])
    members = _suite_members(params["members"])
    values = {}
    constants = {}
    checks = []
    for m in members:
        for dl in deltas:
            r = mk_ratio(m, dl, grid_factor=factor)
            key = f"mk_ratio[{m.name}][{dl!r}]"
            values[key] = r
            constants[key] = r
            checks.append(_check(f"finite[{m.name}][{dl!r}]", r <= 10.0, r, 10.0))
    # Crossing families of axis tubes: both sides factorize, so the ratio is
    # 1 up to the end-cap volume and grid error.
    lw = next((m for m in members if m.name == "axes-n2-k2"), None)
    if lw is not None:
        r = mk_ratio(lw, 2.0**-5, grid_factor=8)
        values["loomis_whitney_ratio"] = r
        checks.append(_check("loomis_whitney_unit_ratio", abs(r - 1.0) <= 0.1, r, "1 +- 0.1"))
    return values, constants, checks


def _run_decompose(params: dict, seed: int):
    return _run_split_constants(params, decompose_constant, "decompose_C")


def _run_induction(params: dict, seed: int):
    return _run_split_constants(params, induction_constant, "induction_C")


def _run_split_constants(params: dict, fn, label: str):
    deltas = [float(d) for d in params["deltas"]]
    rho = float(params["rho"])
    factor = int(params["grid_factor"])
    members = _suite_members(params["members"])
    values = {}
    constants = {}
    checks = []
    for m in members:
        cs = []
        for dl in deltas:
            c = fn(m, dl, rho=rho, grid_factor=factor)
            cs.append(c)
            key = f"{label}[{m.name}][{dl!r}]"
            values[key] = c
            constants[key] = c
        spread = max(cs) / min(cs) if min(cs) > 0 else math.inf
        checks.append(_check(f"stable_across_scales[{m.name}]", spread <= 2.0, spread, 2.0))
    return values, constants, checks


def _parallel_line_set(n_lines: int, delta: float) -> list[Line]:
    """Parallel lines with feet spaced 4*delta: ball counts stay below half
    the non-concentration bound at every radius above delta."""
    u = Direction([1.0, 0.0])
    return [
        Line(u, [0.0, (i - (n_lines - 1) / 2.0) * 4.0 * delta]) for i in range(n_lines)
    ]


def _run_thin(params: dict, seed: int):
    n_lines = int(params["n_lines"])
    delta = float(params["delta"])
    n_seeds = int(params["seeds"])
    binom_trials = int(params["binomial_trials"])
    lines = _parallel_line_set(n_lines, delta)
    net = BallNet.build(2, delta)
    input_ratio = worst_ratio_of_lines(lines, delta, 1, 1.0, net)
    successes = 0
    for s in range(n_seeds):
        try:
            random_thin(
                lines, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=seed + s,
                net=net, d=1, beta=1.0, max_attempts=1,
            )
            successes += 1
        except ThinningError:
            pass
    rate = successes / n_seeds

    # Two far-apart lines at probability 1/2: keeping at least one line is
    # the only binding condition, so the success probability is exactly 3/4.
    small_delta = 1.0 / 64.0
    u = Direction([1.0, 0.0])
    pair = [Line(u, [0.0, 0.0]), Line(u, [0.0, 0.5])]
    small_net = BallNet.build(2, small_delta)
    wins = random_thin_trials(
        pair, A=2.0, C0=1.0, eps=0.0, delta=small_delta, seed=[seed, 101], trials=binom_trials,
        net=small_net, d=1, beta=1.0,
    )
    binom_rate = int(np.count_nonzero(wins)) / binom_trials
    analytic = 1.0 - 0.25  # P(Binomial(2, 1/2) >= 1)

    values = {
        "input_worst_ratio": input_ratio,
        "success_rate": rate,
        "binomial_rate": binom_rate,
        "binomial_analytic": analytic,
    }
    constants = {"input_worst_ratio": input_ratio}
    checks = [
        _check("input_within_slack", input_ratio <= 1.0, input_ratio, 1.0),
        _check("thinning_success_rate", rate >= 0.9, rate, 0.9),
        _check(
            "binomial_matches_analytic",
            abs(binom_rate - analytic) <= 0.02,
            binom_rate,
            f"{analytic} +- 0.02",
        ),
    ]
    return values, constants, checks


#: Grid rows per slab of `_disk_region`: only one slab's cell centers exist
#: at a time, not the whole grid's.
_DISK_SLAB_ROWS = 16


def _disk_region(G: Grid) -> Region:
    """Cells of the 2-D grid G whose center lies in the closed unit disk,
    tested a slab of grid rows at a time.  The norm of a center is taken per
    row of centers, so the cells do not depend on the slab size."""
    m = G.m
    inside = np.empty(m * m, dtype=bool)
    for r0 in range(0, m, _DISK_SLAB_ROWS):
        lo, hi = r0 * m, min(r0 + _DISK_SLAB_ROWS, m) * m
        inside[lo:hi] = np.linalg.norm(G.centers_of_linear(np.arange(lo, hi)), axis=1) <= 1.0
    return Region(G, np.flatnonzero(inside))


def _run_dimension(params: dict, seed: int):
    values = {}
    constants = {}
    checks = []

    disk = _disk_region(Grid(2, float(params["disk_h"]), 1.0))
    fit = box_counting_dim(disk, _DISK_BOX_SCALES)
    values["disk_dim"] = fit.slope
    checks.append(_check("disk_dim", abs(fit.slope - 2.0) <= 0.1, fit.slope, "2 +- 0.1"))

    cd = float(params["cantor_delta"])
    offsets = cantor_offsets(0.5, cd)
    G1 = Grid(1, 2.0**-8, 1.0)
    cfit = box_counting_dim(
        Region.from_points(G1, offsets), [2.0**-j for j in range(1, 7)]
    )
    values["cantor_dim"] = cfit.slope
    checks.append(_check("cantor_dim", abs(cfit.slope - 0.5) <= 0.15, cfit.slope, "0.5 +- 0.15"))

    for fam_cfg in params["families"]:
        F = _planes(fam_cfg)(float(fam_cfg["delta"]))
        Gf = Grid.for_family(F, factor=4)
        rep = holder_comparison(F, Gf, F.p)
        tag = _tag(fam_cfg)
        values[f"deficit[{tag}]"] = rep.exponent_deficit
        values[f"dim_fit[{tag}]"] = rep.dim_fit
        constants[f"dim_fit[{tag}]"] = rep.dim_fit
        checks.append(_check(f"holder_chain[{tag}]", rep.chain_holds, rep.mass_lhs, rep.holder_rhs))
        checks.append(
            _check(f"deficit[{tag}]", rep.exponent_deficit >= -0.25, rep.exponent_deficit, -0.25)
        )
    return values, constants, checks


def _run_sharpness(params: dict, seed: int):
    factor = int(params["grid_factor"])
    values = {}
    constants = {}
    checks = []
    for cfg in params["configs"]:
        d, beta = int(cfg["d"]), float(cfg["beta"])
        scales = [float(s) for s in cfg["scales"]]
        p = (d + beta) / (d + beta - 1.0)
        fit = exponent_fit_norms(_planes(cfg), scales, p, grid_factor=factor)
        target = (1.0 - d) / (d + beta)
        tag = _tag(cfg)
        values[f"slope[{tag}]"] = fit.slope
        values[f"residual[{tag}]"] = fit.residual
        values[f"fit_table[{tag}]"] = [
            [s, v] for s, v in zip(fit.scales, fit.values)
        ]
        constants[f"slope[{tag}]"] = fit.slope
        checks.append(
            _check(
                f"sharpness_exponent[{tag}]",
                abs(fit.slope - target) <= 0.15,
                fit.slope,
                f"{target} +- 0.15",
            )
        )
        checks.append(_check(f"fit_residual[{tag}]", fit.residual < 0.1, fit.residual, 0.1))
    return values, constants, checks


@dataclass(frozen=True)
class Scenario:
    runner: object
    description: str
    defaults: dict
    #: Ranges past the shape rule, by param name, each with its reason: the
    #: fewest entries of a list and the largest value of a number.
    fewest: dict = field(default_factory=dict)
    most: dict = field(default_factory=dict)
    #: Rules on several params at once, run on the resolved params at load.
    joint: object = lambda params: None


def _one_entry_per_tag(key: str):
    """A joint rule: no two entries of the list param `key` share a tag."""
    def check(params: dict) -> None:
        tags = [_tag(entry) for entry in params[key]]
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ConfigError(f"{key}[{tags.index(tag)}] and {key}[{i}] share the tag {tag}; one entry per (n, d)")
    return check


def _deltas_against_rho(rule: str, holds):
    """A joint rule: holds(delta, rho) for every entry of `deltas`; `rule` names it."""
    def check(params: dict) -> None:
        for i, dl in enumerate(params["deltas"]):
            if not holds(dl, params["rho"]):
                raise ConfigError(f"deltas[{i}] must be {rule}, got {dl!r} with rho = {params['rho']!r}")
    return check


#: Shared ranges: the Cantor offsets of every planes family need beta in
#: (0, 1], and tube families, Cantor sets and ball nets need their scale in
#: (0, 1/2].  A dichotomy trial draws k <= n <= 3 and wedges N^k tuples of its
#: N directions, so N^3 may not exceed WEDGE_TUPLE_LIMIT.  The dimension
#: scenario box-counts its disk at _DISK_BOX_SCALES.
_BETA = (1.0, "beta lies in (0, 1]")
_SCALE = (0.5, "a scale lies in (0, 1/2]")
_MOST_DIRECTIONS = (next(N for N in itertools.count() if (N + 1) ** 3 > WEDGE_TUPLE_LIMIT), "N^3 <= WEDGE_TUPLE_LIMIT")
_DISK_BOX_SCALES = [2.0**-j for j in range(1, 6)]


SCENARIOS: dict[str, Scenario] = {
    "dichotomy": Scenario(
        _run_dichotomy,
        "randomized spread/concentrate certificates with exhaustive verification",
        {"trials": 500, "rhos": [0.05, 0.1, 0.3], "max_directions": 12},
        most={"rhos": (1.0, "rho lies in (0, 1]"), "max_directions": _MOST_DIRECTIONS},
    ),
    "kakeya": Scenario(
        _run_kakeya,
        "multilinear transversality norm ratios over the standard suite",
        {"deltas": list(MK_DELTAS), "grid_factor": 4, "members": "all"},
        most={"deltas": _SCALE},
    ),
    "decompose": Scenario(
        _run_decompose,
        "two-term cap decomposition constants across scales",
        {
            "deltas": list(DECOMPOSE_DELTAS),
            "rho": DECOMPOSE_RHO,
            "grid_factor": 4,
            "members": "all",
        },
        most={"deltas": _SCALE, "rho": (1.0, "a cap diameter lies in (0, 1]")},
        joint=_deltas_against_rho("at most rho", lambda dl, rho: dl <= rho),
    ),
    "induction": Scenario(
        _run_induction,
        "coarsening-step constants across scales",
        {
            "deltas": list(DECOMPOSE_DELTAS),
            "rho": DECOMPOSE_RHO,
            "grid_factor": 4,
            "members": "all",
        },
        most={"rho": (0.5, "a coarsening radius above 1/2 is not supported")},
        joint=_deltas_against_rho("below rho/2 (the coarsening's scale condition)", lambda dl, rho: dl < rho / 2),
    ),
    "thin": Scenario(
        _run_thin,
        "random thinning: size and ball condition across seeds, plus the exact binomial case",
        {"n_lines": 1024, "delta": 2.0**-12, "seeds": 20, "binomial_trials": 10_000},
        most={"delta": _SCALE},
    ),
    "dimension": Scenario(
        _run_dimension,
        "box-counting dimension checks and the duality comparison",
        {
            "disk_h": 2.0**-8,
            "cantor_delta": 2.0**-6,
            "families": [
                {"n": 2, "d": 1, "beta": 1.0, "delta": 2.0**-6},
                {"n": 3, "d": 2, "beta": 1.0, "delta": 2.0**-5},
            ],
        },
        most={"beta": _BETA, "cantor_delta": _SCALE, "delta": _SCALE,
              "disk_h": (min(_DISK_BOX_SCALES), "the disk's grid step is at most its smallest box scale")},
        joint=_one_entry_per_tag("families"),
    ),
    "sharpness": Scenario(
        _run_sharpness,
        "scale exponent of the normalized norm on the parallel-plane configuration",
        {
            "grid_factor": 4,
            "configs": [
                {"n": 2, "d": 1, "beta": 1.0, "scales": [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]},
                {"n": 3, "d": 2, "beta": 1.0, "scales": [2.0**-3, 2.0**-4, 2.0**-5]},
            ],
        },
        fewest={"scales": (3, "an exponent fit needs at least 3 scales")},
        most={"beta": _BETA, "scales": _SCALE},
        joint=_one_entry_per_tag("configs"),
    ),
}


def run_scenario(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one scenario and assemble its report."""
    t0 = time.time()
    runner = SCENARIOS[cfg.scenario].runner
    values, constants, checks = runner(cfg.resolved_params(), cfg.seed)
    payload = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "name": cfg.name,
        "scenario": cfg.scenario,
        "config": asdict(cfg),
        "values": values,
        "constants": constants,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return ExperimentReport(payload=payload, wall_clock_s=time.time() - t0)


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------


def golden_dir() -> Path:
    env = os.environ.get("TUBELAB_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "goldens"


def golden_path() -> Path:
    return golden_dir() / "golden.json"


def load_golden() -> dict:
    path = golden_path()
    if not path.exists():
        raise FileNotFoundError(
            f"no golden file at {path}; run the scenarios once and freeze them with "
            "`tubelab freeze --reports <dir>` (or set TUBELAB_GOLDEN_DIR)"
        )
    return json.loads(path.read_text())


def freeze(reports: list[ExperimentReport]) -> Path:
    golden = load_golden() if golden_path().exists() else {}
    for rep in reports:
        golden[rep.payload["name"]] = rep.payload["constants"]
    golden_dir().mkdir(parents=True, exist_ok=True)
    golden_path().write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    return golden_path()


def regress(reports: list[ExperimentReport], tolerance: float = 2.0) -> tuple[bool, list[dict]]:
    """Compare recorded constants against goldens within a multiplicative factor."""
    golden = load_golden()
    rows = []
    ok = True
    for rep in reports:
        name = rep.payload["name"]
        gold = golden.get(name)
        for key, val in rep.payload["constants"].items():
            if gold is None or key not in gold:
                rows.append({"scenario": name, "constant": key, "status": "missing-golden",
                             "value": val, "golden": None, "ratio": None})
                ok = False
                continue
            ref = gold[key]
            if abs(val) < 1e-9 and abs(ref) < 1e-9:
                ratio = 1.0
            elif ref == 0 or val == 0:
                ratio = math.inf
            else:
                ratio = val / ref
            good = (1.0 / tolerance) <= ratio <= tolerance
            rows.append({"scenario": name, "constant": key, "status": "ok" if good else "drift",
                         "value": val, "golden": ref, "ratio": ratio})
            ok = ok and good
    return ok, rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_config_file(path: Path) -> list[ExperimentConfig]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object, got a {type(data).__name__}")
    extra = set(data) - {"schema", "scenarios"}
    if extra:
        raise ConfigError(f"unknown top-level config keys {sorted(extra)}")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config schema must be {CONFIG_SCHEMA!r}, got {data.get('schema')!r}")
    scenarios = data.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError("config must list at least one scenario")
    configs = [ExperimentConfig.from_dict(s) for s in scenarios]
    names = [c.name for c in configs]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"scenario names must be unique, as each names its report; repeated: {repeated}")
    return configs


def _write_report(rep: ExperimentReport, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{rep.name}.json"
    path.write_text(rep.to_json() + "\n")
    for key, val in rep.payload["values"].items():
        if key.startswith("fit_table"):
            csv_path = out_dir / f"{rep.name}.{key.split('[')[1].rstrip(']')}.csv"
            lines = ["scale,value"] + [f"{s!r},{v!r}" for s, v in val]
            csv_path.write_text("\n".join(lines) + "\n")
    return path


#: The errors tubelab raises on purpose inside a scenario: argument and size
#: checks, and procedures that stop without a certified answer.
SCENARIO_ERRORS = (ValueError, ThinningError, UncertifiedDichotomyError, BudgetError, IncompleteFamilyError,
                   MemoryError, OverflowError)


class ScenarioError(Exception):
    """A scenario stopped on one of SCENARIO_ERRORS; the message names it."""


def _with_overrides(cfg: ExperimentConfig, seed, factor) -> ExperimentConfig:
    params = dict(cfg.params)
    if factor is not None and "grid_factor" in SCENARIOS[cfg.scenario].defaults:
        params["grid_factor"] = factor
    return ExperimentConfig(cfg.name, cfg.scenario, cfg.seed if seed is None else seed, params)


def _run_one(cfg: ExperimentConfig) -> ExperimentReport:
    try:
        return run_scenario(cfg)
    except SCENARIO_ERRORS as exc:
        raise ScenarioError(f"error in scenario {cfg.name}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tubelab",
        description="desk-scale verification experiments for tube-incidence geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scenarios in a config file")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--seed", type=int, default=None, help="override every scenario seed")
    p_run.add_argument("--out", type=Path, default=Path("reports"))
    p_run.add_argument(
        "--grid-h",
        type=float,
        default=None,
        help="override the grid step of kakeya, decompose, induction and sharpness as a "
        "fraction of delta: 1/f for an integer f from 2 to 8 (e.g. 0.125 for h = delta/8); "
        "dimension always runs at delta/4 and the Loomis-Whitney check at delta/8",
    )
    p_run.add_argument("--parallel", action="store_true", help="run scenarios in processes")

    p_reg = sub.add_parser("regress", help="compare report constants against goldens")
    p_reg.add_argument("reports", nargs="+", type=Path)

    p_frz = sub.add_parser("freeze", help="write golden constants from reports")
    p_frz.add_argument("reports", nargs="+", type=Path)

    sub.add_parser("list-scenarios", help="describe available scenarios")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "list-scenarios":
        for name, sc in SCENARIOS.items():
            print(f"{name}: {sc.description}")
            print(f"  params: {json.dumps(sc.defaults, sort_keys=True)}")
        return 0

    if args.command == "run":
        try:
            configs = _load_config_file(args.config)
            factor = None if args.grid_h is None else _grid_factor(args.grid_h)
            configs = [_with_overrides(c, args.seed, factor) for c in configs]
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            if args.parallel and len(configs) > 1:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor() as pool:
                    reports = list(pool.map(_run_one, configs))
            else:
                reports = [_run_one(c) for c in configs]
        except ScenarioError as exc:
            print(exc, file=sys.stderr)
            return 2
        all_pass = True
        for rep in reports:
            path = _write_report(rep, args.out)
            status = "pass" if rep.passed else "FAIL"
            print(f"{rep.name}: {status} ({rep.wall_clock_s:.1f}s) -> {path}")
            all_pass = all_pass and rep.passed
        return 0 if all_pass else 1

    reports = []
    for path in args.reports:
        for f in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            reports.append(ExperimentReport.from_json(f.read_text()))
    if not reports:
        print("no reports found", file=sys.stderr)
        return 2

    if args.command == "freeze":
        path = freeze(reports)
        print(f"golden constants written to {path}")
        return 0

    try:
        ok, rows = regress(reports)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(
            f"{row['status']:>14s}  {row['scenario']}/{row['constant']}  "
            f"value={row['value']!r} golden={row['golden']!r} ratio={ratio}"
        )
    print("regression:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
