"""The attributes that perfbench/spans.py wraps in a traced run still exist.

A traced run skips a hook whose target is gone, and a counter reads call
arguments by parameter name and result attributes by attribute name, so a
rename in tubelab would silently blind it.  These tests read the hook table
and call its counters directly, without installing any wrapper.  A `cli`
target must also be looked up when its scenario calls it: each one is
replaced by a counting wrapper, which a small run of its scenario must call.
"""

import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: Parameters each counter reads from the wrapped call's arguments.
COUNTER_ARGS = {
    "_count_raster_build": ("F", "grid"),
    "_count_thin": ("max_attempts",),
    "_count_random": ("n", "d", "beta", "delta", "seed", "size_cap"),
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    return _spans().HOOKS


def _resolve(target):
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"tubelab.{module_name}")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def test_every_hook_target_resolves():
    missing = [t for _, targets, _ in _hooks() for t in targets if not callable(_resolve(t))]
    assert missing == []


def test_counted_arguments_are_parameters():
    absent = []
    for _, targets, counter in _hooks():
        if counter is None:
            continue
        reads = COUNTER_ARGS.get(counter.__name__)
        if reads is None:
            assert "args[" not in inspect.getsource(counter), counter.__name__
            continue
        for target in targets:
            params = inspect.signature(_resolve(target)).parameters
            absent += [(target, name) for name in reads if name not in params]
    assert absent == []


def _tiny_calls():
    """Arguments of one call of each counted function, on a tiny input."""
    from tubelab.concentration import BallNet, IncrementalBallCounter, _line_arrays
    from tubelab.dichotomy import DirectionMultiset
    from tubelab.functionals import Grid
    from tubelab.generators import gen_lines_in_planes
    from tubelab.linegeom import Direction, Line

    delta = 2.0**-3
    F = gen_lines_in_planes(2, 1, 1.0, delta)
    grid = Grid.for_family(F, 4)
    # Parallel lines 4 delta apart satisfy the ball condition, so thinning succeeds.
    ldelta = 2.0**-5
    lines = [Line(Direction([1.0, 0.0]), [0.0, (i - 3.5) * 4.0 * ldelta]) for i in range(8)]
    net = BallNet.build(2, ldelta)
    feet, dirs = _line_arrays(lines)
    return {
        "functionals.rasterize_tube": (grid, F.tubes[0]),
        "functionals.FamilyRaster.build": (F, grid),
        "functionals.multilinear_cell_values": ([F, F], grid),
        "functionals.coarsen_to_rho_tubes": (F, 0.5),
        "concentration.BallNet.candidate_keys": (net, ldelta, feet, dirs),
        "concentration.BallNet.scan": (net, ldelta, feet, dirs),
        "concentration.random_thin": (lines, 2.0, 1.0, 0.0, ldelta, 0, net, 1, 1.0),
        "concentration.IncrementalBallCounter.try_add": (IncrementalBallCounter(net, ldelta, 1, 1.0), lines[0]),
        "generators.gen_random_nonconcentrated": (2, 1, 1.0, delta),
        "dichotomy.decide_dichotomy": (DirectionMultiset(np.eye(2)), 2, 0.3),
    }


#: Counters a tiny input leaves at zero: a small family takes the per-tube
#: raster path, not the dense one.
ZERO_ON_TINY_INPUT = {"functionals.raster_dense_builds"}


def test_every_counter_reads_a_real_result():
    spans = _spans()
    calls = _tiny_calls()
    for _, targets, counter in spans.HOOKS:
        if counter is None:
            continue
        fn = _resolve(targets[0])
        args = calls[targets[0]]
        counters, sets = defaultdict(float), defaultdict(set)
        result = fn(*args)
        counter(counters, sets, spans._Arguments(inspect.signature(fn), args, {}), result, None)
        assert counters or sets, targets[0]
        bumped = {k: v for k, v in counters.items() if k not in ZERO_ON_TINY_INPUT}
        assert all(v > 0 for v in bumped.values()), (targets[0], dict(counters))
        assert all(sets.values()), (targets[0], dict(sets))


def test_dense_build_counter_reads_a_field_only_build(monkeypatch):
    """A family above PER_TUBE_LIMIT keeps no runs (`tube_cells is None`),
    which the dense build counter reads."""
    from tubelab import functionals

    spans = _spans()
    target = "functionals.FamilyRaster.build"
    counter = next(c for _, targets, c in spans.HOOKS if targets[0] == target)
    args = _tiny_calls()[target]
    monkeypatch.setattr(functionals, "PER_TUBE_LIMIT", len(args[0]) - 1)
    fn = _resolve(target)
    counters, sets = defaultdict(float), defaultdict(set)
    counter(counters, sets, spans._Arguments(inspect.signature(fn), args, {}), fn(*args), None)
    assert counters["functionals.raster_dense_builds"] == 1


#: A small config of the scenario that reaches each `cli` attribute in the
#: hook table: (scenario, params).
CLI_HOOK_CONFIGS = {
    "worst_ratio_of_lines": ("thin", {"n_lines": 16, "delta": 2.0**-6, "seeds": 1, "binomial_trials": 10}),
    "random_thin": ("thin", {"n_lines": 16, "delta": 2.0**-6, "seeds": 1, "binomial_trials": 10}),
    "gen_lines_in_planes": ("sharpness", {"configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": [0.25, 0.125, 0.0625]}]}),
    "exponent_fit_norms": ("sharpness", {"configs": [{"n": 2, "d": 1, "beta": 1.0, "scales": [0.25, 0.125, 0.0625]}]}),
    "decide_dichotomy": ("dichotomy", {"trials": 8}),
    "verify_option_a": ("dichotomy", {"trials": 8}),
    "verify_option_b": ("dichotomy", {"trials": 8}),
    "control_card_ratio": ("dichotomy", {"trials": 8}),
    "holder_comparison": ("dimension", {"disk_h": 2.0**-5, "families": [{"n": 2, "d": 1, "beta": 1.0, "delta": 0.125}]}),
    "box_counting_dim": ("dimension", {"disk_h": 2.0**-5, "families": [{"n": 2, "d": 1, "beta": 1.0, "delta": 0.125}]}),
    "mk_ratio": ("kakeya", {"deltas": [0.0625], "members": ["bush-n2"]}),
    "decompose_constant": ("decompose", {"deltas": [0.0625], "members": ["bush-n2"]}),
    "induction_constant": ("induction", {"deltas": [0.0625], "members": ["bush-n2"]}),
}


def _cli_targets():
    return sorted({t.split(".", 1)[1] for _, targets, _ in _hooks() for t in targets if t.startswith("cli.")})


def test_every_cli_hook_target_has_a_config():
    assert _cli_targets() == sorted(CLI_HOOK_CONFIGS)


@pytest.mark.parametrize("name", _cli_targets())
def test_cli_hook_target_is_looked_up_at_call_time(monkeypatch, name):
    """A traced run replaces `cli.<name>`; its scenario must call the
    replacement, which a name bound early (a default argument, a partial, an
    alias made at import) would bypass."""
    from tubelab import cli

    original, calls = getattr(cli, name), []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    scenario, params = CLI_HOOK_CONFIGS[name]
    cli.run_scenario(cli.ExperimentConfig(f"hook-{name}", scenario, 0, params))
    assert calls
