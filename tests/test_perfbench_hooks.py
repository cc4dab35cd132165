"""The attributes that perfbench/spans.py wraps in a traced run still exist.

A traced run skips a hook whose target is gone, and a counter reads call
arguments by parameter name, so a rename in tubelab would silently blind
it.  These tests read the hook table without installing any wrapper.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: Parameters each counter reads from the wrapped call's arguments.
COUNTER_ARGS = {
    "_count_raster_build": ("F", "grid"),
    "_count_thin": ("max_attempts",),
    "_count_random": ("n", "d", "beta", "delta", "seed", "size_cap"),
}


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


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
