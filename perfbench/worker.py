"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--check] [--setup-only]

Imports tubelab from ./src, builds the round's inputs and prints READY (the
parent times set-up up to that line).  It then runs every operation once,
timing the whole sequence, and prints one JSON line: wall and CPU time,
peak resident memory, a digest and any error per operation, the check
phase's discrepancies (with --check) and the layer figures (with --trace).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"


def _feed(h, obj) -> None:
    """Hash a canonical form of an operation's output."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif hasattr(obj, "payload_json"):
        h.update(obj.payload_json().encode())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    missing = tracer.install() if tracer else []

    outputs: dict[str, object] = {}
    errors: dict[str, str] = {}
    op_s: dict[str, float] = {}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            outputs[op.name] = op.run(outputs)
        except Exception:  # one failed operation must not stop the round
            outputs[op.name] = None
            errors[op.name] = traceback.format_exc(limit=-3)
        op_s[op.name] = time.perf_counter() - t
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = []
    for op in ops:
        rec = {"name": op.name, "op_s": op_s[op.name], "known_fault": op.known_fault, "error": errors.get(op.name)}
        if rec["error"] is None:
            rec["digest"] = digest(outputs[op.name])
            if args.check:
                t = time.perf_counter()
                try:
                    rec["check_errors"] = op.check(outputs[op.name], outputs)
                except Exception:
                    rec["check_errors"] = ["check raised:\n" + traceback.format_exc(limit=-3)]
                rec["check_s"] = time.perf_counter() - t
        records.append(rec)

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb, "numpy": np.__version__, "ops": records}
    if tracer:
        result["layers"] = tracer.metrics(wall)
        result["missing_hooks"] = missing
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-round{args.round}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
