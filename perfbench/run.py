"""Benchmark entry point for tubelab, run from the root of a checkout.

    python3 perfbench/run.py --workload sharpness --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each round of a workload runs in a fresh worker process (perfbench/worker.py),
so no state survives from one round to the next and every round pays the
costs a user's `tubelab run` pays.  Rounds repeat until the measured time
reaches --seconds; the first round also runs the check phase.  An operation
fails when it raises, when its output fails a check, or when its output
differs from the first round's.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Details of every round
and the machine facts go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sharpness", "transversality", "linespace")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

#: Set-up is timed this many times per run (rounds plus set-up-only starts).
SETUPS = 5
#: No round starts after this many seconds unless the minimum is not yet met;
#: every run must end within 180 s.
ROUND_BUDGET_S = 120.0
#: A worker that has not finished after this long is killed.
WORKER_TIMEOUT_S = 160.0
#: BLAS pools are pinned to one thread (at most nproc): the work is small
#: matrices driven from Python, and one thread keeps a shared box steady.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def _start_worker(args: list[str]) -> tuple[subprocess.Popen, threading.Timer, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=_worker_env(),
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    return proc, watchdog, t0


def _finish(proc: subprocess.Popen, watchdog: threading.Timer) -> str:
    try:
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return rest


def run_round(workload: str, seed: int, index: int, traced: bool, check: bool) -> dict:
    flags = ["--workload", workload, "--seed", str(seed), "--round", str(index)]
    flags += ["--trace"] * traced + ["--check"] * check
    proc, watchdog, t0 = _start_worker(flags)
    first = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    rest = _finish(proc, watchdog)
    if first.strip() != "READY" or not rest.strip():
        raise BenchError(f"round {index} of {workload} produced no result")
    result = json.loads(rest.strip().splitlines()[-1])
    result.update(setup_s=setup_s, traced=traced)
    return result


def time_setup(workload: str, seed: int) -> float:
    proc, watchdog, t0 = _start_worker(["--workload", workload, "--seed", str(seed), "--setup-only"])
    first = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    _finish(proc, watchdog)
    if first.strip() != "READY":
        raise BenchError(f"set-up of {workload} did not complete")
    return setup_s


def account(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, unexpected failures) over all rounds.

    The first round's checked outputs are the reference: a later round's
    operation fails if it raises, if its digest differs, or if the
    reference output failed its checks.
    """
    reference: dict[str, tuple[str | None, bool]] = {}
    attempted = failed = 0
    unexpected = []
    for i, rnd in enumerate(rounds):
        for rec in rnd["ops"]:
            attempted += 1
            name = rec["name"]
            if i == 0:
                bad = bool(rec["error"] or rec.get("check_errors"))
                reference[name] = (rec.get("digest"), bad)
                for line in ([rec["error"]] if rec["error"] else []) + rec.get("check_errors", []):
                    print(f"[{name}] {line}", file=sys.stderr)
            else:
                ref_digest, ref_bad = reference[name]
                bad = bool(rec["error"]) or rec.get("digest") != ref_digest or ref_bad
                if rec["error"] or rec.get("digest") != ref_digest:
                    print(f"[{name}] round {i}: output differs from round 0", file=sys.stderr)
            if bad:
                failed += 1
                if not rec["known_fault"]:
                    unexpected.append(f"round {i}: {name}")
    return attempted, failed, unexpected


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds: list[dict] = []
    start = time.perf_counter()
    measured = 0.0
    while True:
        index = len(rounds)
        rnd = run_round(workload, seed, index, traced=trace and index % 2 == 1, check=index == 0)
        rounds.append(rnd)
        measured += rnd["wall_s"]
        minimum_met = not trace or len(rounds) >= 2
        if minimum_met and measured >= seconds:
            break
        slowest = max(r["wall_s"] + r["setup_s"] for r in rounds)
        if minimum_met and time.perf_counter() - start + slowest > ROUND_BUDGET_S:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUPS:
        setups.append(time_setup(workload, seed))

    attempted, failed, unexpected = account(rounds)
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    units = dict(PER_LAYER if trace else END_TO_END)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(rounds[0]["numpy"]),
        "rounds": rounds,
        "setups_s": setups,
        "unexpected_failures": unexpected,
        "missing_hooks": sorted({h for r in rounds for h in r.get("missing_hooks", [])}),
        "result": {
            "correct": not unexpected,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return record


def machine_facts(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "platform": platform.platform(),
    }


def summarize(record: dict) -> None:
    res = record["result"]
    m = record["machine"]
    print(
        f"{record['workload']}: {len(record['rounds'])} rounds, attempted {res['attempted']}, "
        f"failed {res['failed']}, correct {res['correct']} "
        f"(nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, BLAS threads {BLAS_THREADS})"
    )
    for name, v in res["metrics"].items():
        print(f"  {name:38s} {v['value']:14.6g} {v['unit']}")
    for hook in record["missing_hooks"]:
        print(f"  hook not installed: {hook}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tubelab" / "__init__.py").is_file():
        print(f"error: no tubelab sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        summarize(record)
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
