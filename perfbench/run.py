"""Benchmark of the roleblock library and CLI on four seeded workloads.

    python3 perfbench/run.py --workload roles-graph --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The run sets up the workload's inputs in
several fresh processes (timing each), then runs the job in one more fresh
process in a closed loop for ``--seconds``: one thread, each command starting
when the previous one returned.  It prints each metric by name with its unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  ``failed`` counts every
operation that did not succeed; ``correct`` is false when one of them returned
a wrong output, and stays true when they only raised.  Metric names and units
are those of ``BENCHMARK.json`` at the root of the checkout.

``solve_s`` is the time one repetition of the job spends inside roleblock (the
output checks are not counted), ``setup_s`` the time to import roleblock,
generate the inputs and write them.  Both are reported at reference speed: each
timing is scaled by ``worker.REFERENCE_S`` over the time a fixed pure-Python
loop took next to it, which takes out most of the host's drift in speed.  The
times as measured are printed too.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
SETUPS = 5


class BenchError(Exception):
    pass


def _worker(phase, workload, seed, work, *extra, timeout):
    argv = [sys.executable, str(WORKER), phase, "--workload", workload, "--seed", str(seed), "--dir", str(work)]
    proc = subprocess.run(argv + list(extra), capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{phase} of {workload} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def _percentile_note(samples):
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return "no percentile has ten samples beyond it"
    cut = statistics.quantiles(samples, n=100, method="inclusive")[best - 1]
    return f"p{best} {cut:.4f} s"


def units(kind):
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def run(workload, seed, seconds, trace):
    work = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setups = [_worker("setup", workload, seed, work, timeout=120) for _ in range(SETUPS)]
        if len({s["inputs"] for s in setups}) != 1:
            raise BenchError("set-up is not deterministic: the same seed gave different inputs")
        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        solved = _worker("solve", workload, seed, work, *extra, timeout=seconds + 150)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, solved


def report(workload, seed, trace, setups, solved):
    reps = solved["reps"]
    failed = len(solved["crashed"]) + len(solved["wrong"])
    attempted = solved["attempted"]
    print(f"workload: {workload} seed {seed}")
    print(f"work: {json.dumps(setups[0]['work'], sort_keys=True)}")
    for message in sorted(set(solved["crashed"] + solved["wrong"]))[:10]:
        print(f"failed: {message}")
    if trace:
        metrics = {name: {"value": solved["per_layer"][name], "unit": unit} for name, unit in units("per_layer").items()}
        print(f"traced repetitions: {len(solved['traced_reps'])}, untraced: {len(reps)}")
        for name, m in metrics.items():
            print(f"{name}: {m['value']} {m['unit']}")
    else:
        scaled = [r * worker.REFERENCE_S / ref for r, ref in zip(reps, solved["references"])]
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * worker.REFERENCE_S / s["reference_s"] for s in setups),
            "solve_s": statistics.median(scaled),
            "peak_rss_mib": solved["peak_rss_mib"],
            "ok_ratio": 1 - failed / attempted,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units("end_to_end").items()}
        timed = " ".join(f"{s['setup_s']:.4f}" for s in setups)
        print(f"setup_s: {metrics['setup_s']['value']:.4f} s (median of {len(setups)} set-ups, "
              f"at reference speed; as timed: {timed} s)")
        print(f"solve_s: {metrics['solve_s']['value']:.4f} s (median of {len(reps)} repetitions, "
              f"at reference speed; {_percentile_note(scaled)})")
        print(f"solve_s as timed: median {statistics.median(reps):.4f} s; repetitions "
              f"{' '.join(f'{r:.4f}' for r in reps)}")
        print(f"reference_s (REFERENCE_S {worker.REFERENCE_S} at reference speed): "
              f"{' '.join(f'{r:.4f}' for r in solved['references'])}")
        print(f"peak_rss_mib: {metrics['peak_rss_mib']['value']:.1f} MiB")
        print(f"ok_ratio: {metrics['ok_ratio']['value']:.6f} (fail_ratio {failed / attempted:.6f}: "
              f"{failed} of {attempted} operations failed)")
    result = {"correct": not solved["wrong"], "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roleblock" / "__init__.py").is_file():
        print(f"error: no roleblock sources under {ROOT / 'src'}; run from a roleblock checkout", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    try:
        setups, solved = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, setups, solved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
