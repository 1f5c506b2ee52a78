"""One benchmark process: ``setup`` writes a workload's inputs, ``solve`` runs its job.

Both phases run in fresh interpreters started by ``run.py``, so set-up can be
timed several times and each workload's peak memory is its own.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py solve --workload W --seed N --dir D --seconds S --trace 0|1

Each prints one JSON object on its last line of standard output.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import gen
import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

# Other tenants of the host change its speed by tens of percent in phases of
# seconds to minutes.  Every timing is therefore taken next to a fixed
# pure-Python reference workload, and run.py reports it at the speed the host
# has when the reference takes REFERENCE_S: seconds * REFERENCE_S / reference
# time.  The reference mixes the kinds of work roleblock does (an interpreter
# loop, tuples hashed into a growing dict, sorting, JSON) so that it slows down
# with the program whether the cores or the caches are contended, and it holds
# under a MiB so that it does not set the peak memory.
REFERENCE_S = 0.1


def reference_s():
    """Time of the fixed reference workload: the host's speed at this moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(14):
        counts = {}
        for i in range(2_000):
            key = ((i * 7919) % 4099, i % 7)
            counts[key] = counts.get(key, 0) + 1
        acc += len(json.loads(json.dumps(sorted(counts.items()))))
    return time.perf_counter() - t0


def import_roleblock():
    """Import the library from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "roleblock" / "__init__.py").is_file():
        raise SystemExit(f"no roleblock sources under {src}")
    sys.path.insert(0, str(src))
    import roleblock
    import roleblock.cli

    if Path(roleblock.__file__).resolve().parent != (src / "roleblock").resolve():
        raise SystemExit(f"imported roleblock from {roleblock.__file__}, not from {src}")
    return roleblock


def setup(args):
    before = reference_s()
    t0 = time.perf_counter()
    import_roleblock()
    files, manifest = gen.generate(args.workload, args.seed)
    os.makedirs(args.dir, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(args.dir, name), "wb") as fh:
            fh.write(data)
    with open(os.path.join(args.dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    elapsed = time.perf_counter() - t0
    reference = (before + reference_s()) / 2
    return {"setup_s": elapsed, "reference_s": reference, "inputs": gen.inputs_digest(files, manifest), "work": manifest["work"]}


def _repetition(rb, lib, job, manifest, recorded):
    """One run of the job; returns the time spent inside roleblock and the ops."""
    ops = jobs.Ops(rb, lib, recorded)
    job(ops, manifest)
    return ops.busy_s, ops


def solve(args):
    os.chdir(args.dir)
    rb = import_roleblock()
    with open("manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    recorded = {}
    if args.seed == gen.DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text())[args.workload]
    job = jobs.JOBS[args.workload]
    plain = tracing.untraced(rb)
    tracer = tracing.Tracer(rb) if args.trace else None
    traced = tracer.direct() if tracer else None

    untimed, timed, references = [], [], []
    all_ops = []
    layers = []
    trace_out = []
    fired = set()
    start = time.perf_counter()
    before = reference_s()
    while True:
        step_start = time.perf_counter()
        dt, ops = _repetition(rb, plain, job, manifest, recorded)
        after = reference_s()
        untimed.append(dt)
        references.append((before + after) / 2)
        all_ops.append(ops)
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                dt, ops = _repetition(rb, traced, job, manifest, recorded)
            finally:
                tracer.uninstall()
            timed.append(dt)
            all_ops.append(ops)
            layers.append(tracing.layer_metrics(tracer.spans, tracer.hot))
            fired |= tracing.fired(tracer.spans, tracer.hot)
            trace_out.append({"spans": tracer.spans, "hot": [[p, n, c, s] for (p, n), (c, s) in tracer.hot.items()]})
            after = reference_s()
        before = after
        now = time.perf_counter()
        if now - start + (now - step_start) > args.seconds:
            break

    result = {
        "reps": untimed,
        "references": references,
        "attempted": sum(o.attempted for o in all_ops),
        "crashed": [m for o in all_ops for m in o.crashed],
        "wrong": [m for o in all_ops for m in o.wrong],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    outputs = {o.outputs.hexdigest() for o in all_ops}
    if len(outputs) != 1:
        result["attempted"] += 1
        result["wrong"].append("repetitions (traced or not) produced different outputs")
    if tracer:
        missing = [name for name in tracing.EXPECTED[args.workload] if name not in fired]
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(trace_out, fh)
        if missing:
            raise SystemExit(f"traced run: expected spans never fired: {', '.join(missing)}")
        per_layer = {name: statistics.median_low(rep[name] for rep in layers) for name in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(timed) - statistics.median(untimed)
        result["per_layer"] = per_layer
        result["traced_reps"] = timed
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("phase", choices=["setup", "solve"])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = setup(args) if args.phase == "setup" else solve(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
