"""One pass of a workload in a fresh interpreter; prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's own src/
tree.  Set-up time runs from the parent's spawn timestamp (a
CLOCK_MONOTONIC reading shared across processes) to the first task, so
it covers interpreter start, importing the package and generating the
inputs.  Module caches start cold, as in a CLI invocation, and fill
during the pass.

The host gauge (gauge.py) is read before the first task and after every
task, outside the timed intervals.  Set-up time and every task's
latency are reported both as measured and scaled to the nominal host
speed by the gauge readings on either side of them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 10


def _load_reference(workload: str, seed: str) -> dict:
    path = Path(__file__).with_name("reference.json")
    if not path.exists():
        return {}
    with open(path) as fh:
        data = json.load(fh).get(workload, {})
    return data.get(seed, data.get("*", {}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--draw", type=int, default=0,
                    help="draw inputs from the stream (seed, draw); 0 is "
                         "the seed's own inputs, which reference.json covers")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--inject-fail", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--gauge-before", type=float, required=True,
                    help="the parent's gauge reading just before the spawn")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import cyclohecke

    src = (ROOT / "src").resolve()
    if src not in Path(cyclohecke.__file__).resolve().parents:
        print(f"cyclohecke imported from {cyclohecke.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from gauge import gauge, scaled

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(workloads)
        workloads.digest = tracer.wrap(workloads.digest, "cli.serialize",
                                       "cli.serialize", True)

    seed = str(args.seed) if args.draw == 0 else f"{args.seed}.{args.draw}"

    def build():
        tasks = workloads.build_tasks(args.workload, seed, args.size)
        if args.inject_fail:
            tasks += workloads.injected_failures()
        return tasks

    tasks = tracer.span("setup", build) if tracer else build()
    perf = time.perf_counter
    raw_setup_s = time.monotonic() - args.spawned_at
    gauges = [gauge()]
    setup_s = scaled(raw_setup_s, args.gauge_before, gauges[0])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    results = []
    for task in tasks:
        t0 = perf()
        try:
            if tracer:
                out = tracer.span(f"task.{task.kind}", task.run)
            else:
                out = task.run()
            results.append((task, perf() - t0, out, None))
        except Exception as exc:  # a failing task must not end the pass
            # keep no traceback: its frames would hold the task's data
            # and inflate peak_rss_mb
            refusal = isinstance(exc, cyclohecke.InputDataError)
            results.append((task, perf() - t0, None,
                            (type(exc).__name__, str(exc), refusal)))
        gauges.append(gauge())
    raw_latencies = [lat for _, lat, _, _ in results]
    latencies = [scaled(lat, gauges[i], gauges[i + 1])
                 for i, lat in enumerate(raw_latencies)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = _load_reference(args.workload, seed)
    failed = incorrect = refused = 0
    failures, kinds, digests = [], {}, {}
    for task, _, out, exc in results:
        why = None
        wrong = False
        if exc is None:
            digests[task.id] = out
            want = reference.get(task.id)
            if want is not None and want != out:
                why, wrong = f"digest {out} != reference {want}", True
        else:
            kind, message, refusal = exc
            kinds[kind] = kinds.get(kind, 0) + 1
            why = f"{kind}: {message}"
            # anything but a typed refusal of the input (exit code 4 at
            # the CLI), or a refusal of a task that has a reference
            # result, is a wrong answer
            wrong = not refusal or task.id in reference
        if why is None:
            continue
        # a typed refusal is the program's stated answer for an input it
        # cannot handle (ROADMAP item 3): it counts in failed_frac but is
        # kept apart from the tasks that fail by crashing or by a wrong
        # result
        if exc is not None and not wrong:
            refused += 1
        else:
            failed += 1
        incorrect += wrong
        if len(failures) < MAX_REPORTED_FAILURES:
            failures.append({"task": task.id, "why": why[:300]})

    report = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw_latencies),
        "gauge_median_s": sorted(gauges)[len(gauges) // 2],
        "latencies_s": latencies,
        "attempted": len(results),
        "failed": failed,
        "refused": refused,
        "incorrect": incorrect,
        "failure_kinds": kinds,
        "failures": failures,
        "reference_checked": sum(1 for t in digests if t in reference),
        "peak_rss_mb": rss_mb,
        "digests": digests,
    }
    if tracer:
        report["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
