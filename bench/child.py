"""The measured process of an in-process workload.

Reads ``{"plan", "seconds", "trace", "setup_only"}`` as JSON on stdin.
Set-up is the import of ``kp_rankone`` plus building the plan's inputs
through the program; then one untimed warm-up round, then whole rounds
until ``seconds`` of wall time have passed. Set-up and operations are
timed in CPU seconds of this process (it runs one thread), each paired
with a pass of the calibration loop (``calibrate.py``) right after it.
Prints one JSON object: the set-up time,
per-operation durations of the timed rounds, every distinct output of
every operation with how often it occurred, the peak resident set, and
with tracing the per-layer counters.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)
    plan = job["plan"]
    t0 = time.process_time()
    import kp_rankone  # noqa: F401  (timed: the user pays this import)

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import ops

    triples = [ops.build_input(spec) for spec in plan["inputs"]]
    setup_s = time.process_time() - t0
    import calibrate

    setup_cal = None if tracer else calibrate.loop_seconds(reps=5)
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "setup_cal": setup_cal}))
        return
    setup_trace = tracer.snapshot() if tracer else None

    n_ops = len(plan["ops"])
    seen = [dict() for _ in range(n_ops)]
    durations = [[] for _ in range(n_ops)]
    per_kind = {}

    def one_round(timed: bool) -> None:
        for i, op in enumerate(plan["ops"]):
            before = tracer.snapshot() if tracer else None
            start = time.process_time()
            try:
                out = ops.run_op(op, triples)
            except Exception as exc:  # reported as a failed operation
                out = {"error": f"{type(exc).__name__}: {exc}"}
            elapsed = time.process_time() - start
            if timed:
                durations[i].append(elapsed)
                if tracer:
                    acc = per_kind.setdefault(op["op"], {})
                    for k, v in tracer.snapshot().items():
                        acc[k] = acc.get(k, 0.0) + v - before.get(k, 0.0)
            key = json.dumps(out)
            seen[i][key] = seen[i].get(key, 0) + 1

    one_round(timed=False)
    if tracer:
        tracer.reset()
    rounds = 0
    cal = []
    begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begin < job["seconds"]:
        one_round(timed=True)
        if not tracer:  # the tracer would count the loop's LAPACK calls
            cal.append(calibrate.loop_seconds())
        rounds += 1
    result = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "rounds": rounds,
        "cal": cal,
        "durations": durations,
        "outputs": [[[json.loads(k), c] for k, c in s.items()] for s in seen],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = {"setup": setup_trace, "timed": tracer.snapshot(), "per_kind": per_kind}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
