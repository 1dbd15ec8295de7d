"""One phase of a workload in a fresh interpreter (started by run.py).

    python3 perfbench/phase.py --workload W --seed N --scale S \
        --store DIR --out FILE [--mode plain|count|trace --rec DIR]
    python3 perfbench/phase.py --workload W --scale S --store DIR --ready

A phase runs the workload once against ``--store``: an empty store
makes it the cold run, the store a cold run filled makes it a warm run.
The result is written to ``--out`` as JSON: the ``time.perf_counter()``
readings when the engine was ready and the workload started, and when
it ended; the result digest; the summed drive reports, cell counts
included; and peak RSS over this process and its workers.  ``--ready``
stops once the engine is built and prints that reading instead.
``--mode count`` installs the Stage-2 path counters and ``--mode trace``
the layer spans (see tracer.py).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time

from repro import obs
from repro.config import get_scale

from tracer import Tracer, install
from workloads import WORKLOADS, Engine, digest

#: Seconds to wait for pool workers to exit after the workload.
REAP_TIMEOUT_S = 30.0


def _reap_workers() -> None:
    """Wait until every worker process this phase started has exited."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            return
        time.sleep(0.01)


def _report_summary(reports) -> dict:
    """Drive-report fields summed over every drive: the cell counts and
    what the per-layer metrics read."""
    fields = ("cells", "hits", "computed", "failed", "trace_hits", "trace_misses",
              "stage1_hits", "stage1_misses", "retries", "requeued",
              "graph_nodes", "graph_loads", "graph_computes")
    return {name: sum(getattr(r, name) for r in reports) for name in fields}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out")
    parser.add_argument("--mode", choices=("plain", "count", "trace"),
                        default="plain")
    parser.add_argument("--rec")
    parser.add_argument("--ready", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scale = get_scale(args.scale)
    tracer = Tracer(args.rec or ".", spans=args.mode == "trace")
    if args.mode != "plain":
        install(tracer)
    engine = Engine.from_options(jobs=workload.jobs, cache_dir=args.store)
    start = time.perf_counter()
    if args.ready:
        print(repr(start))
        return 0

    rows = workload.run(scale, args.seed, engine, tracer)
    end = time.perf_counter()
    tracer.flush()
    _reap_workers()
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "start": start,
        "end": end,
        "digest": digest(rows),
        "pid": os.getpid(),
        "reports": _report_summary(engine.reports),
        "peak_rss_mb": peak_kib / 1024.0,
        "telemetry": obs.enabled(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
