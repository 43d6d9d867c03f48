"""One pass of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the campaign layer isolated (run cache off, one job, results
under a temporary directory).  Writes one JSON document to ``--out``:
the pass wall time, set-up time, peak RSS, every campaign call's wall
time, set-up time and simulated outputs, the host-speed probe taken
before the first call and after each call (``--probe 1`` only; ``None``
otherwise), the workload's regenerator summary and, when traced, the
per-layer span totals.

    python3 perfbench/one_pass.py --workload fig7_lowload --seed 1 \
        --trace 0 --probe 1 --out pass.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time

import hostspeed
import tracing
import workloads
from run import WORKLOADS


def point_outputs(res, cfg) -> dict:
    """The simulated outputs of one point the benchmark checks."""
    extra = res.extra
    out = {
        "scheme": res.scheme,
        "pattern": extra.get("pattern", extra.get("benchmark")),
        "rate": extra.get("rate"),
        "injected": res.injected,
        "ejected": res.ejected,
        "avg_latency": res.avg_latency,
        "p99_latency": res.p99_latency,
        "deadlocked": res.deadlocked,
        "cycles": res.cycles,
        "routers": cfg.rows * cfg.cols,
        "failed": bool(extra.get("failed")),
        "engine": getattr(res, "engine_used", None),
    }
    if "total" in extra:
        out["completed"] = extra["completed"]
        out["total"] = extra["total"]
    return out


def measure(args, probe) -> dict:
    """Run the workload once with the pass's clocks installed."""
    from repro.network.packet import Packet

    rec = tracing.SpanRecorder()
    setup = tracing.SetupClock()
    units = []

    def on_points(call_args, results, seconds):
        cfg = call_args[1]
        units.append({"seconds": seconds,
                      "setup_s": setup.seconds - sum(u["setup_s"]
                                                     for u in units),
                      "probe_after": probe(),
                      "outputs": [point_outputs(r, cfg) for r in results]})

    if args.trace:
        tracing.install_layers(rec)
    # Outermost, so the collection the set-up clock runs before each
    # construction stays out of the ``sim.engine`` build span.
    tracing.install_coarse(rec, setup, on_points)

    workload = getattr(workloads, args.workload)
    pid0 = Packet._next_pid
    probe_start = probe()
    t0 = time.perf_counter()
    summary = workload(args.seed)
    wall = time.perf_counter() - t0
    packets_built = Packet._next_pid - pid0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": wall,
        "setup_s": setup.seconds,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "packets_built": packets_built,
        "probe_start": probe_start,
        "units": units,
        "summary": summary,
    }
    if args.trace:
        doc["spans"] = rec.acc
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", type=int, choices=(0, 1), default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    helper = (hostspeed.HostProbe() if args.probe
              else contextlib.nullcontext(lambda: None))
    with helper as probe:
        doc = measure(args, probe)
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
