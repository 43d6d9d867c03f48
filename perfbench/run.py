"""Repo benchmark: slices of the paper's quick regenerators, end to end.

    python3 perfbench/run.py --workload fig8_saturation --seed 1 \
        --seconds 20 --trace 0

Runs from the root of a checkout.  Every pass of a workload runs in a
fresh interpreter (``one_pass.py``) with the campaign run cache off,
``jobs=1`` (every point in-process, nothing forks) and its results
directory under ``.perfbench_tmp/`` in the checkout, so set-up, memory
and caches are never shared between passes or workloads.

``--trace 0`` makes as many whole passes as fit in ``--seconds`` (at
least three) and prints the end-to-end metrics, each estimated with
per-call medians over the passes after rescaling every call to a
nominal host speed (``hostspeed.py``); the raw values print beside them.
``--trace 1`` makes one untraced and two traced passes without the
host-speed probe, prints the tracing overhead, the per-module table and
the per-layer metrics, and checks that every exact counter repeats
between the two traced passes.

Every simulated output is checked: at the default seed against
``reference.json`` (recorded from the regenerators), at other seeds
against invariants that hold from outside the simulator.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--record`` rewrites ``reference.json`` from the current tree at the
default seed and cross-checks it against ``results/experiments_quick.txt``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(HERE))

import crosscheck  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

#: names of the workloads, in BENCHMARK.json order; each is a function
#: of ``workloads.py``, which imports the simulator and so is imported
#: only by the pass (``one_pass.py``)
WORKLOADS = ("fig8_saturation", "fig7_lowload", "fig10_apps",
             "scenarios_replicas")
DEFAULT_SEED = 1
#: the fields of each point that must equal the reference
CHECKED = ("scheme", "pattern", "rate", "injected", "ejected",
           "avg_latency", "p99_latency", "deadlocked", "cycles")
#: fewest untraced passes per run
MIN_PASSES = 3
#: every run ends well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_rcycles_per_s": "1/s",
    "sim_pkts_per_s": "1/s",
    "point_p50_s": "s",
    "point_tail_s": "s",
    "peak_rss_mb": "MB",
}


class PassFailed(RuntimeError):
    pass


def child_env(results_dir: Path) -> dict:
    """The pass environment: the checkout's sources, the campaign layer
    isolated in ``results_dir`` with the cache off and one job."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "REPRO_CACHE": "0",
        "REPRO_JOBS": "1",
        "REPRO_RESULTS_DIR": str(results_dir),
    })
    return env


def run_pass(workload: str, seed: int, trace: int, probe: int,
             deadline: float, scratch: Path) -> dict:
    """One pass in a fresh interpreter; returns its JSON document.
    ``probe`` starts the host-speed helper (``hostspeed.py``)."""
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        out = work / "pass.json"
        cmd = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--probe", str(probe),
               "--out", str(out)]
        timeout = max(1.0, deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT,
                                  env=child_env(work / "results"),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"{workload} pass exceeded {timeout:.0f} s") \
                from exc
        if proc.returncode != 0 or not out.exists():
            raise PassFailed(f"{workload} pass exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- correctness ---------------------------------------------------------
def same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def flat_outputs(doc: dict) -> list:
    return [o for unit in doc["units"] for o in unit["outputs"]]


def invariant_errors(o: dict) -> list:
    """Checks that hold at every seed, from outside the simulator."""
    errs = []
    if o["failed"]:
        errs.append("point raised an error")
    # Closed-loop app runs deliver node-local messages without injecting
    # them, so packet conservation is checked on open-loop points only.
    if "total" not in o and o["ejected"] > o["injected"]:
        errs.append(f"ejected {o['ejected']} > injected {o['injected']}")
    if o["scheme"].lower().startswith("fastpass") and o["deadlocked"]:
        errs.append("FastPass deadlocked")
    if "total" in o and o["completed"] != o["total"]:
        errs.append(f"completed {o['completed']} of {o['total']} "
                    "transactions")
    return errs


def check_pass(doc: dict, expected: dict | None) -> list:
    """``(point index, message)`` for every point that fails a check.
    ``expected`` (``outputs`` and ``summary``) is the reference at the
    default seed; at other seeds it is the run's first pass, because
    every pass at one seed must reproduce the same outputs."""
    outs = flat_outputs(doc)
    bad = []
    for i, o in enumerate(outs):
        for msg in invariant_errors(o):
            bad.append((i, msg))
    if expected is None:
        return bad
    ref = expected["outputs"]
    for i in range(max(len(outs), len(ref))):
        if i >= len(outs) or i >= len(ref):
            bad.append((i, "point count differs from the expected "
                           f"({len(outs)} vs {len(ref)})"))
            continue
        diff = [f for f in CHECKED if not same(outs[i][f], ref[i][f])]
        if diff:
            bad.append((i, "differs from the expected in "
                           + ", ".join(f"{f}={outs[i][f]!r} "
                                       f"(expected {ref[i][f]!r})"
                                       for f in diff)))
    if json.dumps(doc["summary"], sort_keys=True) != \
            json.dumps(expected["summary"], sort_keys=True):
        bad.append((-1, "regenerator summary differs from the expected"))
    return bad


# -- metrics -------------------------------------------------------------
def pass_totals(doc: dict) -> tuple[int, int, int]:
    outs = flat_outputs(doc)
    rcycles = sum(o["cycles"] * o["routers"] for o in outs)
    delivered = sum(o["ejected"] for o in outs)
    fallbacks = sum(1 for o in outs
                    if o["engine"] and ("fallback" in o["engine"]
                                        or "demoted" in o["engine"]))
    return rcycles, delivered, fallbacks


def tail(samples: list, per_pass: int) -> tuple[float, float]:
    """``(percentile, value)`` of the tail: the highest percentile that
    leaves at least ten samples beyond it in a run of ``MIN_PASSES``
    passes, so the percentile is fixed per workload whatever the pass
    count."""
    pct = max(50.0, 100.0 * (1.0 - 10.0 / (MIN_PASSES * per_pass)))
    s = sorted(samples)
    pos = pct / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return pct, s[lo] + (s[hi] - s[lo]) * (pos - lo)


def host_factors(doc: dict) -> list:
    """Per campaign call, nominal over measured host speed: the mean of
    the host-speed probes taken just before and just after the call."""
    probes = [doc["probe_start"]] + [u["probe_after"] for u in doc["units"]]
    return [hostspeed.NOMINAL_S / (0.5 * (a + b))
            for a, b in zip(probes, probes[1:])]


def end_to_end(passes: list) -> tuple[dict, dict, str]:
    """``(normalised, raw, note)``.  Every pass runs the same points in
    the same order, so a pass's wall and set-up time are estimated call
    by call: the sum over its campaign calls of each call's median over
    the passes.  The normalised values first rescale every call to the
    nominal host speed (``hostspeed``)."""
    rcycles, delivered, _ = pass_totals(passes[0])

    def estimate(scaled: bool) -> tuple[dict, float, int]:
        per_pass = []
        for p in passes:
            f = host_factors(p) if scaled else [1.0] * len(p["units"])
            per_pass.append([(u["seconds"] * k, u["setup_s"] * k)
                             for u, k in zip(p["units"], f)])
        calls = list(zip(*per_pass))
        wall = sum(statistics.median(t for t, _ in c) for c in calls)
        setup = sum(statistics.median(s for _, s in c) for c in calls)
        points = [t for p in per_pass for t, _ in p]
        pct, tail_s = tail(points, len(passes[0]["units"]))
        return {
            "wall_s": wall,
            "setup_s": setup,
            "sim_rcycles_per_s": rcycles / wall,
            "sim_pkts_per_s": delivered / wall,
            "point_p50_s": statistics.median(points),
            "point_tail_s": tail_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
        }, pct, len(points)

    norm, pct, n = estimate(True)
    raw, _, _ = estimate(False)
    speed = statistics.median(k for p in passes for k in host_factors(p))
    note = (f"point_tail_s is p{pct:.0f} of {n} campaign calls over "
            f"{len(passes)} passes; pass walls "
            + " ".join(f"{p['wall_s']:.3f}" for p in passes)
            + f" s; host at {speed:.2f}x nominal speed")
    return norm, raw, note


def per_layer(doc: dict) -> dict:
    rcycles, delivered, fallbacks = pass_totals(doc)
    points = sum(len(u["outputs"]) for u in doc["units"])
    return tracing.layer_metrics(doc["spans"], rcycles, delivered,
                                 doc["packets_built"], fallbacks, points)


# -- runs ------------------------------------------------------------------
def load_reference(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())["workloads"][workload]


def measure(args, scratch: Path) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    t_start = time.monotonic()
    reference = load_reference(args.workload, args.seed)
    # Traced runs never rescale, so none of their passes probes.
    probe = 0 if args.trace else 1
    first = run_pass(args.workload, args.seed, 0, probe, deadline, scratch)
    untraced = [first]
    traced = []
    if args.trace:
        traced = [run_pass(args.workload, args.seed, 1, 0, deadline,
                           scratch)
                  for _ in range(2)]
    else:
        n = max(MIN_PASSES, int(args.seconds // first["wall_s"]))
        while len(untraced) < n:
            untraced.append(run_pass(args.workload, args.seed, 0, 1,
                                     deadline, scratch))
    elapsed = time.monotonic() - t_start

    attempted = failed = 0
    problems = []
    for i, doc in enumerate(untraced + traced):
        if reference is None and i:
            reference = {"outputs": flat_outputs(first),
                         "summary": first["summary"]}
        bad = check_pass(doc, reference)
        attempted += len(flat_outputs(doc))
        failed += len({idx for idx, _ in bad if idx >= 0})
        problems.extend(bad)
    correct = not problems

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced  ({elapsed:.1f} s)")
    against = ("the recorded reference" if args.seed == DEFAULT_SEED
               else "invariants and the first pass")
    print(f"checked against {against}: "
          f"{attempted} points, {failed} failed "
          f"(failed_frac {failed / max(1, attempted):.4f})")
    for i, msg in problems[:20]:
        print(f"  FAILED point {i}: {msg}")
    print("summary: " + json.dumps(first["summary"], sort_keys=True))

    if not args.trace:
        values, raw, note = end_to_end(untraced)
        print(f"  {'metric':<20}{'normalised':>16}{'raw':>16}")
        for name, v in values.items():
            print(f"  {name:<20}{v:>16.6g}{raw[name]:>16.6g} "
                  f"{END_TO_END_UNITS[name]}")
        print(f"  {note}")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        metrics, ok = traced_report(untraced[0], traced)
        correct = correct and ok
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def campaign_s(doc: dict) -> float:
    """Time inside the pass's campaign calls (the simulation work)."""
    return sum(u["seconds"] for u in doc["units"])


def traced_report(plain: dict, traced: list) -> tuple[dict, bool]:
    inside = statistics.median(campaign_s(d) for d in traced)
    print(f"tracing overhead: traced {inside:.3f} s vs untraced "
          f"{campaign_s(plain):.3f} s inside campaign calls "
          f"({inside / campaign_s(plain) - 1:+.0%})")
    print(tracing.format_report(traced[0]["spans"]))
    layers = [per_layer(d) for d in traced]
    ok = True
    metrics = {}
    for name, (unit, _better, exact, feeds) in \
            tracing.LAYER_METRICS.items():
        vals = [m[name] for m in layers]
        if exact and any(v != vals[0] for v in vals):
            ok = False
            print(f"  EXACT COUNTER MOVED {name}: {vals}")
        value = vals[0] if exact else statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<34}{value:>16.6g} {unit:<6}"
              f"{'exact' if exact else '':<7}{feeds}")
    return metrics, ok


def record(scratch: Path) -> None:
    """Rewrite reference.json at the default seed and cross-check it
    against the committed quick-mode results."""
    deadline = time.monotonic() + 3600
    ref = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS:
        doc = run_pass(w, DEFAULT_SEED, 0, 0, deadline, scratch)
        outs = flat_outputs(doc)
        for i, o in enumerate(outs):
            for msg in invariant_errors(o):
                raise SystemExit(f"{w} point {i}: {msg}")
        ref["workloads"][w] = {
            "outputs": [{f: o[f] for f in CHECKED} for o in outs],
            "summary": doc["summary"]}
        print(f"recorded {w}: {len(outs)} points in {doc['wall_s']:.1f} s")
    ref["crosscheck"] = crosscheck.against_quick_results(
        ref["workloads"], ROOT / "results" / "experiments_quick.txt")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(json.dumps(ref["crosscheck"], indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Repo benchmark over the paper's quick regenerators.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json at the default seed")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.record:
        ap.error("--workload is required")
    # A terminated run exits through SystemExit, so subprocess.run kills
    # and reaps the pass it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    compileall.compile_dir(str(SRC), quiet=1)
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        if args.record:
            record(scratch)
            return 0
        result = measure(args, scratch)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass    # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
