"""The benchmark's workloads: slices of the paper's quick regenerators.

Each workload drives the regenerators' public building blocks
(``saturation_throughput``, ``cached_sweep_latency``, ``cached_app``,
``Point.make_scenario``) exactly as the regenerator does, with the
benchmark seed carried into the simulation inputs.  Seed 1 (``run.py``'s
``DEFAULT_SEED``) reproduces the regenerators' own inputs, so at that
seed every simulated output equals the recorded reference
(``reference.json``).  Each workload is the function of the same name.

A workload returns its regenerator-level summary (the numbers the figure
prints); the per-point outputs are collected by the pass runner at the
campaign boundary.
"""

from __future__ import annotations

from repro.experiments.common import (
    FIG7_SCHEMES,
    FIG8_SCHEMES,
    FIG10_SCHEMES,
    cached_app,
    cached_point,
    cached_points,
    cached_sweep_latency,
    mean_result,
    synthetic_config,
)
from repro.scenario.spec import get_scenario
from repro.sim.parallel import Point
from repro.sim.runner import saturation_throughput

#: fig8 cells run: mesh side -> scheme labels.  SWAP and FastPass on
#: 4x4 carry the figure's "FastPass over SWAP" comparison; FastPass on
#: 8x8 is the saturated case where the SoA engine is measured to win.
#: The other seven cells would more than double the run.
FIG8_CELLS = {4: ("SWAP", "FastPass"), 8: ("FastPass",)}
FIG7_RATES = (0.02, 0.06, 0.10)
FIG10_APPS = ("Canneal", "FFT")
SCENARIO_NAMES = ("mixed_lanes", "ramp")
SCENARIO_SCHEMES = [
    ("FastPass", "fastpass", {"n_vcs": 4}),
    ("EscapeVC", "escapevc", {}),
]
SWEEP_SCENARIO = "mixed_lanes"
SWEEP_SCALES = (0.5, 1.25)


def fig8_saturation(seed: int) -> dict:
    """Fig. 8 quick: transpose saturation bisection (lo=0.01, hi=0.4,
    4 iterations) for SWAP and FastPass on 4x4, then for FastPass on
    8x8."""
    table = {}
    for n, labels in FIG8_CELLS.items():
        cfg = synthetic_config(True, rows=n, cols=n).with_(seed=seed)
        column = table[f"{n}x{n}"] = {}
        for label, name, kwargs in FIG8_SCHEMES:
            if label in labels:
                column[label] = saturation_throughput(
                    name, "transpose", cfg, lo=0.01, hi=0.4, iters=4,
                    run_point_fn=lambda rate: cached_point(
                        name, kwargs, "transpose", rate, cfg))
    return {"saturation": table}


def fig7_lowload(seed: int) -> dict:
    """Fig. 7 quick, transpose on 8x8 at the free-flowing rates, all
    eight schemes (with the regenerator's early-stop rule)."""
    cfg = synthetic_config(True).with_(seed=seed)
    series = {}
    for label, name, kwargs in FIG7_SCHEMES:
        results = cached_sweep_latency(name, kwargs, "transpose",
                                       list(FIG7_RATES), cfg)
        series[label] = [[r.extra["rate"], r.avg_latency]
                         for r in results]
    return {"pattern": "transpose", "series": series}


def fig10_apps(seed: int) -> dict:
    """Fig. 10 quick on 4x4: closed-loop coherence runs of two
    applications under all eight application schemes (Canneal carries
    the stale DRAIN cell of the committed results)."""
    latency = {}
    cycles = {}
    for bench in FIG10_APPS:
        latency[bench] = {}
        cycles[bench] = {}
        for label, name, kwargs in FIG10_SCHEMES:
            res = cached_app(name, kwargs, bench, True, seed=seed)
            latency[bench][label] = res.avg_latency
            cycles[bench][label] = res.cycles
    return {"latency": latency, "cycles": cycles}


def scenarios_replicas(seed: int) -> dict:
    """The ``scenarios`` quick regenerator's seed-replicated scenario
    points (two replicas per point, run as one lock-step replica batch)
    followed by the quick ``scenarios sweep`` of mixed_lanes at two
    scales.  Only specs whose work barely depends on the seed are kept:
    mixed_lanes and ramp build within 3% of the same packet count at
    every seed, bursty's on-off bursts swing it by 10%, hotspot_shift
    and ramp above 1.0x saturate (drains of 2k-3.5k cycles by seed)."""
    cfg = synthetic_config(True)
    seeds = [seed, seed + 1]
    rows = []
    for name in SCENARIO_NAMES:
        spec = get_scenario(name)
        for label, scheme, kwargs in SCENARIO_SCHEMES:
            rows.append(_scenario_row(spec, scheme, kwargs, seeds, cfg,
                                      f"{name}/{label}"))
    spec = get_scenario(SWEEP_SCENARIO)
    for label, scheme, kwargs in SCENARIO_SCHEMES:
        for factor in SWEEP_SCALES:
            rows.append(_scenario_row(spec.scaled(factor), scheme, kwargs,
                                      seeds, cfg,
                                      f"sweep {factor:g}/{label}"))
    return {"rows": rows}


def _scenario_row(spec, scheme, kwargs, seeds, cfg, tag) -> list:
    points = [Point.make_scenario(scheme, spec, seed=s, **kwargs)
              for s in seeds]
    res = mean_result(cached_points(points, cfg))
    return [tag, res.avg_latency, res.ejected]

