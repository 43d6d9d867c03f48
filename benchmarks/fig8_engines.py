"""Active-set vs SoA engine on the Fig. 8 quick saturation probes.

Replays the transpose saturation bisection of Fig. 8 quick (lo=0.01,
hi=0.4, 4 iterations) for SWAP and FastPass on 4x4 and FastPass on 8x8
— the same probe rates the regenerator visits — and times every probe
under ``engine="active"`` and ``engine="soa"``, alternating the order
per repeat.  Each probe's results must be bit-identical across engines.
Prints one row per probe (best-of-N seconds per engine, active/soa
speed ratio, the engine the SoA request actually ran) and the sums.

    PYTHONPATH=src python benchmarks/fig8_engines.py [--repeats 3] [--seed 1]

This answers whether a per-point engine selection rule could speed up
the figure end to end: only probes where SoA is faster could gain.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro.experiments.common import FIG8_SCHEMES, synthetic_config
from repro.sim.runner import run_point, saturation_throughput
from repro.schemes import get_scheme

#: mesh side -> scheme labels (a slice of the figure's ten cells)
CELLS = {4: ("SWAP", "FastPass"), 8: ("FastPass",)}


def probe_rates(name: str, kwargs: dict, cfg) -> list[float]:
    """The rates the bisection visits, in order."""
    rates = []

    def record(rate):
        rates.append(rate)
        return run_point(get_scheme(name, **kwargs), "transpose", rate, cfg)

    saturation_throughput(name, "transpose", cfg, lo=0.01, hi=0.4, iters=4,
                          run_point_fn=record)
    return rates


def _timed(name, kwargs, rate, cfg):
    t0 = time.perf_counter()
    res = run_point(get_scheme(name, **kwargs), "transpose", rate, cfg)
    return time.perf_counter() - t0, res


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    print(f"{'mesh':>5} {'scheme':>9} {'rate':>8} {'active s':>9} "
          f"{'soa s':>7} {'ratio':>6}  soa engine")
    tot = {"active": 0.0, "soa": 0.0}
    for n, labels in CELLS.items():
        base = synthetic_config(True, rows=n, cols=n).with_(seed=args.seed)
        for label, name, kwargs in FIG8_SCHEMES:
            if label not in labels:
                continue
            for rate in probe_rates(name, kwargs, base):
                best = {"active": float("inf"), "soa": float("inf")}
                out = {}
                for rep in range(args.repeats):
                    order = ("active", "soa") if rep % 2 == 0 \
                        else ("soa", "active")
                    for eng in order:
                        dt, res = _timed(name, kwargs, rate,
                                         base.with_(engine=eng))
                        best[eng] = min(best[eng], dt)
                        out[eng] = res
                a, s = out["active"], out["soa"]
                for f in dataclasses.fields(a):
                    va, vs = getattr(a, f.name), getattr(s, f.name)
                    if va != vs and not (va != va and vs != vs):
                        raise SystemExit(
                            f"result drift at {label} {n}x{n} @{rate}: "
                            f"{f.name} active={va!r} soa={vs!r}")
                tot["active"] += best["active"]
                tot["soa"] += best["soa"]
                print(f"{n}x{n:<3} {label:>9} {rate:8.5f} "
                      f"{best['active']:9.3f} {best['soa']:7.3f} "
                      f"{best['active'] / best['soa']:6.2f}  "
                      f"{s.engine_used}", flush=True)
    print(f"total: active {tot['active']:.2f} s, soa {tot['soa']:.2f} s, "
          f"ratio {tot['active'] / tot['soa']:.2f}")


if __name__ == "__main__":
    main()
