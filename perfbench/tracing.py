"""Outside-in spans around the packages' public entry points.

The benchmark never edits the simulator: it replaces a handful of public
methods on their classes with timing wrappers before the first
simulation is built.  Every wrapper shares one span stack, so each
layer's *self* time is its inclusive time minus the time of the wrapped
calls it made.  Per-cycle calls (millions of ``Router.step``) are
aggregated as a call count and a self time per key, not one span per
call.

Untraced passes wrap only the coarse boundaries the end-to-end metrics
need (``run_points``, and ``Simulation.__init__``/``ReplicaBatch.__init__``
for the set-up clock: a few dozen calls per pass); traced passes add the
per-cycle layers.
"""

from __future__ import annotations

import functools
import gc
import importlib
import pkgutil
import time

#: per-layer metric -> (unit, better, exact, end-to-end metric it feeds
#: and the workload it should move on).  ``exact`` counters repeat
#: bit-for-bit at one seed; the traced run checks that across passes.
LAYER_METRICS = {
    "network.router.steps": ("count", "lower", True,
                             "wall_s on fig8_saturation, fig7_lowload"),
    "network.router.self_s": ("s", "lower", False,
                              "wall_s on fig8_saturation, fig7_lowload"),
    "network.router.steps_per_rcycle": ("ratio", "lower", True,
                                        "wall_s on fig8_saturation"),
    "traffic.calls": ("count", "lower", True, "wall_s on fig8_saturation"),
    "traffic.self_s": ("s", "lower", False,
                       "wall_s on fig8_saturation; unchanged on "
                       "fig10_apps"),
    "traffic.packets_built": ("count", "lower", True,
                              "wall_s, peak_rss_mb on fig8_saturation"),
    "traffic.delivered_per_built": ("ratio", "higher", True,
                                    "peak_rss_mb on fig8_saturation"),
    "network.ni.inject_calls": ("count", "lower", True,
                                "wall_s on fig8_saturation"),
    "network.ni.inject_self_s": ("s", "lower", False,
                                 "wall_s on fig8_saturation"),
    "network.ni.consume_calls": ("count", "lower", True,
                                 "wall_s on fig10_apps"),
    "network.ni.consume_self_s": ("s", "lower", False,
                                  "wall_s on fig10_apps"),
    "network.ni.consume_per_rcycle": ("ratio", "lower", True,
                                      "wall_s on fig10_apps"),
    "schemes.hook_calls": ("count", "lower", True, "wall_s on fig10_apps"),
    "schemes.hook_self_s": ("s", "lower", False, "wall_s on fig10_apps"),
    "sim.engine.builds": ("count", "lower", True, "setup_s on fig7_lowload"),
    "sim.engine.build_s": ("s", "lower", False, "setup_s on fig7_lowload"),
    "network.other_self_s": ("s", "lower", False, "wall_s on all"),
    "sim.soa.steps": ("count", "higher", True,
                      "wall_s on fig8_saturation once selected"),
    "sim.soa.self_s": ("s", "lower", False,
                       "must not cost on fig7_lowload"),
    "sim.soa.fallbacks": ("count", "lower", True,
                          "wall_s on fig8_saturation"),
    "sim.batch.replicas": ("count", "higher", True,
                           "wall_s, setup_s on scenarios_replicas"),
    "sim.batch.self_s": ("s", "lower", False,
                         "wall_s, setup_s on scenarios_replicas"),
    "campaign.points": ("count", "lower", True, "wall_s on all"),
    "campaign.overhead_s": ("s", "lower", False, "wall_s on all"),
    "sim.rcycles": ("count", "lower", True,
                    "sim_rcycles_per_s on all"),
    "sim.delivered": ("count", "higher", True, "sim_pkts_per_s on all"),
}

#: rows of the per-module report: (module, span keys summed, calls key,
#: end-to-end metric it feeds)
REPORT_ROWS = [
    ("network.router", ("router",), "router",
     "wall_s (fig8_saturation, fig7_lowload)"),
    ("traffic", ("traffic",), "traffic",
     "wall_s, peak_rss_mb (fig8_saturation)"),
    ("network.ni inject", ("ni.inject",), "ni.inject",
     "wall_s (fig8_saturation)"),
    ("network.ni consume", ("ni.consume",), "ni.consume",
     "wall_s (fig10_apps)"),
    ("schemes", ("schemes",), "schemes", "wall_s (fig10_apps)"),
    ("core.manager", ("manager",), "manager", "wall_s (fig10_apps)"),
    ("sim.engine build", ("engine.build",), "engine.build",
     "setup_s (fig7_lowload)"),
    ("sim.engine loop", ("engine.run",), "engine.run", "wall_s (all)"),
    ("sim.soa", ("soa",), "soa", "wall_s (fig8_saturation)"),
    ("sim.batch", ("batch.build", "batch.run"), "batch.run",
     "wall_s, setup_s (scenarios_replicas)"),
    ("campaign", ("campaign",), "campaign", "wall_s (all)"),
]


class SpanRecorder:
    """Call counts and inclusive/self time per key, over one pass."""

    def __init__(self):
        #: child-time accumulators of the open spans (index 0 = root)
        self._stack = [0.0]
        #: key -> [calls, inclusive_s, self_s, tally]
        self.acc: dict[str, list] = {}

    def wrap(self, owner, attr: str, key: str, on_return=None) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) with a
        timing wrapper.  ``on_return(args, result, seconds)`` is called
        after each call and may return a number added to the key's
        tally."""
        orig = owner.__dict__[attr]
        rec = self.acc.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        if on_return is None:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - child
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - child
                rec[3] += on_return(args, out, dt) or 0
                return out

        setattr(owner, attr, functools.update_wrapper(wrapper, orig))


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _import_all(package: str) -> None:
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{package}.{info.name}")


class SetupClock:
    """Time spent constructing simulations: one clock pair around each
    outermost ``Simulation`` or ``ReplicaBatch`` construction.

    Just before the pair the pass runs a full cyclic collection, which
    frees the previous point's simulation (cyclic garbage).  It counts in
    the campaign call and so in the wall time, not in the set-up time.
    Each construction then starts from the same heap state, and its pair
    holds its own work and the collections its own allocations trigger.
    Without it, a 130-170 ms collection of an earlier point's garbage
    landed in one construction at some seeds and not at others."""

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0

    def wrap(self, owner, attr: str) -> None:
        orig = owner.__dict__[attr]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._depth:                 # nested in a batch build
                return orig(*args, **kwargs)
            self._depth = 1
            gc.collect()
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                self.seconds += clock() - t0
                self._depth = 0

        setattr(owner, attr, functools.update_wrapper(wrapper, orig))


def install_coarse(rec: SpanRecorder, setup: SetupClock, on_points) -> None:
    """The boundaries every pass needs: one span per campaign call (one
    point, or one replica batch) and the set-up clock around every
    simulation construction."""
    import repro.campaign
    from repro.sim.batch.engine import ReplicaBatch
    from repro.sim.engine import Simulation

    rec.wrap(repro.campaign, "run_points", "campaign", on_return=on_points)
    setup.wrap(Simulation, "__init__")
    setup.wrap(ReplicaBatch, "__init__")


def install_layers(rec: SpanRecorder) -> None:
    """The per-cycle layers of a traced pass: routers, traffic sources,
    NIs, scheme hooks, the FastPass manager, the simulation loops, the
    SoA kernel and the replica batch."""
    _import_all("repro.schemes")
    _import_all("repro.traffic")
    _import_all("repro.scenario")
    from repro.core.manager import FastPassManager
    from repro.network.ni import NetworkInterface
    from repro.network.router import Router
    from repro.schemes.base import Scheme
    from repro.sim.batch.engine import ReplicaBatch
    from repro.sim.engine import Simulation
    from repro.sim.soa.kernel import SoAKernel
    from repro.traffic.coherence import CoherenceTraffic
    from repro.traffic.synthetic import SyntheticTraffic

    for cls in _subclasses(Router):
        if "step" in cls.__dict__:
            rec.wrap(cls, "step", "router")
    for base in (SyntheticTraffic, CoherenceTraffic):
        for cls in _subclasses(base):
            if "generate" in cls.__dict__:
                rec.wrap(cls, "generate", "traffic")
    rec.wrap(NetworkInterface, "inject_step", "ni.inject")
    rec.wrap(NetworkInterface, "consume_step", "ni.consume")
    # Only overrides: the base no-op hooks stay untouched, so
    # ``Scheme.hook_cadence`` (an identity test against them) keeps
    # skipping the hooks a scheme does not define.
    for cls in _subclasses(Scheme):
        if cls is Scheme:
            continue
        for hook in ("pre_cycle", "post_cycle"):
            if hook in cls.__dict__:
                rec.wrap(cls, hook, "schemes")
    rec.wrap(FastPassManager, "step", "manager")
    rec.wrap(Simulation, "__init__", "engine.build")
    rec.wrap(ReplicaBatch, "__init__", "batch.build")
    rec.wrap(Simulation, "run", "engine.run")
    rec.wrap(Simulation, "run_to_completion", "engine.run")
    rec.wrap(SoAKernel, "step", "soa")
    rec.wrap(ReplicaBatch, "run", "batch.run",
             on_return=lambda args, out, dt: len(out))


def layer_metrics(acc: dict, rcycles: int, delivered: int,
                  packets_built: int, fallbacks: int,
                  points: int) -> dict:
    """Per-layer metric values of one traced pass."""
    def get(key):
        return acc.get(key, [0, 0.0, 0.0, 0])

    def ratio(a, b):
        return a / b if b else 0.0

    router = get("router")
    ni_in = get("ni.inject")
    ni_out = get("ni.consume")
    return {
        "network.router.steps": router[0],
        "network.router.self_s": router[2],
        "network.router.steps_per_rcycle": ratio(router[0], rcycles),
        "traffic.calls": get("traffic")[0],
        "traffic.self_s": get("traffic")[2],
        "traffic.packets_built": packets_built,
        "traffic.delivered_per_built": ratio(delivered, packets_built),
        "network.ni.inject_calls": ni_in[0],
        "network.ni.inject_self_s": ni_in[2],
        "network.ni.consume_calls": ni_out[0],
        "network.ni.consume_self_s": ni_out[2],
        "network.ni.consume_per_rcycle": ratio(ni_out[0], rcycles),
        "schemes.hook_calls": get("schemes")[0],
        "schemes.hook_self_s": get("schemes")[2] + get("manager")[2],
        "sim.engine.builds": get("engine.build")[0],
        "sim.engine.build_s": get("engine.build")[1],
        "network.other_self_s": get("engine.run")[2],
        "sim.soa.steps": get("soa")[0],
        "sim.soa.self_s": get("soa")[2],
        "sim.soa.fallbacks": fallbacks,
        "sim.batch.replicas": get("batch.run")[3],
        "sim.batch.self_s": get("batch.run")[2] + get("batch.build")[2],
        "campaign.points": points,
        "campaign.overhead_s": get("campaign")[2],
        "sim.rcycles": rcycles,
        "sim.delivered": delivered,
    }


def format_report(acc: dict) -> str:
    """The per-module table of one traced pass: calls, self time, share
    of the time inside campaign calls (every other span nests in one)
    and the end-to-end metric each row feeds."""
    total = acc.get("campaign", [0, 0.0])[1]
    lines = [f"{'layer':<20}{'calls':>12}{'self s':>10}{'share':>8}"
             "  feeds"]
    for module, keys, calls_key, feeds in REPORT_ROWS:
        self_s = sum(acc.get(k, [0, 0.0, 0.0, 0])[2] for k in keys)
        calls = acc.get(calls_key, [0])[0]
        share = self_s / total if total else 0.0
        lines.append(f"{module:<20}{calls:>12}{self_s:>10.3f}"
                     f"{share:>8.1%}  {feeds}")
    lines.append(f"{'(campaign calls)':<20}{'':>12}{total:>10.3f}")
    return "\n".join(lines)
