"""Lock-step replica batching: R seeds of one point in one process.

A :class:`ReplicaBatch` holds R complete :class:`~repro.sim.engine.
Simulation` instances — one per seed — built against a single
:class:`~repro.sim.batch.shared.SharedStructures`, so the mesh, the
route-memo tables, and the FastPass TDM geometry are derived once and
adopted R-1 times.  The batch then advances every replica in lock-step
at traffic-chunk granularity: within a block (one chunk of the shared
refill clock) each replica runs contiguously — keeping its routers and
stats hot in cache instead of round-robining R working sets through
every cycle — and all replicas re-synchronise at the chunk boundary,
where the cross-replica traffic matrix refreshes.

Bit-identity is by construction, not by re-implementation: each replica
executes the unmodified ``Network.step`` datapath on its own mutable
state (routers, NIs, stats, RNG stream), and the run loop below replays
``Simulation.run``'s exact warmup/measure/drain control flow per
replica.  Upgrades, bounces, dynamic-bubble regeneration, and fault
handling therefore need no vectorized variant — the scalar fallback *is*
the datapath, which is what makes the equality proof in the differential
tests hold for every scheme and every corner case at once.

With ``engine="soa"`` the same lock-step skeleton hosts the fused
replica-batched screen (:mod:`repro.sim.soa.batch`): one numpy pass per
cycle answers head-of-line feasibility for *every* replica, and each
replica's winners are applied by its own scalar kernel — so the
bit-identity argument above is unchanged, it just runs R screens for
the price of one.

On top of that, the batch scheduler extends the PR-2 parking contract
from routers to whole replicas: a replica that is provably idle — no
packet anywhere, no scheduled event, no consumer work, and a traffic
source whose next injection (known from the cross-replica
:class:`~repro.sim.batch.traffic.TrafficMatrix`) is cycles away — is
fast-forwarded to its next event with a closed-form replay of the
skipped cycles (switch-cycle counter, watchdog progress clock), exactly
like a parked router replays its skipped round-robin rotations.
"""

from __future__ import annotations

import numpy as np

from repro.config import RunResult, SimConfig
from repro.schemes import get_scheme
from repro.sim.batch.shared import SharedStructures
from repro.sim.batch.traffic import TrafficMatrix
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic

_FAR = 1 << 60


def _quiet(net) -> bool:
    """True when a replica's network provably does nothing on its own:
    every occupancy counter is zero, no component is active (a consumer
    model with pending work keeps its NI consume-active), no event is
    scheduled, and nothing (fault injector, observability, auditor,
    paranoia audit, DRAIN suspension) runs per-cycle side effects the
    fast-forward replay does not model."""
    return not (net.buffered or net.in_transit or net.inj_total
                or net.pending_total or net.limbo
                or net._r_active or net._inj_active or net._con_active
                or net._events
                or net.suspended or net.force_naive_step
                or net.faults is not None or net.obs is not None
                or net.auditor is not None or net.cfg.paranoia)


def _hooks_idle_safe(net) -> bool:
    """Hooks either never run or are declared no-ops on an empty net."""
    scheme = net.scheme
    noop = scheme is not None and scheme.idle_hooks_noop
    return (net._pre_every == 0 or noop) and (net._post_every == 0 or noop)


def _fast_forward(net, frm: int, to: int) -> None:
    """Closed-form replay of ``to - frm`` provably-idle cycles.

    Each skipped cycle would have: incremented ``switch_cycles`` (the
    net is not suspended), run the watchdog (which, with zero packets in
    flight, resets ``last_progress`` whenever the threshold elapses),
    and advanced ``cycle``.  Everything else is a no-op by the
    :func:`_quiet` / :func:`_hooks_idle_safe` preconditions.
    """
    net.switch_cycles += to - frm
    thr = net.watchdog.threshold
    last = net.last_progress
    if to - 1 - last >= thr:
        # The watchdog fires at last+thr, last+2*thr, ... <= to-1; each
        # firing resets the progress clock to that cycle.
        net.last_progress = last + thr * ((to - 1 - last) // thr)
    net.cycle = to


class ReplicaBatch:
    """R seed replicas of one (scheme, pattern, rate) point, lock-step."""

    def __init__(self, cfg: SimConfig, scheme: str, pattern: str,
                 rate: float, seeds, scheme_kwargs: dict | None = None,
                 traffic_stop: int | None = None, naive: bool = False,
                 spec=None):
        kwargs = dict(scheme_kwargs or {})
        if spec is not None and not spec.chunk_aligned(
                SyntheticTraffic.CHUNK):
            # A scenario source clamps its fills at phase boundaries, so
            # its refill clock is spec-derived.  The lock-step scheduler
            # and the (R, CHUNK) traffic matrix assume every live source
            # shares chunk boundaries that are multiples of CHUNK; a
            # misaligned spec would hand ``ensure`` ragged count rows.
            # ``replica_signature`` never folds such points — this guard
            # catches direct construction.
            raise ValueError(
                f"scenario {spec.name!r} has phase boundaries "
                f"{spec.boundaries()} not aligned to the "
                f"{SyntheticTraffic.CHUNK}-cycle refill quantum; replica "
                "batching would desynchronise the lock-step traffic "
                "matrix — run these points scalar")
        # engine="soa" replicas run under a fused multi-replica screen
        # (SoABatch): the networks are built with the kernel attach
        # deferred, then leased into one set of (R, slots) parent arrays.
        # Whole-replica parking is disabled for those batches — the
        # kernel's deferred-rotation bookkeeping assumes every switch
        # cycle it skipped was its own decision — which costs nothing in
        # the saturated regime the kernel targets.  ``naive`` keeps the
        # scalar path (it forces the naive step loop).
        defer_soa = cfg.engine == "soa"
        use_soa_batch = defer_soa and not naive
        if spec is not None:
            from repro.scenario.source import ScenarioTraffic

            def make_traffic(seed):
                return ScenarioTraffic(spec, seed=seed, stop=traffic_stop)
        else:
            def make_traffic(seed):
                return SyntheticTraffic(pattern, rate, seed=seed,
                                        stop=traffic_stop)
        self.shared = SharedStructures()
        self.sims: list[Simulation] = []
        for seed in seeds:
            sim = Simulation(
                cfg, get_scheme(scheme, **kwargs), make_traffic(seed),
                shared=self.shared, defer_soa=defer_soa)
            if naive:
                sim.net.force_naive_step = True
            self.sims.append(sim)
        self.soa = None
        if use_soa_batch and self.sims[0].net.soa_fallback is None:
            from repro.sim.soa.batch import SoABatch
            self.soa = SoABatch([s.net for s in self.sims])
        self.matrix = TrafficMatrix([s.traffic for s in self.sims])
        #: replica-cycles skipped by whole-replica fast-forward (the
        #: batch analogue of router parking); exposed for tests/metrics
        self.skipped_cycles = 0

    # ------------------------------------------------------------------
    def _park_until(self, sim, ri: int, frm: int, horizon: int) -> int:
        """Latest cycle < ``horizon`` this idle replica can jump to."""
        t = sim.traffic
        nxt = self.matrix.next_event(ri, frm)
        if t.stop is None or frm < t.stop:
            # Never skip a chunk refill: _fill(start) places events
            # relative to the fill cycle, so it must run exactly when
            # the scalar run would have run it.
            nxt = min(nxt, t._chunk_end)
        return min(nxt, horizon)

    def run(self) -> list[RunResult]:
        """Advance all replicas; returns per-seed RunResults in order."""
        sims = self.sims
        cfg = sims[0].cfg
        t0 = cfg.warmup_cycles
        t1 = t0 + cfg.measure_cycles
        for sim in sims:
            sim.traffic.measure_window(t0, t1)
            sim.net.stats.measure_start = t0
            sim.net.stats.measure_end = t1

        # -- phase 1: warmup + measurement, lock-step to t1 -------------
        # (mirrors Simulation.run's ``net.run(t1)``)
        # Replicas synchronise at chunk boundaries — exactly the cycles
        # where the traffic matrix refills — and run contiguously in
        # between.  Nothing couples replicas within a block (each has
        # its own routers, NIs, RNG stream), so per-cycle interleaving
        # would only shuffle R working sets through the cache; the
        # per-replica inner loop is the same ``while cycle < end: step``
        # shape as ``Network.run``.
        matrix = self.matrix
        live = list(range(len(sims)))
        can_park = [_hooks_idle_safe(s.net) for s in sims]
        now = 0
        while now < t1:
            matrix.ensure(now, live)
            block_end = t1
            for ri in live:
                t = sims[ri].traffic
                if t.stop is not None and now >= t.stop:
                    continue        # stopped sources never refill again
                if t._chunk_end < block_end:
                    block_end = t._chunk_end
            if self.soa is not None:
                # Fused lock-step: every cycle is one batched screen
                # over all replicas (demoted ones take scalar steps
                # inside the same loop, staying cycle-aligned).
                lead = sims[live[0]].net
                while lead.cycle < block_end:
                    self.soa.step_cycle(live)
            else:
                for ri in live:
                    sim = sims[ri]
                    net = sim.net
                    step = net.step
                    park = can_park[ri]
                    c = net.cycle
                    while c < block_end:
                        step()
                        c = net.cycle
                        if park and c < block_end and _quiet(net):
                            to = self._park_until(sim, ri, c, block_end)
                            if to > c:
                                _fast_forward(net, c, to)
                                self.skipped_cycles += to - c
                                c = to
            now = block_end

        # -- phase 2: drain, with per-replica retirement -----------------
        # (mirrors Simulation.run's drain loop exactly, per replica;
        # ``generate`` performs its own refills on the scalar path, and
        # no park decision consults the matrix here)
        deadline = t1 + cfg.drain_cycles
        results: list[RunResult | None] = [None] * len(sims)

        def drained(sim) -> bool:
            net = sim.net
            return not (net.cycle < deadline
                        and net.stats.ejected_measured
                        < sim.traffic.measured_generated
                        and not net.watchdog.deadlocked
                        and net.total_backlog() + net.limbo > 0)

        if self.soa is not None:
            # Lock-step drain with per-replica retirement: a drained
            # replica stops stepping (exactly where its scalar drain
            # loop would exit) while the rest keep the fused screen.
            undrained = [ri for ri in live if not drained(sims[ri])]
            while undrained:
                self.soa.step_cycle(undrained)
                undrained = [ri for ri in undrained
                             if not drained(sims[ri])]
            for ri in live:
                results[ri] = self._finish(sims[ri])
            return results
        for ri in live:
            sim = sims[ri]
            step = sim.net.step
            while not drained(sim):
                step()
            results[ri] = self._finish(sim)
        return results

    def _finish(self, sim) -> RunResult:
        res = sim._result()
        res.extra["rate"] = sim.traffic.rate
        res.extra["pattern"] = sim.traffic.pattern
        # Attribution metadata, not a result field: travels as a plain
        # attribute so cache keys and bit-identity stay engine-blind.
        res.engine_used = sim.engine_used
        return res

    # ------------------------------------------------------------------
    def aggregate(self, results: list[RunResult]) -> dict:
        """Batched cross-replica reduction of the headline statistics."""
        lat = np.array([r.avg_latency for r in results], dtype=float)
        thr = np.array([r.throughput for r in results], dtype=float)
        cyc = np.array([r.cycles for r in results], dtype=float)
        ok = ~np.isnan(lat)
        return {
            "replicas": len(results),
            "avg_latency_mean": float(lat[ok].mean()) if ok.any()
            else float("nan"),
            "avg_latency_min": float(lat[ok].min()) if ok.any()
            else float("nan"),
            "avg_latency_max": float(lat[ok].max()) if ok.any()
            else float("nan"),
            "throughput_mean": float(thr.mean()),
            "cycles_total": int(cyc.sum()),
            "deadlocked": int(sum(r.deadlocked for r in results)),
            "skipped_cycles": self.skipped_cycles,
        }
