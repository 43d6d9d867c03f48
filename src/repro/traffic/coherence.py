"""Closed-loop coherence-protocol traffic (MOESI-Hammer-like).

This is the substitute for the paper's gem5/Ruby full-system runs (see
DESIGN.md §5).  Each node hosts a *core* and an *LLC slice*:

* the core issues 1-flit ``REQUEST`` packets to the home slice of each
  address (hash-distributed, with a tunable locality/hotspot skew), limited
  by its MSHRs, and only retires a transaction when the 5-flit ``RESPONSE``
  arrives — responses are the *sink* class;
* the LLC slice consumes request ejections into a bounded service queue and,
  after a fixed service latency, injects the data response (or, for a
  configurable fraction, a 1-flit ``FORWARD`` to a third-party owner which
  then supplies the response — the three-hop transactions of MOESI Hammer);
* writebacks (``WRITEBACK``, fire-and-forget 5-flit) are generated for a
  fraction of transactions.

Because the service queue is bounded and responses compete with requests
for network resources, a 0-VN network with no escape mechanism exhibits
genuine protocol-level deadlock under this model — the behaviour FastPass
and Pitstop must (and do) resolve.

**Consumer protocol.**  A :class:`NodeModel` is attached to its NI as
``ni.consumer`` and implements two calls:

* ``on_local(ni, pkt)`` — a message whose source is its destination; it
  never enters the network but still drives the protocol;
* ``consume(ni, now) -> int | None`` — drain the ejection queues and run
  the LLC service.  The return value is the next cycle the model needs a
  visit if nothing new is ejected: ``now + 1`` while an ejection queue
  still holds a packet, the head service entry's ready cycle while one is
  queued, and :data:`~repro.network.ni.SLEEP` when the node has nothing
  left to serve (``None`` means "visit next cycle").

The active engine skips every visit before that cycle, so a visit it
skips must be a no-op: no RNG draw and no state change.  Every path
that creates consume work — an ejection into any ``ej`` queue and
``on_local`` queueing a service entry — wakes the NI
(:meth:`repro.network.network.Network.wake_consume`).  The issue side
is symmetric: :meth:`CoherenceTraffic.generate` calls ``issue_step``
only for cores that pass its own loop guard.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.network.ni import SLEEP
from repro.network.packet import MessageClass, Packet


class Transaction:
    __slots__ = ("tid", "core", "home", "issue_cycle", "complete_cycle")

    def __init__(self, tid: int, core: int, home: int, issue_cycle: int):
        self.tid = tid
        self.core = core
        self.home = home
        self.issue_cycle = issue_cycle
        self.complete_cycle = -1


class NodeModel:
    """Core + LLC slice of one node (registered as the NI consumer)."""

    def __init__(self, rid: int, traffic: "CoherenceTraffic"):
        self.id = rid
        self.traffic = traffic
        self.outstanding = 0
        self.issued = 0
        self.completed = 0
        self.next_issue = 0
        self.burst_left = 0
        #: LLC service queue: (ready_cycle, request_packet)
        self.service: deque = deque()

    # -- core side -------------------------------------------------------
    def issue_step(self, net, now: int) -> None:
        tr = self.traffic
        p = tr.params
        while (self.outstanding < p["mshrs"]
               and self.issued < tr.txns_per_core
               and self.next_issue <= now):
            home = tr.pick_home(self.id)
            txn = Transaction(tr.next_tid, self.id, home, now)
            tr.next_tid += 1
            pkt = Packet(self.id, home, MessageClass.REQUEST, now)
            pkt.txn = txn
            pkt.measured = tr.in_window(now)
            if pkt.measured:
                tr.measured_generated += 1
            self.outstanding += 1
            self.issued += 1
            # Burstiness: within a burst, issue back-to-back; between
            # bursts, wait out the think time.  The mean burst length is
            # ``burst``, so the per-core demand is roughly
            # burst / (burst + think) transactions per cycle.
            if self.burst_left > 0:
                self.burst_left -= 1
                self.next_issue = now + 1
            else:
                self.burst_left = int(tr.rng.geometric(1.0 / p["burst"]))
                self.next_issue = now + p["think"]
            net.nis[self.id].source(pkt)
            if p["wb_frac"] > 0 and tr.rng.random() < p["wb_frac"]:
                wb = Packet(self.id, home, MessageClass.WRITEBACK, now)
                wb.measured = tr.in_window(now)
                if wb.measured:
                    tr.measured_generated += 1
                net.nis[self.id].source(wb)

    # -- LLC / consumer side ------------------------------------------------
    def on_local(self, ni, pkt) -> None:
        """Handle a message whose source and destination are this node
        (e.g. the forwarded owner is the requester itself): it never enters
        the network but still drives the protocol."""
        if pkt.mclass == MessageClass.RESPONSE:
            txn = pkt.txn
            if txn is not None and txn.complete_cycle < 0:
                txn.complete_cycle = pkt.eject_cycle
                owner = self.traffic.nodes[txn.core]
                owner.outstanding -= 1
                owner.completed += 1
                self.traffic.completed += 1
        elif pkt.mclass in (MessageClass.REQUEST, MessageClass.FORWARD):
            # Local hits bypass the bounded service queue (no NoC involved).
            self.service.append((pkt.eject_cycle +
                                 self.traffic.params["service_latency"], pkt))
            ni.net.wake_consume(ni.id)

    def consume(self, ni, now: int) -> int:
        tr = self.traffic
        p = tr.params
        net = ni.net
        # 1. Sink classes are always consumable (Lemma 3's premise).
        resp_q = ni.ej[MessageClass.RESPONSE].q
        while resp_q:
            pkt = resp_q.popleft()
            txn = pkt.txn
            if txn is not None and txn.complete_cycle < 0:
                txn.complete_cycle = now
                owner = net.nis[txn.core].consumer
                owner.outstanding -= 1
                owner.completed += 1
                tr.completed += 1
        for cls in (MessageClass.UNBLOCK, MessageClass.DMA,
                    MessageClass.WRITEBACK):
            ni.ej[cls].q.clear()
        # 2. Requests/forwards move into the bounded service queue.
        for cls in (MessageClass.REQUEST, MessageClass.FORWARD):
            q = ni.ej[cls].q
            while q and len(self.service) < p["service_depth"]:
                pkt = q.popleft()
                self.service.append((now + p["service_latency"], pkt))
        # 3. Serve: emit the response (or a forward for 3-hop transactions).
        while self.service and self.service[0][0] <= now:
            ready, req = self.service[0]
            txn = req.txn
            if req.mclass == MessageClass.REQUEST and \
                    tr.rng.random() < p["fwd_frac"]:
                owner = tr.pick_home(self.id)
                out = Packet(self.id, owner, MessageClass.FORWARD, now)
            else:
                dst = txn.core if txn is not None else req.src
                out = Packet(self.id, dst, MessageClass.RESPONSE, now)
            out.txn = txn
            out.measured = tr.in_window(now)
            if out.measured:
                tr.measured_generated += 1
            self.service.popleft()
            ni.source(out)
        # 4. Next visit.  Requests/forwards left in the ejection queues
        # (service queue full) are re-checked next cycle; otherwise only
        # the head service entry can make a visit do anything.
        for cls in (MessageClass.REQUEST, MessageClass.FORWARD):
            if ni.ej[cls].q:
                return now + 1
        if self.service:
            return self.service[0][0]
        return SLEEP


class CoherenceTraffic:
    """Closed-loop traffic driver (the paper's "Application Traffic")."""

    DEFAULTS = dict(
        mshrs=16,
        think=20,
        burst=4,
        service_latency=20,
        service_depth=8,
        fwd_frac=0.1,
        wb_frac=0.15,
        locality=0.0,     # fraction of requests kept within 2 hops
        hotspot=0.0,      # fraction of requests aimed at hotspot homes
        n_hotspots=4,
    )

    def __init__(self, txns_per_core: int = 200, seed: int = 1, **params):
        unknown = set(params) - set(self.DEFAULTS)
        if unknown:
            raise ValueError(f"unknown coherence params: {sorted(unknown)}")
        self.params = {**self.DEFAULTS, **params}
        self.txns_per_core = txns_per_core
        self.rng = np.random.default_rng(seed)
        self.next_tid = 0
        self.completed = 0
        self.measured_generated = 0
        self.measure_start = 0
        self.measure_end = 1 << 60
        self.nodes: list[NodeModel] = []
        self._net = None
        self._hotspots: list[int] = []
        self._neighbourhood: list[list[int]] = []

    # ------------------------------------------------------------------
    def bind(self, net) -> None:
        self._net = net
        n = net.mesh.n_routers
        self.nodes = [NodeModel(rid, self) for rid in range(n)]
        for rid, node in enumerate(self.nodes):
            net.nis[rid].consumer = node
        step = max(1, n // self.params["n_hotspots"])
        self._hotspots = list(range(0, n, step))[: self.params["n_hotspots"]]
        mesh = net.mesh
        self._neighbourhood = [
            [d for d in range(n) if d != rid and mesh.hops(rid, d) <= 2]
            for rid in range(n)
        ]

    def measure_window(self, start: int, end: int) -> None:
        self.measure_start = start
        self.measure_end = end

    def in_window(self, now: int) -> bool:
        return self.measure_start <= now < self.measure_end

    def pick_home(self, core: int) -> int:
        n = self._net.mesh.n_routers
        p = self.params
        r = self.rng.random()
        if r < p["hotspot"] and self._hotspots:
            cand = self._hotspots[int(self.rng.integers(len(self._hotspots)))]
            if cand != core:
                return cand
        if r < p["hotspot"] + p["locality"] and self._neighbourhood[core]:
            near = self._neighbourhood[core]
            return near[int(self.rng.integers(len(near)))]
        d = int(self.rng.integers(n - 1))
        return d if d < core else d + 1

    # ------------------------------------------------------------------
    def generate(self, net, now: int) -> None:
        # ``issue_step``'s own loop guard, hoisted: a core that fails it
        # draws no random number and changes nothing, so skipping the
        # call is exact.
        mshrs = self.params["mshrs"]
        txns = self.txns_per_core
        for node in self.nodes:
            if (node.next_issue <= now and node.outstanding < mshrs
                    and node.issued < txns):
                node.issue_step(net, now)

    def done(self) -> bool:
        return self.completed >= self.txns_per_core * len(self.nodes)

    @property
    def total_txns(self) -> int:
        return self.txns_per_core * len(self.nodes)
