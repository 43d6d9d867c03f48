"""Unit tests for packets and message classes."""

import pytest

from repro.network.packet import (
    MessageClass,
    N_CLASSES,
    Packet,
    SINK_CLASSES,
    flits_for_class,
)


class TestMessageClasses:
    def test_six_classes(self):
        assert N_CLASSES == 6
        assert len(list(MessageClass)) == 6

    def test_sink_classes_end_transactions(self):
        assert MessageClass.RESPONSE in SINK_CLASSES
        assert MessageClass.REQUEST not in SINK_CLASSES
        assert MessageClass.FORWARD not in SINK_CLASSES

    def test_flit_sizes(self):
        # 1-flit control, 5-flit data (64B payload over 128-bit flits)
        assert flits_for_class(MessageClass.REQUEST) == 1
        assert flits_for_class(MessageClass.RESPONSE) == 5
        assert flits_for_class(MessageClass.WRITEBACK) == 5
        assert flits_for_class(MessageClass.UNBLOCK) == 1

    def test_flit_sizes_cover_every_class(self):
        sizes = {cls: flits_for_class(cls) for cls in MessageClass}
        assert sizes == {MessageClass.REQUEST: 1, MessageClass.RESPONSE: 5,
                         MessageClass.FORWARD: 1, MessageClass.WRITEBACK: 5,
                         MessageClass.UNBLOCK: 1, MessageClass.DMA: 5}
        assert flits_for_class(2) == 1 and flits_for_class(5) == 5

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_class_rejected(self, bad):
        # The enum itself rejects these; flits_for_class (a tuple index)
        # must too — ``-1`` would otherwise silently read the DMA size.
        with pytest.raises(ValueError):
            MessageClass(bad)
        with pytest.raises(ValueError):
            flits_for_class(bad)
        with pytest.raises(ValueError):
            Packet(0, 1, bad, 0)


class TestPacket:
    def test_defaults(self):
        pkt = Packet(src=1, dst=2, mclass=MessageClass.REQUEST, gen_cycle=10)
        assert pkt.size == 1
        assert pkt.vn == int(MessageClass.REQUEST)
        assert pkt.net_entry == -1
        assert pkt.eject_cycle == -1
        assert not pkt.was_fastpass
        assert not pkt.rejected

    def test_explicit_size_overrides_class(self):
        pkt = Packet(0, 1, MessageClass.REQUEST, 0, size=3)
        assert pkt.size == 3

    def test_pids_unique_and_increasing(self):
        a = Packet(0, 1, 0, 0)
        b = Packet(0, 1, 0, 0)
        assert b.pid == a.pid + 1

    def test_latency(self):
        pkt = Packet(0, 1, 0, gen_cycle=5)
        pkt.eject_cycle = 42
        assert pkt.latency == 37

    def test_is_sink(self):
        assert Packet(0, 1, MessageClass.RESPONSE, 0).is_sink
        assert not Packet(0, 1, MessageClass.REQUEST, 0).is_sink

    def test_route_cache_roundtrip(self):
        pkt = Packet(0, 5, 0, 0)
        assert pkt.route_cache(3) is None
        pkt.set_route_cache(3, ((1, (0, 1)),))
        assert pkt.route_cache(3) == ((1, (0, 1)),)
        assert pkt.route_cache(4) is None

    def test_route_cache_invalidation(self):
        pkt = Packet(0, 5, 0, 0)
        pkt.set_route_cache(3, ("x",))
        pkt.invalidate_route()
        assert pkt.route_cache(3) is None

    def test_slots_prevent_arbitrary_attrs(self):
        pkt = Packet(0, 1, 0, 0)
        with pytest.raises(AttributeError):
            pkt.bogus = 1
