"""The Instrument protocol: every method is a safe no-op by default."""

from __future__ import annotations

from repro.obs.instrument import Instrument
from repro.sim.network import Network


class TestInstrumentDefaults:
    def test_observe_never_stops(self):
        assert Instrument().observe(Network(), 0) is False

    def test_all_hooks_are_noops(self):
        instrument = Instrument()
        instrument.count("exchanges", layer="core")
        instrument.count("exchanges", 5)
        instrument.gauge("population", 12.0)
        instrument.span_begin("round")
        instrument.span_end("round")
        assert instrument.emit("deploy", nodes=3) is None

    def test_subclass_overrides_selectively(self):
        class Counting(Instrument):
            def __init__(self):
                self.total = 0

            def count(self, name, value=1, layer=""):
                self.total += value

        counting = Counting()
        counting.count("exchanges")
        counting.count("exchanges", 4, layer="uo1")
        counting.emit("ignored")  # still the base no-op
        assert counting.total == 5
