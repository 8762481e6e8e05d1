"""The typed event taxonomy."""

from __future__ import annotations

from repro.obs import events


class TestTaxonomy:
    def test_every_constant_is_in_the_taxonomy(self):
        constants = {
            value
            for name, value in vars(events).items()
            if name.startswith("EVENT_")
        }
        assert constants == set(events.TAXONOMY)

    def test_kinds_have_descriptions(self):
        for kind in events.TAXONOMY:
            assert events.TAXONOMY[kind], kind

    def test_is_known(self):
        assert events.is_known(events.EVENT_DEPLOY)
        assert not events.is_known("made-up-kind")

    def test_fault_plane_kinds_are_covered(self):
        # The fault plane's recorded kinds replay into collectors verbatim;
        # every one of them must be a known kind, not an "unknown" tally.
        for kind in ("partition", "heal", "pause", "resume", "degrade",
                     "restore", "zone_kill", "zone_pause", "zone_restore",
                     "catastrophe", "rebalance"):
            assert events.is_known(kind), kind
