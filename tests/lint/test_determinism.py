"""Determinism-invariant (DET) rules on synthetic snippets, plus the self-check."""

from __future__ import annotations

import json
import textwrap

from repro.lint import lint_python_source, render_json, self_check


def lint_snippet(source: str, rel_path: str = "gossip/synthetic.py"):
    return lint_python_source(textwrap.dedent(source), rel_path)


def codes(diagnostics):
    return [diag.code for diag in diagnostics]


class TestDet001ModuleLevelRandom:
    def test_direct_module_call_flagged(self):
        diags = lint_snippet(
            """
            import random

            def shuffle(xs):
                random.shuffle(xs)
            """
        )
        assert codes(diags) == ["DET001"]
        assert diags[0].line == 5

    def test_aliased_module_flagged(self):
        diags = lint_snippet(
            """
            import random as rnd

            def pick(xs):
                return rnd.choice(xs)
            """
        )
        assert codes(diags) == ["DET001"]

    def test_from_import_flagged(self):
        diags = lint_snippet(
            """
            from random import choice

            def pick(xs):
                return choice(xs)
            """
        )
        assert codes(diags) == ["DET001"]

    def test_rng_module_is_exempt(self):
        diags = lint_snippet(
            """
            import random

            def stream(seed):
                return random.Random(seed)
            """,
            rel_path="sim/rng.py",
        )
        assert diags == []

    def test_instance_methods_not_flagged(self):
        # Calls on an rng *instance* are the sanctioned pattern.
        diags = lint_snippet(
            """
            def pick(rng, xs):
                return rng.choice(xs)
            """
        )
        assert diags == []


class TestDet002UnseededRng:
    def test_unseeded_random_flagged(self):
        diags = lint_snippet(
            """
            import random

            def fresh():
                return random.Random()
            """
        )
        assert codes(diags) == ["DET002"]

    def test_seeded_random_allowed(self):
        diags = lint_snippet(
            """
            import random

            def fresh(seed):
                return random.Random(seed)
            """
        )
        assert diags == []

    def test_system_random_always_flagged(self):
        diags = lint_snippet(
            """
            import random

            def fresh():
                return random.SystemRandom(42)
            """
        )
        assert codes(diags) == ["DET002"]


class TestDet003WallClock:
    def test_time_time_flagged_in_sim_path(self):
        diags = lint_snippet(
            """
            import time

            def now():
                return time.time()
            """,
            rel_path="sim/engine.py",
        )
        assert codes(diags) == ["DET003"]

    def test_datetime_now_flagged(self):
        diags = lint_snippet(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            rel_path="faults/transports.py",
        )
        assert codes(diags) == ["DET003"]

    def test_module_spelling_flagged(self):
        diags = lint_snippet(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
            rel_path="core/runtime.py",
        )
        assert codes(diags) == ["DET003"]

    def test_perf_simulation_side_modules_are_covered(self):
        # perf/ and scale/ are simulation-side as whole packages: no module
        # in them, present or future, may read the wall clock.
        snippet = """
            import time

            def tick():
                return time.perf_counter()
            """
        for rel_path in (
            "perf/workloads.py",
            "perf/digest.py",
            "perf/cache.py",
            "perf/anything.py",
            "scale/engine.py",
        ):
            assert codes(lint_snippet(snippet, rel_path=rel_path)) == ["DET003"]

    def test_heal_subsystem_is_covered(self):
        # The remediation engine is part of the simulation: its backoff
        # delays and corruption generators must draw from the sim streams,
        # never the wall clock.
        snippet = """
            import time

            def backoff():
                return time.monotonic()
            """
        for rel_path in ("heal/engine.py", "heal/harness.py"):
            assert codes(lint_snippet(snippet, rel_path=rel_path)) == ["DET003"]

    def test_heal_subsystem_forbids_set_iteration(self):
        # Ordering rules apply too: remediation actions iterate node sets
        # in sorted order or not at all.
        diags = lint_snippet(
            """
            def pick(dead_ids):
                for node_id in set(dead_ids):
                    yield node_id
            """,
            rel_path="heal/actions.py",
        )
        assert codes(diags) == ["DET004"]

    def test_obs_package_is_covered_except_the_sanctioned_clock(self):
        # The observability subsystem is simulation-adjacent: collectors and
        # exporters must stay clock-free, with spans.py as the single
        # sanctioned wall-clock site every span measurement flows through.
        snippet = """
            import time

            def tick():
                return time.perf_counter()
            """
        for rel_path in ("obs/collector.py", "obs/export.py", "obs/hooks.py"):
            assert codes(lint_snippet(snippet, rel_path=rel_path)) == ["DET003"]
        assert lint_snippet(snippet, rel_path="obs/spans.py") == []

    def test_wall_clock_fine_outside_sim_paths(self):
        # Reporting/analysis code may legitimately timestamp its output.
        diags = lint_snippet(
            """
            import time

            def stamp():
                return time.time()
            """,
            rel_path="experiments/stats.py",
        )
        assert diags == []


class TestDet004SetIteration:
    def test_for_over_set_call_flagged(self):
        diags = lint_snippet(
            """
            def merge(views):
                for entry in set(views):
                    yield entry
            """
        )
        assert codes(diags) == ["DET004"]

    def test_comprehension_over_set_literal_flagged(self):
        diags = lint_snippet(
            """
            def ids():
                return [x for x in {3, 1, 2}]
            """
        )
        assert codes(diags) == ["DET004"]

    def test_list_of_set_flagged(self):
        diags = lint_snippet(
            """
            def order(xs):
                return list(set(xs))
            """
        )
        assert codes(diags) == ["DET004"]

    def test_sorted_set_allowed(self):
        diags = lint_snippet(
            """
            def order(xs):
                for x in sorted(set(xs)):
                    yield x
            """
        )
        assert diags == []

    def test_plain_iterables_allowed(self):
        diags = lint_snippet(
            """
            def order(xs):
                for x in xs:
                    yield x
                return list(xs)
            """
        )
        assert diags == []

    def test_not_enforced_outside_ordering_paths(self):
        diags = lint_snippet(
            """
            def order(xs):
                return list(set(xs))
            """,
            rel_path="analysis/export.py",
        )
        assert diags == []


class TestDet005Popitem:
    def test_popitem_flagged(self):
        diags = lint_snippet(
            """
            def drain(d):
                return d.popitem()
            """,
            rel_path="core/layers/uo1.py",
        )
        assert codes(diags) == ["DET005"]

    def test_pop_with_key_allowed(self):
        diags = lint_snippet(
            """
            def drain(d, key):
                return d.pop(key)
            """,
            rel_path="core/layers/uo1.py",
        )
        assert diags == []


class TestSelfCheck:
    def test_framework_source_is_clean(self):
        """The enforced invariant: repro's own tree has zero DET findings."""
        assert self_check() == []

    def test_positions_reported(self, tmp_path):
        bad = tmp_path / "gossip"
        bad.mkdir()
        (bad / "views.py").write_text(
            "import random\n\n\ndef f():\n    return random.random()\n",
            encoding="utf-8",
        )
        diags = self_check(root=str(tmp_path))
        assert codes(diags) == ["DET001"]
        assert diags[0].line == 5
        assert diags[0].file.endswith("views.py")

    def test_unparseable_module_is_reported_once(self, tmp_path):
        bad = tmp_path / "gossip"
        bad.mkdir()
        (bad / "views.py").write_text("def f(:\n    pass\n", encoding="utf-8")
        diags = self_check(root=str(tmp_path))
        assert codes(diags) == ["DET000"]
        assert diags[0].line == 1
        assert "cannot parse" in diags[0].message
        (entry,) = json.loads(render_json(diags))["diagnostics"]
        assert entry["title"] == "cannot parse"


class TestDet004SortedWrapperIdiom:
    """The materialize-then-order idiom used throughout heal/actions.py:
    ``ids = list(view); ids = sorted(ids)`` — hash order never escapes, so
    the earlier materialization must not be flagged."""

    def test_rebind_through_sorted_sanctions(self):
        diags = lint_snippet(
            """
            def targets(view):
                ids = list(set(view))
                ids = sorted(ids)
                return ids
            """
        )
        assert diags == []

    def test_in_place_sort_sanctions(self):
        diags = lint_snippet(
            """
            def targets(view):
                ids = list({d for d in view})
                ids.sort()
                return ids
            """
        )
        assert diags == []

    def test_unsanctioned_materialization_still_fires(self):
        diags = lint_snippet(
            """
            def targets(view):
                ids = list(set(view))
                return ids
            """
        )
        assert codes(diags) == ["DET004"]
        assert diags[0].line == 3

    def test_sorting_a_different_name_does_not_sanction(self):
        diags = lint_snippet(
            """
            def targets(view, other):
                ids = list(set(view))
                other = sorted(other)
                return ids
            """
        )
        assert codes(diags) == ["DET004"]

    def test_tracked_set_name_iteration_fires(self):
        diags = lint_snippet(
            """
            def merge(view, incoming):
                fresh = {d for d in incoming}
                for item in fresh:
                    view.append(item)
            """
        )
        assert codes(diags) == ["DET004"]
        assert diags[0].line == 4

    def test_tracked_set_name_through_sorted_allowed(self):
        diags = lint_snippet(
            """
            def merge(view, incoming):
                fresh = {d for d in incoming}
                for item in sorted(fresh):
                    view.append(item)
            """
        )
        assert diags == []

    def test_rebinding_clears_the_set_tracking(self):
        diags = lint_snippet(
            """
            def merge(incoming):
                fresh = {d for d in incoming}
                fresh = sorted(fresh)
                for item in fresh:
                    yield item
            """
        )
        assert diags == []

    def test_loop_target_shadows_tracked_name(self):
        diags = lint_snippet(
            """
            def scan(rows):
                item = {1, 2}
                total = len(item)
                for item in rows:
                    for cell in item:
                        yield cell, total
            """
        )
        assert diags == []

    def test_tracking_is_scope_local(self):
        diags = lint_snippet(
            """
            def first(incoming):
                fresh = {d for d in incoming}
                return len(fresh)

            def second(fresh):
                for item in fresh:
                    yield item
            """
        )
        assert diags == []

    def test_module_scope_pending_flushes(self):
        diags = lint_snippet(
            """
            IDS = list({1, 2, 3})
            """
        )
        assert codes(diags) == ["DET004"]
