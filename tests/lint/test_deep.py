"""Interprocedural taint (DET1xx) and shard-safety (SHD) pass semantics.

The deep fixture packages under ``fixtures/deep/`` prove each code fires
and stays silent (see test_catalog_fixtures); these tests pin down the
*shape* of the findings — where a chain finding anchors, how direct-in-root
sources defer to their per-file twins, how pragmas and custom roots files
interact with the whole-program passes.
"""

from __future__ import annotations

import os

from repro.lint import analyze_project, deep_check
from repro.lint.roots import parse_roots
from repro.lint.taint import collect_sources

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "deep")


def project(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return str(tmp_path)


ROOTS = ["engine.py::Engine.run_round"]


class TestChainAnchoring:
    def test_finding_anchors_at_the_clean_call_site(self):
        root = os.path.join(FIXTURES, "det101_clock_via_helper")
        (diag,) = deep_check(root=root, package=(), roots=ROOTS)
        # The reported position is the innocent-looking call inside the
        # root — not the time.time() two hops away...
        assert diag.code == "DET101"
        assert diag.file.endswith("engine.py")
        assert diag.line == 8
        # ...but the message walks the whole chain down to the source.
        assert "clockutil.py:5" in diag.message
        assert (
            "engine.py::Engine.run_round -> metrics.py::record "
            "-> clockutil.py::now_stamp" in diag.message
        )

    def test_source_in_one_module_sink_via_another(self, tmp_path):
        # The acceptance shape: the source module is never imported by the
        # root; only the intermediary sees it.
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "import middle\n"
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        return middle.relay()\n"
                ),
                "middle.py": (
                    "import leaf\n"
                    "def relay():\n"
                    "    return leaf.stamp()\n"
                ),
                "leaf.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
            },
        )
        (diag,) = deep_check(root=root, package=(), roots=ROOTS)
        assert diag.code == "DET101"
        assert diag.file.endswith("engine.py")
        assert "leaf.py:3" in diag.message


class TestDirectInRoot:
    def test_covered_source_defers_to_per_file_twin(self, tmp_path):
        # time.time() directly in a root under sim/ belongs to DET003; the
        # deep pass must not double-report it.
        root = project(
            tmp_path,
            {
                "sim/engine.py": (
                    "import time\n"
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        return time.time()\n"
                ),
            },
        )
        diags = deep_check(
            root=root, package=(), roots=["sim/engine.py::Engine.run_round"]
        )
        assert diags == []

    def test_uncovered_source_is_reported_here(self, tmp_path):
        # id() has no per-file twin, so even a direct use in a root is the
        # deep pass's to report.
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "class Engine:\n"
                    "    def run_round(self, obj):\n"
                    "        return id(obj)\n"
                ),
            },
        )
        (diag,) = deep_check(root=root, package=(), roots=ROOTS)
        assert diag.code == "DET104"
        assert "directly in round hot path" in diag.message
        assert "engine.py::Engine.run_round" in diag.message


class TestColdSourcesStaySilent:
    def test_unreachable_source_is_not_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        return 0\n"
                ),
                "offline.py": (
                    "import time\n"
                    "def report():\n"
                    "    return time.time()\n"
                ),
            },
        )
        assert deep_check(root=root, package=(), roots=ROOTS) == []
        model = analyze_project(root=root, package=(), roots=ROOTS)
        assert [s.category for s in collect_sources(model.table)] == [
            "wallclock"
        ]


class TestDeepPragmas:
    FILES = {
        "engine.py": (
            "import helper\n"
            "class Engine:\n"
            "    def run_round(self):\n"
            "        return helper.stamp()  # repro-lint: disable=DET101\n"
        ),
        "helper.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    }

    def test_pragma_at_anchor_line_suppresses(self, tmp_path):
        root = project(tmp_path, self.FILES)
        assert deep_check(root=root, package=(), roots=ROOTS) == []

    def test_no_pragmas_mode_reports_anyway(self, tmp_path):
        root = project(tmp_path, self.FILES)
        (diag,) = deep_check(
            root=root, package=(), roots=ROOTS, respect_pragmas=False
        )
        assert diag.code == "DET101"


class TestRootsFile:
    def test_parse_roots_skips_comments_and_blanks(self):
        patterns = parse_roots(
            "# engine entry points\n"
            "\n"
            "engine.py::Engine.run_round  # the driver\n"
            "*::*.step\n"
        )
        assert patterns == ["engine.py::Engine.run_round", "*::*.step"]

    def test_bare_pattern_matches_any_path(self, tmp_path):
        root = project(
            tmp_path,
            {
                "somewhere.py": (
                    "import time\n"
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        return self.helper()\n"
                    "    def helper(self):\n"
                    "        return time.time()\n"
                ),
            },
        )
        diags = deep_check(root=root, package=(), roots=["Engine.run_round"])
        assert [d.code for d in diags] == ["DET101"]


class TestShardDetails:
    def test_local_shadow_is_not_a_global_mutation(self, tmp_path):
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "import state\n"
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        state.work()\n"
                ),
                "state.py": (
                    "CACHE = {}\n"
                    "def work():\n"
                    "    CACHE = {}\n"
                    "    CACHE['k'] = 1\n"
                    "    return CACHE\n"
                ),
            },
        )
        assert deep_check(root=root, package=(), roots=ROOTS) == []

    def test_global_declaration_defeats_the_shadow(self, tmp_path):
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "import state\n"
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        state.work()\n"
                ),
                "state.py": (
                    "CACHE = {}\n"
                    "def work():\n"
                    "    global CACHE\n"
                    "    CACHE = {}\n"
                ),
            },
        )
        diags = deep_check(root=root, package=(), roots=ROOTS)
        assert [d.code for d in diags] == ["SHD001"]
        assert "global rebind" in diags[0].message

    def test_cold_mutator_is_not_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        return 0\n"
                ),
                "state.py": (
                    "CACHE = {}\n"
                    "def reset():\n"
                    "    CACHE.clear()\n"
                ),
            },
        )
        assert deep_check(root=root, package=(), roots=ROOTS) == []

    def test_class_scope_rng_flagged_even_when_cold(self, tmp_path):
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        return 0\n"
                ),
                "draws.py": (
                    "import random\n"
                    "class Chooser:\n"
                    "    rng = random.Random(7)\n"
                ),
            },
        )
        diags = deep_check(root=root, package=(), roots=ROOTS)
        assert [d.code for d in diags] == ["SHD002"]
        assert "class Chooser" in diags[0].message

    def test_mutable_default_outside_covered_layers_allowed(self, tmp_path):
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "class Engine:\n"
                    "    def run_round(self):\n"
                    "        return 0\n"
                ),
                "util.py": "def push(item, buf=[]):\n    buf.append(item)\n",
            },
        )
        assert deep_check(root=root, package=(), roots=ROOTS) == []


class TestRealTree:
    def test_installed_package_deep_check_is_clean(self):
        assert deep_check() == []

    def test_model_covers_the_engine(self):
        model = analyze_project()
        assert "sim.engine.Engine.run_round" in model.roots
        assert len(model.hot) > 100  # the round really fans out
        # Protocol steps are hot through the roots file, not luck.
        assert any(q.endswith(".step") for q in model.roots)
        # ... and so are the per-layer hooks GossipProtocol's template
        # methods dispatch to, which `self.` resolution alone cannot reach.
        assert "gossip.vicinity.Vicinity._offer" in model.hot
        assert "core.layers.uo2.DistantComponentOverlay._absorb" in model.hot
