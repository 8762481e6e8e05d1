"""Whole-program semantics of the determinism (DET) and shard-safety (SHD) passes.

The fixture packages under ``fixtures/deep/`` prove each code fires and
stays silent (see test_catalog_fixtures); these tests pin down the *shape*
of the findings — where a chain finding anchors, that a source is reported
once whether its site rule or a root claims it, how pragmas and root
patterns interact with the whole-program passes.
"""

from __future__ import annotations

import os

from repro.lint import analyze_project, lint_python_source, self_check

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
        root = os.path.join(FIXTURES, "det003_clock_via_helper")
        (diag,) = self_check(root=root, package=(), roots=ROOTS)
        # The reported position is the innocent-looking call inside the
        # root — not the time.time() two hops away...
        assert diag.code == "DET003"
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
        (diag,) = self_check(root=root, package=(), roots=ROOTS)
        assert diag.code == "DET003"
        assert diag.file.endswith("engine.py")
        assert "leaf.py:3" in diag.message


class TestDirectInRoot:
    def test_covered_source_defers_to_per_file_twin(self, tmp_path):
        # time.time() directly in a root under sim/ is inside DET003's site
        # scope: one finding, at the source, with the site message.
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
        (diag,) = self_check(
            root=root, package=(), roots=["sim/engine.py::Engine.run_round"]
        )
        assert (diag.code, diag.line) == ("DET003", 4)
        assert "round hot path" not in diag.message

    def test_uncovered_source_is_reported_here(self, tmp_path):
        # id() has no site scope, so a direct use in a root is reported
        # for the root.
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
        (diag,) = self_check(root=root, package=(), roots=ROOTS)
        assert diag.code == "DET006"
        assert "in round hot path engine.py::Engine.run_round" in diag.message


class TestOneFindingPerSource:
    def test_site_source_reached_from_a_root_is_reported_once(self, tmp_path):
        # random.random() in gossip/ is inside DET001's site scope *and*
        # reachable from the round root: one finding, at the source.
        root = project(
            tmp_path,
            {
                "engine.py": (
                    "from gossip import peers\n"
                    "class Engine:\n"
                    "    def run_round(self, view):\n"
                    "        return peers.pick(view)\n"
                ),
                "gossip/__init__.py": "",
                "gossip/peers.py": (
                    "import random\n"
                    "def pick(view):\n"
                    "    return random.choice(view)\n"
                ),
            },
        )
        (diag,) = self_check(root=root, package=(), roots=ROOTS)
        assert diag.code == "DET001"
        assert diag.file.endswith("peers.py")
        assert diag.line == 3


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
        assert self_check(root=root, package=(), roots=ROOTS) == []
        # The scanner does see the source: the same text under sim/ fires.
        source = (tmp_path / "offline.py").read_text(encoding="utf-8")
        assert [d.code for d in lint_python_source(source, "sim/offline.py")] == [
            "DET003"
        ]


class TestDeepPragmas:
    FILES = {
        "engine.py": (
            "import helper\n"
            "class Engine:\n"
            "    def run_round(self):\n"
            "        return helper.stamp()  # repro-lint: disable=DET003\n"
        ),
        "helper.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    }

    def test_pragma_at_anchor_line_suppresses(self, tmp_path):
        root = project(tmp_path, self.FILES)
        assert self_check(root=root, package=(), roots=ROOTS) == []

    def test_pragma_at_source_line_suppresses(self, tmp_path):
        files = {
            "engine.py": (
                "import helper\n"
                "class Engine:\n"
                "    def run_round(self):\n"
                "        return helper.stamp()\n"
            ),
            "helper.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro-lint: disable=DET003\n"
            ),
        }
        root = project(tmp_path, files)
        assert self_check(root=root, package=(), roots=ROOTS) == []


class TestRootsFile:
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
        diags = self_check(root=root, package=(), roots=["Engine.run_round"])
        assert [d.code for d in diags] == ["DET003"]


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
        assert self_check(root=root, package=(), roots=ROOTS) == []

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
        diags = self_check(root=root, package=(), roots=ROOTS)
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
        assert self_check(root=root, package=(), roots=ROOTS) == []

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
        diags = self_check(root=root, package=(), roots=ROOTS)
        assert [d.code for d in diags] == ["SHD002"]
        assert "class Chooser" in diags[0].message


class TestRealTree:
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

    def test_the_shard_protocol_is_hot(self):
        # Every step of the sharded engine runs through ShardState.step; a
        # dynamic dispatch there would hide the phases from both passes.
        hot = analyze_project().hot
        shard_state = "scale.engine.ShardState."
        for method in ("request", "respond", "absorb", "verdict", "adjacency"):
            assert shard_state + method in hot
        assert {"scale.engine._seal", "scale.engine._unseal"} <= hot

    def test_the_live_path_is_hot(self):
        # The round coroutine and the receive handler run on the node's
        # loop; each is a root itself, and reaches the exchange's wait or
        # the frame dispatch.
        model = analyze_project()
        for root, reached in (
            ("runtime.net.NetRunner._round", "runtime.net.NetEndpoint.request"),
            ("runtime.net.NetEndpoint.on_datagram", "runtime.net.NetEndpoint._handle_frame"),
        ):
            assert root in model.roots
            assert reached in model.graph.reachable_from([root])
