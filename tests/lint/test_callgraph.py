"""Symbol table and call-graph construction on synthetic fixture packages.

Each test materializes a small package in ``tmp_path`` and builds the
project model over it — the same code path ``repro lint --self-check`` uses, but
with topologies chosen to stress one resolution mechanism at a time:
cycles, dynamic-dispatch fallback, re-exported symbols, nested defs, and
callback references.
"""

from __future__ import annotations

import pytest

from repro.lint.callgraph import FALLBACK_LIMIT, CallGraph
from repro.lint.symbols import SymbolTable, module_name_for


def build(tmp_path, files, package=()):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    table = SymbolTable.build(str(tmp_path), package)
    return table, CallGraph.build(table)


def edge_pairs(graph):
    return {
        (site.caller, site.callee)
        for sites in graph.edges.values()
        for site in sites
    }


class TestSymbolTable:
    def test_module_names(self):
        assert module_name_for("gossip/views.py") == "gossip.views"
        assert module_name_for("gossip/__init__.py") == "gossip"
        assert module_name_for("__init__.py") == ""
        assert module_name_for("engine.py") == "engine"

    def test_functions_and_methods_indexed(self, tmp_path):
        table, _ = build(
            tmp_path,
            {
                "mod.py": (
                    "def plain():\n"
                    "    pass\n"
                    "class Box:\n"
                    "    def method(self):\n"
                    "        def inner():\n"
                    "            pass\n"
                    "        return inner\n"
                )
            },
        )
        assert set(table.functions) == {
            "mod.plain",
            "mod.Box.method",
            "mod.Box.method.inner",
        }
        info = table.functions["mod.Box.method"]
        assert info.class_name == "Box"
        assert info.display() == "mod.py::Box.method"

    def test_class_name_resolves_to_constructor(self, tmp_path):
        table, _ = build(
            tmp_path,
            {
                "things.py": (
                    "class Thing:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                )
            },
        )
        info = table.function("things.Thing")
        assert info is not None and info.qname == "things.Thing.__init__"

    def test_reexported_symbol_resolves_through_init(self, tmp_path):
        table, graph = build(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.impl import helper\n",
                "pkg/impl.py": "def helper():\n    pass\n",
                "user.py": (
                    "from pkg import helper\n"
                    "def caller():\n"
                    "    helper()\n"
                ),
            },
        )
        # The alias chain user->pkg.helper->pkg.impl.helper dealiases.
        resolved = table.resolve(table.modules["user"], "helper")
        assert resolved is not None and resolved.qname == "pkg.impl.helper"
        assert ("user.caller", "pkg.impl.helper") in edge_pairs(graph)

    def test_relative_import_resolves(self, tmp_path):
        table, graph = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": (
                    "from .b import leaf\n"
                    "def entry():\n"
                    "    leaf()\n"
                ),
                "pkg/b.py": "def leaf():\n    pass\n",
            },
        )
        assert ("pkg.a.entry", "pkg.b.leaf") in edge_pairs(graph)

    def test_package_prefix_strips(self, tmp_path):
        table, graph = build(
            tmp_path,
            {
                "sub/util.py": "def work():\n    pass\n",
                "main.py": (
                    "from myproj.sub import util\n"
                    "def go():\n"
                    "    util.work()\n"
                ),
            },
            package=("myproj",),
        )
        assert ("main.go", "sub.util.work") in edge_pairs(graph)


class TestCallGraph:
    def test_cycle_is_built_and_reachability_terminates(self, tmp_path):
        _, graph = build(
            tmp_path,
            {
                "a.py": (
                    "import b\n"
                    "def ping(n):\n"
                    "    return b.pong(n - 1)\n"
                ),
                "b.py": (
                    "import a\n"
                    "def pong(n):\n"
                    "    return a.ping(n - 1)\n"
                ),
            },
        )
        pairs = edge_pairs(graph)
        assert ("a.ping", "b.pong") in pairs
        assert ("b.pong", "a.ping") in pairs
        assert graph.reachable_from(["a.ping"]) == {"a.ping", "b.pong"}

    def test_shortest_path_through_a_cycle(self, tmp_path):
        _, graph = build(
            tmp_path,
            {
                "a.py": (
                    "import b\n"
                    "def ping(n):\n"
                    "    return b.pong(n - 1)\n"
                ),
                "b.py": (
                    "import a\n"
                    "def pong(n):\n"
                    "    return a.ping(n - 1)\n"
                ),
            },
        )
        path = graph.shortest_path(["a.ping"], "b.pong")
        assert [site.callee for site in path] == ["b.pong"]
        assert graph.shortest_path(["a.ping"], "a.ping") == []

    def test_self_method_resolution(self, tmp_path):
        _, graph = build(
            tmp_path,
            {
                "proto.py": (
                    "class Layer:\n"
                    "    def step(self, ctx):\n"
                    "        self.exchange(ctx)\n"
                    "    def exchange(self, ctx):\n"
                    "        pass\n"
                )
            },
        )
        pairs = edge_pairs(graph)
        assert ("proto.Layer.step", "proto.Layer.exchange") in pairs
        (site,) = [
            s for s in graph.edges["proto.Layer.step"] if s.via == "self"
        ]
        assert site.callee == "proto.Layer.exchange"

    def test_dynamic_dispatch_falls_back_to_name(self, tmp_path):
        _, graph = build(
            tmp_path,
            {
                "driver.py": (
                    "def run(layers, ctx):\n"
                    "    for layer in layers:\n"
                    "        layer.exchange(ctx)\n"
                ),
                "impl.py": (
                    "class Gossip:\n"
                    "    def exchange(self, ctx):\n"
                    "        pass\n"
                    "class Heal:\n"
                    "    def exchange(self, ctx):\n"
                    "        pass\n"
                ),
            },
        )
        fallback = {
            (site.caller, site.callee)
            for sites in graph.edges.values()
            for site in sites
            if site.via == "fallback"
        }
        assert ("driver.run", "impl.Gossip.exchange") in fallback
        assert ("driver.run", "impl.Heal.exchange") in fallback

    def test_fallback_skips_plain_functions(self, tmp_path):
        _, graph = build(
            tmp_path,
            {
                "driver.py": (
                    "def run(obj, ctx):\n"
                    "    obj.transmogrify(ctx)\n"
                ),
                "impl.py": "def transmogrify(ctx):\n    pass\n",
            },
        )
        # A free function is never attribute-dispatched.
        assert edge_pairs(graph) == set()

    def test_fallback_bounded_by_limit(self, tmp_path):
        classes = "\n".join(
            f"class C{i}:\n    def widely(self):\n        pass"
            for i in range(FALLBACK_LIMIT + 1)
        )
        _, graph = build(
            tmp_path,
            {
                "impl.py": classes + "\n",
                "driver.py": "def run(obj):\n    obj.widely()\n",
            },
        )
        assert "driver.run" not in graph.edges

    def test_nested_def_edge(self, tmp_path):
        _, graph = build(
            tmp_path,
            {
                "mod.py": (
                    "def outer():\n"
                    "    def inner():\n"
                    "        pass\n"
                    "    return inner\n"
                )
            },
        )
        (site,) = graph.edges["mod.outer"]
        assert site.callee == "mod.outer.inner"
        assert site.via == "nested"

    def test_callback_reference_edge(self, tmp_path):
        _, graph = build(
            tmp_path,
            {
                "keys.py": "def key_of(obj):\n    return obj.node_id\n",
                "driver.py": (
                    "import keys\n"
                    "def run(nodes):\n"
                    "    return sorted(nodes, key=keys.key_of)\n"
                ),
            },
        )
        refs = [
            site
            for sites in graph.edges.values()
            for site in sites
            if site.via == "ref"
        ]
        assert [(s.caller, s.callee) for s in refs] == [
            ("driver.run", "keys.key_of")
        ]

    def test_syntax_error_module_is_skipped(self, tmp_path):
        table, graph = build(
            tmp_path,
            {
                "broken.py": "def oops(:\n",
                "fine.py": "def ok():\n    pass\n",
            },
        )
        assert "broken" not in table.modules
        assert "fine.ok" in table.functions
        # ... but it is recorded, for the determinism pass to report.
        assert [file.endswith("broken.py") for file, _ in table.unparseable] == [True]


@pytest.mark.parametrize("pattern,expected", [
    ("engine.py::Engine.run_round", {"engine.Engine.run_round"}),
    ("*::*.step", {"layer.Layer.step"}),
    ("missing.py::*", set()),
])
def test_root_patterns_match(tmp_path, pattern, expected):
    from repro.lint.roots import match_roots

    table, _ = build(
        tmp_path,
        {
            "engine.py": (
                "class Engine:\n"
                "    def run_round(self):\n"
                "        pass\n"
            ),
            "layer.py": (
                "class Layer:\n"
                "    def step(self, ctx):\n"
                "        pass\n"
            ),
        },
    )
    assert set(match_roots(table, [pattern])) == expected
