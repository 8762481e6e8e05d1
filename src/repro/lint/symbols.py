"""Whole-program symbol table: the project model every source pass reads.

Every module under a package root is parsed once, every function and method
indexed by qualified name, and every import edge recorded so a call spelled
``views.merge(...)`` or a symbol re-exported through an ``__init__.py`` can
be resolved back to its definition — and so ``perf_counter`` imported from
``time`` is known to be the stdlib clock. A module that does not parse is
recorded in :attr:`SymbolTable.unparseable` for the determinism pass to
report (``DET000``).

The model is purely syntactic — no imports are executed — which keeps it
safe to run on fixture packages that would not even import (that is the
point: broken code must still be lintable).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Import targets outside the analyzed package are recorded with this
#: prefix so resolution can tell "unknown project symbol" from "stdlib".
EXTERNAL_PREFIX = "<ext>"


def package_root() -> str:
    """The directory of the installed ``repro`` package."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def iter_python_files(root: str) -> Iterable[str]:
    """Every ``.py`` file under ``root``, deterministically ordered."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def dotted_of(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a dotted string, when the expression is that simple."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def own_nodes(func_node: ast.AST) -> Iterable[ast.AST]:
    """Every node of a function, nested def/class bodies excluded."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def target_names(target: ast.expr) -> List[str]:
    """Names bound by an assignment or loop target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(target_names(element))
        return names
    return []


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    #: Fully qualified name: ``<module dotted name>.<qualname>``
    #: (``gossip.views.View.merge``).
    qname: str
    #: Qualified name within the module (``View.merge`` or ``merge``).
    local_qname: str
    #: Dotted module name relative to the package root (``gossip.views``).
    module: str
    #: Module path relative to the package root (``gossip/views.py``).
    rel_path: str
    #: Absolute on-disk path, for diagnostics.
    file: str
    node: ast.AST = field(repr=False)  # FunctionDef | AsyncFunctionDef
    #: Enclosing class name for methods, ``None`` for plain functions.
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.local_qname.rsplit(".", 1)[-1]

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)

    def display(self) -> str:
        """Human-facing spelling used in diagnostic chains."""
        return f"{self.rel_path}::{self.local_qname}"


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    #: Dotted name relative to the package root (``gossip.views``;
    #: ``gossip`` for ``gossip/__init__.py``).
    name: str
    rel_path: str
    file: str
    tree: ast.Module = field(repr=False)
    source: str = field(repr=False, default="")
    #: Local name → dotted target. Module imports map to the module
    #: (``views`` → ``gossip.views``); ``from`` imports map to the symbol
    #: (``View`` → ``gossip.views.View``). External targets are prefixed
    #: with :data:`EXTERNAL_PREFIX` (``time`` → ``<ext>time``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Functions/methods defined here, keyed by in-module qualname.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Names of classes defined at module level.
    classes: List[str] = field(default_factory=list)

    def external(self, node: ast.expr) -> Optional[str]:
        """The stdlib dotted name an expression denotes, if it is one.

        ``time.perf_counter`` → ``time.perf_counter`` (via ``import time``),
        ``perf_counter`` → ``time.perf_counter`` (via a ``from`` import),
        ``dt.datetime.now`` → ``datetime.datetime.now``.
        """
        dotted = dotted_of(node)
        if dotted is None:
            return None
        head, _, tail = dotted.partition(".")
        target = self.imports.get(head)
        if target is None or not target.startswith(EXTERNAL_PREFIX):
            return None
        base = target[len(EXTERNAL_PREFIX) :]
        return f"{base}.{tail}" if tail else base


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a package-root-relative path."""
    name = rel_path[: -len(".py")] if rel_path.endswith(".py") else rel_path
    name = name.replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    elif name == "__init__":
        name = ""
    return name


class SymbolTable:
    """The project model: every module, function, and import edge.

    Parameters
    ----------
    root:
        Directory whose ``.py`` files form the project. Module names are
        derived from paths relative to it.
    package:
        Importable prefixes that denote *this* project in absolute imports
        (``repro`` for the real tree, so ``from repro.gossip import views``
        resolves internally). Fixture packages usually pass ``()`` and rely
        on top-level/relative imports.
    """

    def __init__(self, root: str, package: Tuple[str, ...] = ("repro",)):
        self.root = root
        self.package = tuple(package)
        self.modules: Dict[str, ModuleInfo] = {}
        #: Every function in the project, keyed by fully qualified name.
        self.functions: Dict[str, FunctionInfo] = {}
        #: Dynamic-dispatch fallback index: bare name → definitions.
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: Re-export aliases: alias qname → target dotted name, from
        #: ``from x import y [as z]`` at module scope.
        self.aliases: Dict[str, str] = {}
        #: (file, error) for every module that failed to parse.
        self.unparseable: List[Tuple[str, SyntaxError]] = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls, root: Optional[str] = None, package: Tuple[str, ...] = ("repro",)
    ) -> "SymbolTable":
        """Parse every module under ``root`` into a symbol table."""
        if root is None:
            root = package_root()
        table = cls(root, package)
        for path in iter_python_files(root):
            rel_path = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "r", encoding="utf-8") as handle:
                table._add_module(rel_path, path, handle.read())
        table._finish()
        return table

    @classmethod
    def from_source(cls, source: str, rel_path: str, file: str) -> "SymbolTable":
        """A one-module table; ``rel_path`` selects the rules that apply."""
        table = cls("", ())
        table._add_module(rel_path, file, source)
        table._finish()
        return table

    def _finish(self) -> None:
        # Imports are indexed after every module is added so `_strip_package`
        # can see the complete module set when classifying internal vs external.
        for module in self.modules.values():
            self._index_imports(module)
        self._link()

    def _add_module(self, rel_path: str, file: str, source: str) -> None:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            self.unparseable.append((file, exc))
            return
        name = module_name_for(rel_path)
        info = ModuleInfo(
            name=name, rel_path=rel_path, file=file, tree=tree, source=source
        )
        self.modules[name] = info
        self._index_functions(info)

    def _strip_package(self, dotted: str) -> Optional[str]:
        """Normalize an absolute import target to a root-relative name.

        Returns ``None`` when the target is outside the project.
        """
        for prefix in self.package:
            if dotted == prefix:
                return ""
            if dotted.startswith(prefix + "."):
                return dotted[len(prefix) + 1 :]
        # Top-level spelling that matches an analyzed module ("pkg_a.mod"
        # in a fixture package rooted above "pkg_a/").
        head = dotted.split(".")[0]
        if head in self.modules or any(
            mod.startswith(head + ".") for mod in self.modules
        ):
            return dotted
        return None

    def _resolve_relative(self, module: ModuleInfo, level: int, target: str) -> str:
        """Dotted base for a ``from ...target import name`` statement."""
        parts = module.name.split(".") if module.name else []
        if not module.rel_path.endswith("__init__.py"):
            parts = parts[:-1]  # level 1 is the containing package
        parts = parts[: len(parts) - (level - 1)] if level > 1 else parts
        if target:
            parts = parts + target.split(".")
        return ".".join(parts)

    def _index_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    internal = self._strip_package(alias.name)
                    if internal is not None:
                        # `import repro.gossip.views as gv` binds gv to the
                        # submodule; bare `import repro.gossip.views` binds
                        # only the root package name.
                        if alias.asname is None:
                            head = alias.name.split(".")[0]
                            target = "" if head in self.package else head
                        else:
                            target = internal
                        module.imports[bound] = target
                    else:
                        module.imports[bound] = EXTERNAL_PREFIX + alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._resolve_relative(module, node.level, node.module or "")
                else:
                    base = self._strip_package(node.module or "")
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "*":
                        continue
                    if base is None:
                        module.imports[bound] = (
                            EXTERNAL_PREFIX + (node.module or "") + "." + alias.name
                        )
                    else:
                        target = f"{base}.{alias.name}" if base else alias.name
                        module.imports[bound] = target

    def _index_functions(self, module: ModuleInfo) -> None:
        def visit(node: ast.AST, prefix: str, class_name: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local = f"{prefix}{child.name}"
                    qname = f"{module.name}.{local}" if module.name else local
                    info = FunctionInfo(
                        qname=qname,
                        local_qname=local,
                        module=module.name,
                        rel_path=module.rel_path,
                        file=module.file,
                        node=child,
                        class_name=class_name,
                    )
                    module.functions[local] = info
                    self.functions[qname] = info
                    self.by_name.setdefault(child.name, []).append(info)
                    visit(child, local + ".", class_name)
                elif isinstance(child, ast.ClassDef):
                    if not prefix:
                        module.classes.append(child.name)
                    visit(child, f"{prefix}{child.name}.", child.name)

        visit(module.tree, "", None)

    def _link(self) -> None:
        """Record re-export aliases (``pkg.Name`` → ``pkg.mod.Name``)."""
        for module in self.modules.values():
            for bound, target in module.imports.items():
                if target.startswith(EXTERNAL_PREFIX):
                    continue
                alias = f"{module.name}.{bound}" if module.name else bound
                if alias != target:
                    self.aliases[alias] = target

    # -- resolution -----------------------------------------------------------

    def _dealias(self, dotted: str, _depth: int = 0) -> str:
        """Follow re-export aliases to a canonical dotted name."""
        if _depth > 8:
            return dotted
        if dotted in self.aliases:
            return self._dealias(self.aliases[dotted], _depth + 1)
        # `pkg.sub.attr` where `pkg.sub` is itself an alias.
        if "." in dotted:
            head, tail = dotted.rsplit(".", 1)
            canonical = self._dealias(head, _depth + 1)
            if canonical != head:
                return self._dealias(f"{canonical}.{tail}", _depth + 1)
        return dotted

    def function(self, dotted: str) -> Optional[FunctionInfo]:
        """The function/method a canonical dotted name denotes, if any."""
        dotted = self._dealias(dotted)
        info = self.functions.get(dotted)
        if info is not None:
            return info
        # ``module.Class`` → its constructor.
        init = self.functions.get(dotted + ".__init__")
        if init is not None:
            return init
        return None

    def resolve(self, module: ModuleInfo, dotted: str) -> Optional[FunctionInfo]:
        """Resolve a name as used in ``module`` to a project function.

        ``dotted`` is the source spelling (``merge``, ``views.merge``,
        ``self.merge`` is handled by the call-graph builder instead).
        """
        head, _, tail = dotted.partition(".")
        # A name defined in this very module?
        candidates = []
        if module.name:
            candidates.append(f"{module.name}.{dotted}")
        else:
            candidates.append(dotted)
        # An imported name?
        target = module.imports.get(head)
        if target is not None and not target.startswith(EXTERNAL_PREFIX):
            candidates.append(f"{target}.{tail}" if tail else target)
        for candidate in candidates:
            info = self.function(candidate)
            if info is not None:
                return info
        return None

    @property
    def sources(self) -> Dict[str, str]:
        """On-disk path → source text of every parsed module."""
        return {module.file: module.source for module in self.modules.values()}

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]
