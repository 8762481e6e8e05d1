"""Inline pragma parsing and its integration with the determinism pass."""

from __future__ import annotations

from repro.diagnostics import ERROR, Diagnostic
from repro.lint import lint_python_source, parse_pragmas
from repro.lint.pragmas import apply_pragmas, is_disabled


def diag(code, line, file="mod.py"):
    return Diagnostic(code=code, severity=ERROR, message="m", file=file, line=line)


class TestParsing:
    def test_same_line_pragma(self):
        pragmas = parse_pragmas("x = 1  # repro-lint: disable=DET004\n")
        assert pragmas == {1: {"DET004"}}

    def test_next_line_pragma(self):
        source = "# repro-lint: disable-next-line=DET003\nimport time\n"
        assert parse_pragmas(source) == {2: {"DET003"}}

    def test_multiple_codes(self):
        pragmas = parse_pragmas("x  # repro-lint: disable=DET003,DET007\n")
        assert pragmas == {1: {"DET003", "DET007"}}

    def test_all_sentinel(self):
        pragmas = parse_pragmas("x  # repro-lint: disable=all\n")
        assert is_disabled(pragmas, "DET004", 1)
        assert is_disabled(pragmas, "SHD001", 1)

    def test_codes_are_case_normalized(self):
        pragmas = parse_pragmas("x  # repro-lint: disable=det004\n")
        assert is_disabled(pragmas, "DET004", 1)

    def test_unrelated_comments_ignored(self):
        assert parse_pragmas("x = 1  # just a comment\n") == {}


class TestApplication:
    def test_apply_filters_only_matching_lines(self):
        sources = {"mod.py": "a\nb\nc  # repro-lint: disable=DET004\nd\n"}
        survivors = apply_pragmas(
            [
                diag("DET004", 3),
                diag("DET004", 4),
                diag("DET005", 3),
                diag("DET004", 3, file="other.py"),
            ],
            sources,
        )
        assert [(d.code, d.file, d.line) for d in survivors] == [
            ("DET004", "mod.py", 4),
            ("DET005", "mod.py", 3),
            ("DET004", "other.py", 3),
        ]


class TestLinterIntegration:
    SOURCE = (
        "def merge(view):\n"
        "    for item in {1, 2, 3}:  # repro-lint: disable=DET004\n"
        "        view.append(item)\n"
    )

    def test_pragma_suppresses_per_file_finding(self):
        assert lint_python_source(self.SOURCE, "gossip/views.py") == []

    def test_next_line_spelling_in_context(self):
        source = (
            "def merge(view):\n"
            "    # repro-lint: disable-next-line=DET004\n"
            "    for item in {1, 2, 3}:\n"
            "        view.append(item)\n"
        )
        assert lint_python_source(source, "gossip/views.py") == []

    def test_pragma_for_other_code_does_not_suppress(self):
        source = (
            "def merge(view):\n"
            "    for item in {1, 2}:  # repro-lint: disable=DET005\n"
            "        view.append(item)\n"
        )
        diags = lint_python_source(source, "gossip/views.py")
        assert [d.code for d in diags] == ["DET004"]
