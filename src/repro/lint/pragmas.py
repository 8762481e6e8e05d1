"""Inline suppression pragmas: ``# repro-lint: disable=CODE``.

A pragma acknowledges one specific finding at its source line — the
reviewed, intentional exception (a sanctioned clock read, a set iteration
feeding a commutative fold). It is the linter's one suppression mechanism.
Two spellings:

- ``# repro-lint: disable=DET003`` — suppress on the same line;
- ``# repro-lint: disable-next-line=DET003`` — suppress on the following
  line (for findings inside expressions that span formatting).

Several codes separate with commas (``disable=DET003,DET004``); ``all``
suppresses every code on that line. A pragma on a nondeterminism source's
own line acknowledges the source wherever it would be reported; a finding
reported at a call edge can also be acknowledged at that edge's line.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Set

from repro.diagnostics import Diagnostic

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-next-line)?)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]+)"
)

#: Sentinel meaning "every code".
ALL = "all"


def parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map of 1-based line number → set of disabled codes on that line."""
    disabled: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in line:
            continue
        for match in _PRAGMA_RE.finditer(line):
            codes = {
                code.strip().upper() if code.strip().lower() != ALL else ALL
                for code in match.group("codes").split(",")
                if code.strip()
            }
            target = lineno + 1 if match.group("kind").endswith("next-line") else lineno
            disabled.setdefault(target, set()).update(codes)
    return disabled


def is_disabled(pragmas: Dict[int, Set[str]], code: str, line: int) -> bool:
    codes = pragmas.get(line)
    return bool(codes) and (code in codes or ALL in codes)


def apply_pragmas(
    diagnostics: Iterable[Diagnostic], sources: Mapping[str, str]
) -> List[Diagnostic]:
    """Diagnostics not acknowledged by a pragma in their file.

    ``sources`` maps a diagnostic's ``file`` to that file's source text.
    """
    pragmas = {file: parse_pragmas(text) for file, text in sources.items()}
    return [
        diag
        for diag in diagnostics
        if not is_disabled(pragmas.get(diag.file, {}), diag.code, diag.line)
    ]
