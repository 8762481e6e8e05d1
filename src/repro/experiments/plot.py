"""ASCII plotting for benchmark outputs.

The benches archive numeric tables; these helpers add a rough visual of the
same series — enough to eyeball the rise-then-plateau of Figure 4 or the
growth trends of Figures 2/3 in a terminal or a results file, without any
plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Glyphs per series, assigned in declaration order.
_GLYPHS = "*o+x#@%&"


def ascii_chart(
    series: Dict[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Render one or more numeric series as an ASCII scatter chart.

    All series share the y-scale (0 .. max over all values) and are sampled
    onto ``width`` columns. Overlapping points keep the first series' glyph.
    """
    named = [(name, list(values)) for name, values in series.items() if values]
    if not named or height < 2 or width < 2:
        return "(no data)"
    y_max = max(max(values) for _, values in named) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (_, values) in enumerate(named):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        n = len(values)
        for column in range(width):
            # Sample the series position for this column.
            position = column * (n - 1) / (width - 1) if width > 1 else 0
            value = values[min(n - 1, round(position))]
            row = height - 1 - round((value / y_max) * (height - 1))
            row = min(height - 1, max(0, row))
            if grid[row][column] == " ":
                grid[row][column] = glyph

    lines: List[str] = []
    top_label = f"{y_max:g}"
    lines.append(f"{top_label:>8} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 8 + " │" + "".join(row))
    lines.append(f"{0:>8} ┴" + "".join(grid[-1]))
    if x_label:
        lines.append(" " * 10 + x_label)
    legend = "   ".join(
        f"{_GLYPHS[index % len(_GLYPHS)]} {name}"
        for index, (name, _) in enumerate(named)
    )
    lines.append(" " * 10 + legend)
    if y_label:
        lines.insert(0, f"{y_label}")
    return "\n".join(lines)

