"""Plain-text and markdown table rendering for experiment output.

No plotting dependency: the paper's "figures" are reproduced as tables /
series; the markdown form is what the reproduction report printed by
``repro-label experiment`` is made of.
"""

from __future__ import annotations

from typing import Any, Sequence


def _fmt(x: Any) -> str:
    """Format one cell: floats get adaptive precision, rest ``str``."""
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) < 1e-3 or abs(x) >= 1e6:
            return f"{x:.2e}"
        return f"{x:.4f}".rstrip("0").rstrip(".")
    return str(x)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(items: Sequence[str]) -> str:
        """Join one row's cells at the computed column widths."""
        return "  ".join(s.ljust(w) for s, w in zip(items, widths)).rstrip()

    sep = "  ".join("-" * w for w in widths)
    out = [line(list(headers)), sep]
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def render_markdown(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """GitHub-flavoured markdown table (``|`` inside a cell is escaped)."""
    cells = [[_fmt(c).replace("|", "\\|") for c in row] for row in rows]
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    out.extend("| " + " | ".join(r) + " |" for r in cells)
    return "\n".join(out)
