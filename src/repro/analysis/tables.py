"""Paper-style table rendering.

Callers accumulate dict rows and print them through :func:`render_table`:
the claims table (``benchmarks/test_claims.py``; ``pytest -s`` shows it),
the session reports and the examples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def render_table(rows: Sequence[Dict[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(c) for c in columns]
    body = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body))
        for i in range(len(header))
    ]
    sep = "-+-".join("-" * w for w in widths)
    out_lines: List[str] = []
    if title:
        out_lines.append(title)
    out_lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    out_lines.append(sep)
    for line in body:
        out_lines.append(
            " | ".join(cell.ljust(w) for cell, w in zip(line, widths))
        )
    return "\n".join(out_lines)


def print_table(rows: Sequence[Dict[str, object]],
                columns: Optional[Sequence[str]] = None,
                title: Optional[str] = None) -> None:
    print()
    print(render_table(rows, columns=columns, title=title))
    print()


def ratio(measured: float, bound: float) -> float:
    """measured / bound -- a row passes its theorem check when <= 1."""
    if bound <= 0:
        return float("inf")
    return measured / bound
