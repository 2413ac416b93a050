"""Shared experiment utilities: timing and table formatting."""
from __future__ import annotations

import time
from typing import Callable, TypeVar

T = TypeVar("T")


def timed(fn: Callable[[], T]) -> tuple[T, float]:
    """Run ``fn`` and return (result, wall seconds)."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def format_table(rows: list[dict]) -> str:
    """Render dict rows as an aligned plain-text table (jobs print these).

    The columns are the first row's keys, in order.
    """
    columns = list(rows[0]) if rows else []
    cells = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
