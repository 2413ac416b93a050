"""Degree-ordered greedy graph colouring (paper ref. [35]).

Colours an undirected graph so adjacent vertices get different colours,
processing vertices in non-increasing degree order (ties by id) and giving
each the smallest colour unused by its already-coloured neighbours. Used by
the colorful fair α-β core pruning, where the number of distinct colours in
an ego neighbourhood upper-bounds its clique size.
"""
from __future__ import annotations

from repro.core.twohop import Adjacency


def greedy_color(adj: Adjacency) -> dict[int, int]:
    """Colour ``adj``; returns vertex -> colour (0-based). Deterministic."""
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    color: dict[int, int] = {}
    for v in order:
        used = {color[w] for w in adj[v] if w in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color
