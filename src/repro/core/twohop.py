"""2-hop graphs on the fair side (Algorithm 3 and Algorithm 8).

``Construct2HopGraph`` connects two fair-side vertices iff they share at
least ``alpha`` common neighbours; the bi-side variant
(``BiConstruct2HopGraph``) requires at least ``alpha`` common neighbours *of
every upper-side attribute value*. Algorithm 3 is Algorithm 8 over a
one-value U domain, so both run one Σd² count, :func:`_common_pairs`, on the
graph's cached :class:`~repro.graph.bipartite.EdgeArrays`.

The functions take the fair side as the lower side ``V``; to build the
upper-side 2-hop graph used by BCFCore, pass ``g.mirror()``.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graph.bipartite import BipartiteGraph

Adjacency = dict[int, set[int]]


def two_hop(g: BipartiteGraph, alpha: int) -> Adjacency:
    """Algorithm 3: undirected 2-hop adjacency over ``V`` (common neighbours >= alpha)."""
    return _common_pairs(g, alpha, bi=False)


def bi_two_hop(g: BipartiteGraph, alpha: int) -> Adjacency:
    """Algorithm 8: 2-hop adjacency requiring >= alpha common neighbours per A(U) value."""
    return _common_pairs(g, alpha, bi=True)


def _common_pairs(g: BipartiteGraph, alpha: int, bi: bool) -> Adjacency:
    """Lower pairs with >= ``alpha`` common neighbours of each A(U) value (of
    any value without ``bi``). A pair seen from an upper vertex of value code
    ``a`` gets the key ``(v1·n_v + v2)·k + a``, and one sort counts the keys."""
    if alpha < 1:
        raise ValueError("the 2-hop graphs require alpha >= 1")
    arr = g.arrays
    ptr, eu, ev, n_v = arr.ptr_u, arr.eu, arr.ev, arr.v_ids.size
    k = len(g.attrs_u) if bi else 1
    # Edge e pairs with the `later[e]` edges after it in its upper vertex's run.
    later = ptr[1:][eu] - np.arange(eu.size) - 1
    first = np.repeat(np.arange(eu.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    v1, v2 = ev[first], ev[second]
    key = (np.minimum(v1, v2) * n_v + np.maximum(v1, v2)) * k
    if bi:
        key += arr.u_code[eu[first]]
    keys, counts = np.unique(key, return_counts=True)
    pairs, values = np.unique(keys[counts >= alpha] // k, return_counts=True)
    lo, hi = np.divmod(pairs[values == k], n_v)
    ids = arr.v_ids
    return adjacency_from_pairs(zip(ids[lo].tolist(), ids[hi].tolist()), g.adj_v)


def adjacency_from_pairs(
    pairs: Iterable[tuple[int, int]], vertices: Iterable[int]
) -> Adjacency:
    """Build an undirected adjacency dict from (v1, v2) pairs over ``vertices``."""
    adj: Adjacency = {v: set() for v in vertices}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj
