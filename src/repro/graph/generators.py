"""Synthetic attributed bipartite graph generators.

The paper evaluates on five non-attributed KONECT bipartite graphs and
*assigns attributes uniformly at random*. We mirror that protocol on
synthetic graphs (see DESIGN.md §3): a sparse uniform background (the long
tail of an affiliation network) plus planted overlapping dense blocks (the
communities that give real affiliation networks their nontrivial maximal
bicliques), with uniform random attributes on both sides.

All generators are deterministic in ``seed`` and return a local
:class:`~repro.graph.bipartite.BipartiteGraph`; ``to_spark`` turns one into
DataFrames for the DataFrame peel and the Spark-side tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph


def random_bipartite(
    n_u: int,
    n_v: int,
    p: float,
    *,
    n_attrs_u: int = 2,
    n_attrs_v: int = 2,
    seed: int = 0,
) -> BipartiteGraph:
    """Erdős–Rényi-style attributed bipartite graph G(n_u, n_v, p).

    Used by tests (tiny graphs cross-checked against brute force). Attribute
    domains are always the full ``range(n_attrs_*)`` even if a value does not
    occur, matching the paper's fixed ``A(U)``/``A(V)``.
    """
    g = np.random.default_rng(seed)
    mask = g.random((n_u, n_v)) < p
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
    u_val = {u: int(x) for u, x in enumerate(g.integers(0, n_attrs_u, n_u))}
    v_val = {v: int(x) for v, x in enumerate(g.integers(0, n_attrs_v, n_v))}
    return BipartiteGraph.from_edges(
        edges, u_val, v_val,
        attrs_u=range(n_attrs_u), attrs_v=range(n_attrs_v),
    )


@dataclass(frozen=True)
class PlantedSpec:
    """Shape parameters of a planted-block affiliation graph.

    ``n_u``/``n_v``/``n_background`` set the global scale; ``n_blocks``
    blocks of ``block_u`` x ``block_v`` vertices are planted with edge
    probability ``block_density`` (blocks may overlap, which creates the
    overlapping-maximal-biclique structure the enumeration algorithms are
    stressed by).
    """

    n_u: int
    n_v: int
    n_background: int
    n_blocks: int
    block_u: int
    block_v: int
    block_density: float = 0.95
    n_attrs_u: int = 2
    n_attrs_v: int = 2


def planted_bipartite(spec: PlantedSpec, *, seed: int = 0) -> BipartiteGraph:
    """Planted-block attributed bipartite graph (the Table I dataset family)."""
    g = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    # Background: uniform endpoints. Most of these vertices are exactly what
    # the fair α-β core pruning exists to remove.
    bu = g.integers(0, spec.n_u, spec.n_background)
    bv = g.integers(0, spec.n_v, spec.n_background)
    edges.update(zip(bu.tolist(), bv.tolist()))
    # Planted blocks: near-complete bipartite patches on random vertex picks.
    for _ in range(spec.n_blocks):
        us = g.choice(spec.n_u, size=min(spec.block_u, spec.n_u), replace=False)
        vs = g.choice(spec.n_v, size=min(spec.block_v, spec.n_v), replace=False)
        keep = g.random((len(us), len(vs))) < spec.block_density
        for i, j in zip(*np.nonzero(keep)):
            edges.add((int(us[i]), int(vs[j])))
    u_val = {u: int(x) for u, x in enumerate(g.integers(0, spec.n_attrs_u, spec.n_u))}
    v_val = {v: int(x) for v, x in enumerate(g.integers(0, spec.n_attrs_v, spec.n_v))}
    return BipartiteGraph.from_edges(
        sorted(edges), u_val, v_val,
        attrs_u=range(spec.n_attrs_u), attrs_v=range(spec.n_attrs_v),
    )
