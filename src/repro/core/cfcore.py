"""Colorful fair α-β core pruning: ``CFCore`` (Algorithm 2) and ``BCFCore``.

Pipeline (single-side): FCore → 2-hop graph on the fair side → drop
vertices with 2-hop degree < ``A_n^V * beta - 1`` → greedy colouring → ego
colourful β-core peel (Definitions 9/10) → remove pruned fair-side vertices
→ FCore again. The bi-side variant applies the bi-2-hop construction and an
ego colourful core on *both* sides before re-running BFCore.

Both pipelines run on one of two backends through one body: fully local
(mirroring the paper's single-machine setup), or hybrid Spark, in which the peeling and the Σd²
2-hop construction — the expensive, data-parallel parts — run as DataFrame
dataflow, while the inherently sequential greedy colouring and ego peel run
on the collected (already small) 2-hop graph. The U side of BCFCore runs the
V-side machinery on ``g.mirror()`` on either backend.
"""
from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from pyspark.sql import SparkSession

from repro.core.coloring import greedy_color
from repro.core.fcore import bfcore, fcore
from repro.core.fcore_df import bfcore_edges, fcore_edges
from repro.core.twohop import (
    Adjacency,
    adjacency_from_pairs,
    bi_two_hop,
    bi_two_hop_edges_df,
    two_hop,
    two_hop_edges_df,
)
from repro.graph.bipartite import BipartiteGraph


def ego_colorful_core(
    adj: Adjacency,
    val: Mapping[int, int],
    domain: Sequence[int],
    color: Mapping[int, int],
    k: int,
) -> set[int]:
    """Vertices of the ego colourful k-core (Definition 10) of ``adj``.

    ``ED_a(u)`` counts distinct colours among ``{u} ∪ N(u)`` restricted to
    attribute value ``a``; a vertex survives iff its minimum ED over the
    full attribute domain is >= k. Queue peel as in Algorithm 2 lines 6-24.
    """
    # M[u][(val, color)] = multiplicity in u's closed neighbourhood.
    m: dict[int, Counter] = {}
    ed: dict[int, dict[int, int]] = {}
    for u in adj:
        cnt: Counter = Counter()
        for w in adj[u] | {u}:
            cnt[(val[w], color[w])] += 1
        m[u] = cnt
        per_attr = {a: 0 for a in domain}
        for (a, _c) in cnt:
            per_attr[a] += 1
        ed[u] = per_attr

    removed: set[int] = set()
    queue = [u for u in adj if min(ed[u].values(), default=0) < k]
    removed.update(queue)
    while queue:
        u = queue.pop()
        key = (val[u], color[u])
        for w in adj[u]:
            if w in removed:
                continue
            m[w][key] -= 1
            if m[w][key] <= 0:
                ed[w][val[u]] -= 1
                if ed[w][val[u]] < k:
                    removed.add(w)
                    queue.append(w)
    return set(adj) - removed


def _prune_two_hop_side(
    adj: Adjacency,
    val: Mapping[int, int],
    domain: Sequence[int],
    k: int,
) -> set[int]:
    """Degree filter (< |A| * k - 1) then ego colourful k-core; surviving vertices."""
    thresh = len(domain) * k - 1
    keep = {v for v in adj if len(adj[v]) >= thresh}
    sub = {v: adj[v] & keep for v in keep}
    color = greedy_color(sub)
    return ego_colorful_core(sub, val, domain, color, k)


def _peel(
    g: BipartiteGraph, alpha: int, beta: int, bi: bool, spark: SparkSession | None
) -> BipartiteGraph:
    """FCore (BFCore if ``bi``): local queue peel, or collected DataFrame fixpoint."""
    if spark is None:
        return bfcore(g, alpha, beta) if bi else fcore(g, alpha, beta)
    edges, u_attrs, v_attrs = g.to_spark(spark)
    n_au, n_av = len(g.attrs_u), len(g.attrs_v)
    if bi:
        core = bfcore_edges(edges, u_attrs, v_attrs, alpha, beta, n_au, n_av)
    else:
        core = fcore_edges(edges, v_attrs, alpha, beta, n_av)
    pdf = core.toPandas()
    return g.induced(set(pdf["u"].tolist()), set(pdf["v"].tolist()))


def _two_hop(
    g: BipartiteGraph, k: int, bi: bool, spark: SparkSession | None
) -> Adjacency:
    """(Bi-)2-hop adjacency over ``g``'s V side: local Σd², or DataFrame self-join."""
    if spark is None:
        return bi_two_hop(g, k) if bi else two_hop(g, k)
    edges, u_attrs, _v_attrs = g.to_spark(spark)
    if bi:
        pairs = bi_two_hop_edges_df(edges, u_attrs, k, len(g.attrs_u)).toPandas()
    else:
        pairs = two_hop_edges_df(edges, k).toPandas()
    return adjacency_from_pairs(
        list(zip(pairs["v1"].tolist(), pairs["v2"].tolist())), sorted(g.adj_v)
    )


def _prune(
    g: BipartiteGraph, alpha: int, beta: int, bi: bool, spark: SparkSession | None
) -> BipartiteGraph:
    """CFCore (BCFCore if ``bi``); only the peel and the 2-hop step see ``spark``."""
    g1 = _peel(g, alpha, beta, bi, spark)
    if g1.n_edges == 0:
        return g1
    keep_v = _prune_two_hop_side(
        _two_hop(g1, alpha, bi, spark), g1.v_val, g.attrs_v, beta
    )
    keep_u = g1.adj_u.keys()
    if bi:
        keep_u = _prune_two_hop_side(
            _two_hop(g1.mirror(), beta, bi, spark), g1.u_val, g.attrs_u, alpha
        )
    g2 = g1.induced(keep_u, keep_v)
    return _peel(g2, alpha, beta, bi, spark) if g2.n_edges else g2


def cfcore(g: BipartiteGraph, alpha: int, beta: int) -> BipartiteGraph:
    """Algorithm 2, fully local. Contains every SSFBC of ``g`` (Lemmas 1-2)."""
    return _prune(g, alpha, beta, False, None)


def bcfcore(g: BipartiteGraph, alpha: int, beta: int) -> BipartiteGraph:
    """Bi-side colorful pruning. Contains every BSFBC of ``g`` (Lemma 3 + Sec. IV-A)."""
    return _prune(g, alpha, beta, True, None)


def cfcore_spark(
    spark: SparkSession, g: BipartiteGraph, alpha: int, beta: int
) -> BipartiteGraph:
    """Hybrid Algorithm 2: DF peel + DF 2-hop, local colouring/ego peel, DF re-peel."""
    return _prune(g, alpha, beta, False, spark)


def bcfcore_spark(
    spark: SparkSession, g: BipartiteGraph, alpha: int, beta: int
) -> BipartiteGraph:
    """Hybrid BCFCore: DF bi-peel + DF bi-2-hop on both sides, local ego peels."""
    return _prune(g, alpha, beta, True, spark)
