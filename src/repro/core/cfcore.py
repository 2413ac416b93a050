"""Colorful fair α-β core pruning: ``CFCore`` (Algorithm 2) and ``BCFCore``.

Pipeline (single-side): FCore → 2-hop graph on the fair side → drop
vertices with 2-hop degree < ``A_n^V * beta - 1`` → greedy colouring → ego
colourful β-core peel (Definitions 9/10) → remove pruned fair-side vertices
→ FCore again. The bi-side variant applies the bi-2-hop construction and an
ego colourful core on *both* sides before re-running BFCore.

Both pipelines run through one body, :func:`_prune`, on the peeled graph;
the re-peel is exact because fair cores are confluent closures. The U side
of BCFCore runs the V-side machinery on ``g.mirror()``. The Spark pipeline
prunes with the same functions on the driver: the local peel beat the
DataFrame rounds of :mod:`repro.core.fcore_df` at every measured size up to
4.1 M edges (EXPERIMENTS.md, "Spark peel crossover"), so Spark runs only
the enumeration fan-out, and importing this module loads no pyspark.
``fcore``/``bfcore`` are called through this module's names, so a tracer
that wraps them here sees every peel.
"""
from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.coloring import greedy_color
from repro.core.fcore import bfcore, fcore
from repro.core.twohop import Adjacency, bi_two_hop, two_hop
# Imported only so the benchmark tracer can resolve them on this module.
from repro.core.fcore_df import bfcore_edges, fcore_edges  # noqa: F401
from repro.core.twohop import adjacency_from_pairs  # noqa: F401
from repro.graph.bipartite import BipartiteGraph

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


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


def _prune(g1: BipartiteGraph, alpha: int, beta: int, bi: bool) -> BipartiteGraph:
    """CFCore (BCFCore if ``bi``) from the (bi-)fair core ``g1`` onward."""
    if g1.n_edges == 0:
        return g1
    build, peel = (bi_two_hop, bfcore) if bi else (two_hop, fcore)
    keep_v = _prune_two_hop_side(build(g1, alpha), g1.v_val, g1.attrs_v, beta)
    keep_u = g1.adj_u.keys()
    if bi:
        keep_u = _prune_two_hop_side(build(g1.mirror(), beta), g1.u_val, g1.attrs_u, alpha)
    g2 = g1.induced(keep_u, keep_v)
    return peel(g2, alpha, beta) if g2.n_edges else g2


def cfcore(g: BipartiteGraph, alpha: int, beta: int) -> BipartiteGraph:
    """Algorithm 2, fully local. Contains every SSFBC of ``g`` (Lemmas 1-2)."""
    return _prune(fcore(g, alpha, beta), alpha, beta, False)


def bcfcore(g: BipartiteGraph, alpha: int, beta: int) -> BipartiteGraph:
    """Bi-side colorful pruning. Contains every BSFBC of ``g`` (Lemma 3 + Sec. IV-A)."""
    return _prune(bfcore(g, alpha, beta), alpha, beta, True)


def bcfcore_spark(
    spark: SparkSession, g: BipartiteGraph, alpha: int, beta: int
) -> BipartiteGraph:
    """:func:`bcfcore` with an unused ``spark``; it stays only because
    ``fairbench/workloads.py`` calls it and ``fairbench/spans.py`` names its span."""
    return _prune(bfcore(g, alpha, beta), alpha, beta, True)
