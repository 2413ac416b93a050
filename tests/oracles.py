"""Test oracles: definition-level brute force and the DuckDB equivalence check.

Brute-force enumerators
-----------------------
These enumerate fair bicliques straight from Definitions 3-6 by exhausting
vertex subsets, with no pruning and no search-order cleverness. They are
exponential and intended for graphs with at most ~10 vertices per side.
Their fairness test, :func:`is_fair_set`, is written out here clause by
clause from Definitions 5 and 11, apart from the code under test.

Maximality handling:

- SSFBC/PSSFBC: a maximal result always has ``L = N(S)`` (otherwise
  ``(N(S), S)`` is a satisfying superset), and ``(N(S), S)`` is maximal iff
  no fair ``S' ⊃ S`` has ``N(S') = N(S)``. Both facts follow directly from
  Definition 3 and make the oracle a single pass over V-subsets.
- BSFBC/PBSFBC: generate *all* pairs satisfying conditions (1)-(2)
  ((1)-(3) for Pro) and drop every pair strictly contained in another, which
  is literally Definition 4's maximality clause.

DuckDB oracle
-------------
``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Mapping, Sequence

import duckdb
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.ssfbc import Biclique
from repro.graph.bipartite import BipartiteGraph


def attr_counts(
    s: Iterable[int], val: Mapping[int, Hashable], domain: Sequence[Hashable]
) -> tuple[int, ...]:
    """``|S_a|`` for every value ``a`` of the full ``domain``, in domain order."""
    members = [val[x] for x in s]
    return tuple(members.count(a) for a in domain)


def is_fair_set(
    s: Iterable[int],
    val: Mapping[int, Hashable],
    domain: Sequence[Hashable],
    k: int,
    delta: int,
    theta: float | None = None,
) -> bool:
    """Definition 11 on the set ``s`` and, with ``theta``, Definition 5.

    (1) ``|S_a| >= k`` for every value a of the domain; (2) ``|S_a| - |S_b|
    <= delta`` for every pair of values; (3) with theta, ``|S_a| / |S| >=
    theta`` for every value a (the empty set, fair only for k = 0, has no
    ratio to violate).
    """
    c = attr_counts(s, val, domain)
    size = sum(c)
    return (
        all(n >= k for n in c)
        and all(a - b <= delta for a in c for b in c)
        and (theta is None or size == 0 or all(n / size >= theta for n in c))
    )


def is_biclique(g: BipartiteGraph, us: Iterable[int], vs: Iterable[int]) -> bool:
    """True iff every (u, v) pair across the two sets is an edge of ``g``."""
    vs = set(vs)
    return all(vs <= g.adj_u[u] for u in us)


def common_neighbors_of_vs(g: BipartiteGraph, vs: Iterable[int]) -> frozenset[int]:
    """``N(S)`` for a lower-side set S: upper vertices adjacent to *all* of S.

    N(∅) is the whole upper side.
    """
    acc = frozenset(g.adj_u)
    for v in vs:
        acc &= g.adj_v[v]
    return acc


def common_neighbors_of_us(g: BipartiteGraph, us: Iterable[int]) -> frozenset[int]:
    """``N(S)`` for an upper-side set S: lower vertices adjacent to *all* of S."""
    acc = frozenset(g.adj_v)
    for u in us:
        acc &= g.adj_u[u]
    return acc


def relabelled(g: BipartiteGraph) -> BipartiteGraph:
    """``g`` with large, non-contiguous ids on both sides."""
    nu = {u: 10**12 + 7919 * i for i, u in enumerate(sorted(g.adj_u, reverse=True))}
    nv = {v: 2**40 - 104729 * i for i, v in enumerate(sorted(g.adj_v))}
    return BipartiteGraph.from_edges(
        [(nu[u], nv[v]) for u, vs in g.adj_u.items() for v in vs],
        {nu[u]: a for u, a in g.u_val.items()},
        {nv[v]: a for v, a in g.v_val.items()},
        attrs_u=g.attrs_u,
        attrs_v=g.attrs_v,
    )


def swapped(pairs: Iterable[tuple[frozenset[int], frozenset[int]]]) -> set:
    """``(R, L)`` for every ``(L, R)``: results found on ``g.mirror()`` put
    back in ``g``'s orientation (the mirror identity of BSFBC)."""
    return {(r, l) for l, r in pairs}


def round_robin_values(g: BipartiteGraph, n: int) -> BipartiteGraph:
    """``g`` with the attribute value ``id % n`` on both sides, so every one
    of the ``n`` values has about as many vertices."""
    return BipartiteGraph.from_edges(
        [(u, v) for u, vs in g.adj_u.items() for v in vs],
        {u: u % n for u in g.adj_u},
        {v: v % n for v in g.adj_v},
        attrs_u=range(n),
        attrs_v=range(n),
    )


def is_proper_coloring(adj: Mapping[int, Iterable[int]], color: Mapping[int, int]) -> bool:
    """True iff no edge of the undirected graph ``adj`` is monochromatic."""
    return all(color[v] != color[w] for v in adj for w in adj[v])


def brute_maximal_fair_subsets(
    s: Iterable[int],
    val: Mapping[int, Hashable],
    domain: Sequence[Hashable],
    k: int,
    delta: int,
    theta: float | None = None,
) -> set[frozenset[int]]:
    """Definition-level oracle: all subsets that are fair with no fair proper superset.

    Subsets are bitmasks over ``sorted(s)``; each fair one is tested against
    every proper superset of it, 3**|s| lookups in all.
    """
    items = sorted(s)
    full = (1 << len(items)) - 1
    fair = {
        m
        for m in range(full + 1)
        if is_fair_set([x for i, x in enumerate(items) if m >> i & 1], val, domain, k, delta, theta)
    }
    out = set()
    for m in fair:
        rest = sub = full ^ m
        while sub and m | sub not in fair:
            sub = (sub - 1) & rest
        if not sub:
            out.add(frozenset(x for i, x in enumerate(items) if m >> i & 1))
    return out


def brute_ssfbc(
    g: BipartiteGraph,
    alpha: int,
    beta: int,
    delta: int,
    theta: float | None = None,
) -> set[Biclique]:
    """All SSFBCs (or PSSFBCs with ``theta``) of ``g``, from the definition."""
    vs = sorted(g.adj_v)
    cands: dict[frozenset[int], frozenset[int]] = {}
    for r in range(1, len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            s = frozenset(combo)
            if not is_fair_set(s, g.v_val, g.attrs_v, beta, delta, theta):
                continue
            l = common_neighbors_of_vs(g, s)
            if len(l) >= alpha:
                cands[s] = l
    out: set[Biclique] = set()
    for s, l in cands.items():
        if not any(s < s2 and l2 == l for s2, l2 in cands.items()):
            out.add((l, s))
    return out


def brute_bsfbc(
    g: BipartiteGraph,
    alpha: int,
    beta: int,
    delta: int,
    theta: float | None = None,
) -> set[Biclique]:
    """All BSFBCs (or PBSFBCs with ``theta``) of ``g``, from the definition."""
    vs = sorted(g.adj_v)
    satisfying: list[Biclique] = []
    for r in range(1, len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            s = frozenset(combo)
            if not is_fair_set(s, g.v_val, g.attrs_v, beta, delta, theta):
                continue
            cand_u = sorted(common_neighbors_of_vs(g, s))
            for ru in range(1, len(cand_u) + 1):
                for cu in itertools.combinations(cand_u, ru):
                    a = frozenset(cu)
                    if is_fair_set(a, g.u_val, g.attrs_u, alpha, delta, theta):
                        satisfying.append((a, s))
    out: set[Biclique] = set()
    for a, s in satisfying:
        contained = any(
            (a <= a2 and s <= s2 and (a < a2 or s < s2))
            for a2, s2 in satisfying
        )
        if not contained:
            out.add((a, s))
    return out


def brute_maximal_bicliques(
    g: BipartiteGraph, min_l: int = 1, min_r: int = 1
) -> set[Biclique]:
    """All maximal bicliques with |L| >= min_l, |R| >= min_r (Exp-4 comparison)."""
    vs = sorted(g.adj_v)
    cands: dict[frozenset[int], frozenset[int]] = {}
    for r in range(1, len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            s = frozenset(combo)
            l = common_neighbors_of_vs(g, s)
            if l and common_neighbors_of_us(g, l) == s:
                cands[s] = l
    return {
        (l, s)
        for s, l in cands.items()
        if len(l) >= min_l and len(s) >= min_r
    }


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
