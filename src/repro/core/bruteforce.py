"""Definition-level brute-force enumerators — test oracles only.

These enumerate fair bicliques straight from Definitions 3-6 by exhausting
vertex subsets, with no pruning and no search-order cleverness. They are
exponential and intended for graphs with at most ~10 vertices per side.

Maximality handling:

- SSFBC/PSSFBC: a maximal result always has ``L = N(S)`` (otherwise
  ``(N(S), S)`` is a satisfying superset), and ``(N(S), S)`` is maximal iff
  no fair ``S' ⊃ S`` has ``N(S') = N(S)``. Both facts follow directly from
  Definition 3 and make the oracle a single pass over V-subsets.
- BSFBC/PBSFBC: generate *all* pairs satisfying conditions (1)-(2)
  ((1)-(3) for Pro) and drop every pair strictly contained in another, which
  is literally Definition 4's maximality clause.
"""
from __future__ import annotations

import itertools

from repro.core.fairset import is_fair_set
from repro.core.ssfbc import Biclique
from repro.graph.bipartite import BipartiteGraph


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
            l = g.common_neighbors_of_vs(s)
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
            cand_u = sorted(g.common_neighbors_of_vs(s))
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
            l = g.common_neighbors_of_vs(s)
            if l and g.common_neighbors_of_us(l) == s:
                cands[s] = l
    return {
        (l, s)
        for s, l in cands.items()
        if len(l) >= min_l and len(s) >= min_r
    }
