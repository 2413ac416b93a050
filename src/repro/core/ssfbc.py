"""Single-side fair biclique enumeration: FairBCEM, FairBCEM++, NSF.

``FairBCEM`` (Algorithm 5) is the branch-and-bound enumerator with the
search-space prunings of Observations 2/4/5; ``FairBCEM++`` (Algorithm 6)
enumerates maximal bicliques iMBEA-style and expands each into single-side
fair bicliques with the ``Combination`` technique (Algorithm 7); ``NSF`` is
the paper's baseline — same graph pruning, Observations 2/4/5 dropped.

All three share the backtracking skeleton: the body of the outer while-loop
is factored into ``_expand_*`` functions so the distributed layer
(:mod:`repro.core.distributed`) can run individual top-level branches
``(x=order[i], P=order[i+1:], Q=order[:i])`` on Spark workers.

A result is a pair ``(L, R)`` of frozensets (upper side, lower side).
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from repro.core.fairset import (
    _check_theta,
    attr_counts,
    combination,
    is_fair_set,
    mfs_check,
)
from repro.graph.bipartite import BipartiteGraph

Biclique = tuple[frozenset[int], frozenset[int]]
Ordering = Literal["deg", "id"]
Algorithm = Literal["bcem", "bcem_pp", "nsf"]


class SearchTimeout(Exception):
    """Raised when a search exceeds its cooperative time budget.

    The paper caps every run at 24 hours and reports "INF"; experiment
    harnesses here do the same at a scaled-down budget.
    """


def order_candidates(
    g: BipartiteGraph, vertices: Iterable[int], ordering: Ordering
) -> list[int]:
    """DegOrd (non-increasing degree, ties by id) or IDOrd (increasing id)."""
    vs = list(vertices)
    if ordering == "deg":
        return sorted(vs, key=lambda v: (-len(g.adj_v[v]), v))
    if ordering == "id":
        return sorted(vs)
    raise ValueError(f"unknown ordering {ordering!r}")


@dataclass
class _Ctx:
    """Shared search state: the pruned graph, parameters, and the result sink.

    With ``theta`` set, fairness means *proportion* fairness and the
    combinatorial expansion uses ``CombinationPro`` — this is how
    FairBCEMPro++ (Sec. III-D) specialises Algorithm 6.
    """

    g: BipartiteGraph
    alpha: int
    beta: int
    delta: int
    theta: float | None = None
    deadline: float | None = None
    res: list[Biclique] = field(default_factory=list)

    def check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise SearchTimeout(
                f"search exceeded its time budget ({len(self.res)} results so far)"
            )

    @property
    def domain(self) -> tuple[int, ...]:
        return self.g.attrs_v

    def fair(self, s: Iterable[int]) -> bool:
        return is_fair_set(
            s, self.g.v_val, self.domain, self.beta, self.delta, self.theta
        )

    def combine(self, s: Iterable[int]) -> list[frozenset[int]]:
        return combination(
            s, self.g.v_val, self.domain, self.beta, self.delta, self.theta
        )

    def beta_bound_ok(self, r: Iterable[int], p: Iterable[int]) -> bool:
        """Observation 5: every attribute can still reach beta from R ∪ P."""
        rc = attr_counts(r, self.g.v_val, self.domain)
        pc = attr_counts(p, self.g.v_val, self.domain)
        return all(rc[a] + pc[a] >= self.beta for a in self.domain)


# --------------------------------------------------------------------- FairBCEM
def _expand_bcem(
    ctx: _Ctx,
    L: frozenset[int],
    R: frozenset[int],
    P: Sequence[int],
    Q: Sequence[int],
    x: int,
    *,
    prune: bool,
) -> set[int]:
    """One iteration of Algorithm 5's while-loop body for candidate ``x``.

    ``P`` is the remaining candidate list *after* removing ``x``; ``Q`` the
    already-visited candidates. With ``prune=False`` this is the NSF
    baseline: Observations 2/4/5 are skipped but the maximality bookkeeping
    (Q^FC, MFSCheck) that correctness needs is kept.
    Returns the set C of vertices consumed at this level (always ``{x}``).
    """
    adj = ctx.g.adj_v
    R1 = R | {x}
    L1 = L & adj[x]
    if prune and len(L1) < ctx.alpha:
        return {x}

    q_fc: list[int] = []
    q_next: list[int] = []
    for u in Q:
        nu = len(adj[u] & L1)
        if nu == len(L1) and len(L1) > 0:
            q_fc.append(u)
        if (nu >= ctx.alpha) if prune else (nu >= 1):
            q_next.append(u)
    if prune:
        # Observation 2: a fully-connected visited vertex of every attribute
        # value means no extension of R1 can ever be maximal.
        fc_attrs = {ctx.g.v_val[u] for u in q_fc}
        if all(a in fc_attrs for a in ctx.domain):
            return {x}

    p_fc: list[int] = []
    p_next: list[int] = []
    for v in P:
        nv = len(adj[v] & L1)
        if nv == len(L1) and len(L1) > 0:
            p_fc.append(v)
        if (nv >= ctx.alpha) if prune else (nv >= 1):
            p_next.append(v)

    if prune and set(p_fc) == set(p_next):
        # Observation 4: every remaining candidate is fully connected; fold
        # them into R1 wholesale when the union stays fair.
        if ctx.fair(R1 | set(p_fc)):
            R1 = R1 | set(p_fc)
            p_fc, p_next = [], []

    if len(L1) >= ctx.alpha and ctx.fair(R1):
        if mfs_check(
            R1 | set(p_fc) | set(q_fc), R1,
            ctx.g.v_val, ctx.domain, ctx.beta, ctx.delta, ctx.theta,
        ):
            ctx.res.append((frozenset(L1), frozenset(R1)))

    if p_next and (not prune or ctx.beta_bound_ok(R1, p_next)):
        _backtrack(ctx, frozenset(L1), frozenset(R1), p_next, q_next, _expand_bcem, prune=prune)
    return {x}


# ------------------------------------------------------------------- FairBCEM++
def _expand_bcem_pp(
    ctx: _Ctx,
    L: frozenset[int],
    R: frozenset[int],
    P: Sequence[int],
    Q: Sequence[int],
    x: int,
    *,
    prune: bool = True,
) -> set[int]:
    """One iteration of Algorithm 6's while-loop body (iMBEA + Combination).

    Returns the consumed set C: ``x`` plus candidates absorbed into R1 whose
    whole L-neighbourhood lies inside L1 (they can seed no other maximal
    biclique in this region, Alg. 6 lines 20-21).
    """
    adj = ctx.g.adj_v
    R1 = set(R)
    R1.add(x)
    L1 = L & adj[x]
    c = {x}
    if len(L1) < ctx.alpha:
        return c

    q_next: list[int] = []
    for u in Q:
        nu = len(adj[u] & L1)
        if nu == len(L1):
            return c  # (L1, R1) cannot be part of a maximal biclique here
        if nu >= 1:
            q_next.append(u)

    p_next: list[int] = []
    for v in P:
        common = adj[v] & L1
        if len(common) == len(L1):
            R1.add(v)
            if not (adj[v] & L) - L1:
                c.add(v)
        elif len(common) >= ctx.alpha:
            p_next.append(v)

    # (L1, R1) is now a maximal biclique of the pruned graph with |L1|>=alpha.
    if ctx.fair(R1):
        ctx.res.append((frozenset(L1), frozenset(R1)))
    else:
        for r1 in ctx.combine(R1):
            if ctx.g.common_neighbors_of_vs(r1) == L1:
                ctx.res.append((frozenset(L1), r1))

    if p_next and ctx.beta_bound_ok(R1, p_next):
        _backtrack(ctx, frozenset(L1), frozenset(R1), p_next, q_next, _expand_bcem_pp)
    return c


# ------------------------------------------------------------------ driver loop
def _backtrack(ctx, L, R, P, Q, expand, **kw) -> None:
    p = deque(P)
    q = list(Q)
    while p:
        ctx.check_deadline()
        x = p.popleft()
        consumed = expand(ctx, L, R, p, q, x, **kw)
        if len(consumed) > 1:
            p = deque(y for y in p if y not in consumed)
        q.extend(consumed)


def search_ssfbc(
    g_pruned: BipartiteGraph,
    alpha: int,
    beta: int,
    delta: int,
    *,
    algorithm: Algorithm = "bcem_pp",
    ordering: Ordering = "deg",
    theta: float | None = None,
    time_budget_s: float | None = None,
) -> list[Biclique]:
    """Enumerate all SSFBCs (or, with ``theta``, PSSFBCs) of a pruned graph.

    ``g_pruned`` should come from :func:`repro.core.cfcore.cfcore` (or the
    Spark pipeline); running on an unpruned graph is valid, just slower.
    ``theta`` is only supported with ``algorithm="bcem_pp"`` (the paper's
    FairBCEMPro++ is defined as a modification of Algorithm 6), in (0, 0.5]
    and with at most two V attribute values. With
    ``time_budget_s`` the search raises :class:`SearchTimeout` once the
    budget elapses (the paper's 24h "INF" convention, scaled).
    """
    if theta is not None and algorithm != "bcem_pp":
        raise ValueError("theta (Pro model) requires algorithm='bcem_pp'")
    _check_theta(theta, g_pruned.attrs_v)
    deadline = None if time_budget_s is None else time.perf_counter() + time_budget_s
    ctx = _Ctx(g_pruned, alpha, beta, delta, theta, deadline)
    p0 = order_candidates(g_pruned, g_pruned.adj_v, ordering)
    if algorithm == "bcem":
        _backtrack(ctx, frozenset(g_pruned.adj_u), frozenset(), p0, [], _expand_bcem, prune=True)
    elif algorithm == "nsf":
        _backtrack(ctx, frozenset(g_pruned.adj_u), frozenset(), p0, [], _expand_bcem, prune=False)
    elif algorithm == "bcem_pp":
        _backtrack(ctx, frozenset(g_pruned.adj_u), frozenset(), p0, [], _expand_bcem_pp)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return ctx.res


def expand_root(
    g_pruned: BipartiteGraph,
    alpha: int,
    beta: int,
    delta: int,
    order: Sequence[int],
    i: int,
    *,
    algorithm: Algorithm = "bcem_pp",
    theta: float | None = None,
) -> list[Biclique]:
    """Run exactly the top-level branch rooted at ``order[i]``.

    Used by the distributed layer: branch ``i`` sees ``Q = order[:i]`` and
    ``P = order[i+1:]``, which reproduces the sequential outer loop (the
    Q-maximality check discards branches the sequential C-absorption would
    have skipped, so the union over i equals the sequential result).
    """
    _check_theta(theta, g_pruned.attrs_v)
    ctx = _Ctx(g_pruned, alpha, beta, delta, theta)
    expand = {"bcem": _expand_bcem, "nsf": _expand_bcem, "bcem_pp": _expand_bcem_pp}[algorithm]
    kw = {"prune": algorithm != "nsf"} if algorithm in ("bcem", "nsf") else {}
    expand(
        ctx,
        frozenset(g_pruned.adj_u),
        frozenset(),
        list(order[i + 1:]),
        list(order[:i]),
        order[i],
        **kw,
    )
    return ctx.res


def enumerate_maximal_bicliques(
    g: BipartiteGraph,
    min_l: int = 1,
    min_r: int = 1,
    *,
    ordering: Ordering = "deg",
) -> list[Biclique]:
    """All maximal bicliques with |L| >= min_l and |R| >= min_r (Exp-4 comparison).

    Degenerate case of the fair machinery: collapsing the V-attribute domain
    to a single value with ``beta = min_r`` and an unbounded ``delta`` makes
    "fair set" mean ``|R| >= min_r``, so Algorithm 6 reduces to plain iMBEA.
    """
    collapsed = BipartiteGraph(
        adj_u=g.adj_u,
        adj_v=g.adj_v,
        u_val=g.u_val,
        v_val={v: 0 for v in g.adj_v},
        attrs_u=g.attrs_u,
        attrs_v=(0,),
    )
    return search_ssfbc(
        collapsed, min_l, min_r, delta=len(collapsed.adj_v) + 1,
        algorithm="bcem_pp", ordering=ordering,
    )

