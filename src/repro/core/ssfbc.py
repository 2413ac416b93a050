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

The engines search on the pruned graph's bit view
(:class:`repro.graph.bipartite.BitView`): L and R are ``int`` masks, P and Q
lists of bit positions, |N(v) ∩ L| is ``(adj_v[v] & L).bit_count()``, and
count vectors are one ``bit_count()`` per attribute mask. A result is a pair
``(L, R)`` of frozensets of the graph's ids (upper side, lower side), decoded
from the masks when it is emitted.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from repro.core.fairset import _check_query, combination, fair_counts, mfs_check
from repro.core.fcore import fcore
from repro.graph.bipartite import BipartiteGraph, positions

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

    The search runs on the graph's bit view: L is a mask over U positions, R
    a mask over V positions, and P/Q are lists of V positions. Results are
    turned back into frozensets of the graph's ids as they are emitted.

    With ``theta`` set, fairness means *proportion* fairness and the
    combinatorial expansion uses ``CombinationPro`` — this is how
    FairBCEMPro++ (Sec. III-D) specialises Algorithm 6. Fairness, MFSCheck
    and Combination all read count vectors, ``bits.v_counts`` tuples.
    """

    g: BipartiteGraph
    alpha: int
    beta: int
    delta: int
    theta: float | None = None
    deadline: float | None = None
    res: list[Biclique] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.bits = self.g.bits

    def check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise SearchTimeout(
                f"search exceeded its time budget ({len(self.res)} results so far)"
            )

    def fair(self, r: int) -> bool:
        return fair_counts(self.bits.v_counts(r), self.beta, self.delta, self.theta)

    def beta_bound_ok(self, r: int, p: int) -> bool:
        """Observation 5: every attribute can still reach beta from R ∪ P."""
        return all(n >= self.beta for n in self.bits.v_counts(r | p))

    def emit(self, L: int, R: int) -> None:
        self.res.append((self.bits.u_set(L), self.bits.v_set(R)))


# --------------------------------------------------------------------- FairBCEM
def _expand_bcem(
    ctx: _Ctx,
    L: int,
    R: int,
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
    adj = ctx.bits.adj_v
    least = ctx.alpha if prune else 1
    R1 = R | 1 << x
    L1 = L & adj[x]
    if prune and L1.bit_count() < ctx.alpha:
        return {x}

    q_fc = 0
    q_next: list[int] = []
    for u in Q:
        common = adj[u] & L1
        if common == L1 and L1:
            q_fc |= 1 << u
        if common.bit_count() >= least:
            q_next.append(u)
    if prune:
        # Observation 2: a fully-connected visited vertex of every attribute
        # value means no extension of R1 can ever be maximal.
        if all(q_fc & m for m in ctx.bits.v_masks):
            return {x}

    p_fc = p_mask = 0
    p_next: list[int] = []
    for v in P:
        common = adj[v] & L1
        if common == L1 and L1:
            p_fc |= 1 << v
        if common.bit_count() >= least:
            p_next.append(v)
            p_mask |= 1 << v

    if prune and p_fc == p_mask:
        # Observation 4: every remaining candidate is fully connected; fold
        # them into R1 wholesale when the union stays fair.
        if ctx.fair(R1 | p_fc):
            R1 |= p_fc
            p_fc = p_mask = 0
            p_next = []

    if L1.bit_count() >= ctx.alpha and ctx.fair(R1):
        if mfs_check(
            ctx.bits.v_counts(R1 | p_fc | q_fc), ctx.bits.v_counts(R1),
            ctx.beta, ctx.delta, ctx.theta,
        ):
            ctx.emit(L1, R1)

    if p_next and (not prune or ctx.beta_bound_ok(R1, p_mask)):
        _backtrack(ctx, L1, R1, p_next, q_next, _expand_bcem, prune=prune)
    return {x}


# ------------------------------------------------------------------- FairBCEM++
def _expand_bcem_pp(
    ctx: _Ctx,
    L: int,
    R: int,
    P: Sequence[int],
    Q: Sequence[int],
    x: int,
) -> set[int]:
    """One iteration of Algorithm 6's while-loop body (iMBEA + Combination).

    Returns the consumed set C: ``x`` plus candidates absorbed into R1 whose
    whole L-neighbourhood lies inside L1 (they can seed no other maximal
    biclique in this region, Alg. 6 lines 20-21).
    """
    adj = ctx.bits.adj_v
    L1 = L & adj[x]
    c = {x}
    if L1.bit_count() < ctx.alpha:
        return c

    q_next: list[int] = []
    for u in Q:
        common = adj[u] & L1
        if common == L1:
            return c  # (L1, R1) cannot be part of a maximal biclique here
        if common:
            q_next.append(u)

    R1 = R | 1 << x
    p_mask = 0
    p_next: list[int] = []
    for v in P:
        common = adj[v] & L1
        if common == L1:
            R1 |= 1 << v
            if adj[v] & L == common:
                c.add(v)
        elif common.bit_count() >= ctx.alpha:
            p_next.append(v)
            p_mask |= 1 << v

    # (L1, R1) is now a maximal biclique of the pruned graph with |L1|>=alpha.
    if ctx.fair(R1):
        ctx.emit(L1, R1)
    else:
        b = ctx.bits
        l_ids = b.u_set(L1)
        for r1 in combination(
            positions(R1), b.v_val, ctx.g.attrs_v, ctx.beta, ctx.delta, ctx.theta
        ):
            # Combination's check N(r1) = L1, as an AND of bit rows.
            n = b.all_u
            for v in r1:
                n &= adj[v]
            if n == L1:
                ctx.res.append((l_ids, frozenset([b.v_ids[v] for v in r1])))

    if p_next and ctx.beta_bound_ok(R1, p_mask):
        _backtrack(ctx, L1, R1, p_next, q_next, _expand_bcem_pp)
    return c


# ------------------------------------------------------------------ driver loop
# algorithm -> (expand step, its keyword arguments)
_ENGINES = {
    "bcem": (_expand_bcem, {"prune": True}),
    "nsf": (_expand_bcem, {"prune": False}),
    "bcem_pp": (_expand_bcem_pp, {}),
}


def _engine(algorithm: str, alpha: int, delta: int, theta: float | None, *domains: Sequence[int]):
    """The expand step of ``algorithm``, after :func:`_check_query`; ``theta``
    (the Pro model) needs ``bcem_pp``."""
    if algorithm not in _ENGINES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if theta is not None and algorithm != "bcem_pp":
        raise ValueError("theta (Pro model) requires algorithm='bcem_pp'")
    _check_query(alpha, delta, theta, *domains)
    return _ENGINES[algorithm]


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
    FairBCEMPro++ is defined as a modification of Algorithm 6), in
    (0, 1/|A(V)|]. With ``time_budget_s`` the search raises
    :class:`SearchTimeout` once the budget elapses (the paper's 24h "INF"
    convention, scaled).
    """
    expand, kw = _engine(algorithm, alpha, delta, theta, g_pruned.attrs_v)
    deadline = None if time_budget_s is None else time.perf_counter() + time_budget_s
    ctx = _Ctx(g_pruned, alpha, beta, delta, theta, deadline)
    pos = ctx.bits.v_pos
    p0 = [pos[v] for v in order_candidates(g_pruned, g_pruned.adj_v, ordering)]
    _backtrack(ctx, ctx.bits.all_u, 0, p0, [], expand, **kw)
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
    expand, kw = _engine(algorithm, alpha, delta, theta, g_pruned.attrs_v)
    ctx = _Ctx(g_pruned, alpha, beta, delta, theta)
    pos = [ctx.bits.v_pos[v] for v in order]
    expand(ctx, ctx.bits.all_u, 0, pos[i + 1:], pos[:i], pos[i], **kw)
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
    It searches the (min_l, min_r)-core, the FCore of the collapsed graph:
    every such biclique lies in it and stays maximal there.
    """
    collapsed = BipartiteGraph(
        adj_u=g.adj_u,
        adj_v=g.adj_v,
        u_val=g.u_val,
        v_val={v: 0 for v in g.adj_v},
        attrs_u=g.attrs_u,
        attrs_v=(0,),
    )
    core = fcore(collapsed, min_l, min_r)
    return search_ssfbc(
        core, min_l, min_r, delta=len(core.adj_v) + 1,
        algorithm="bcem_pp", ordering=ordering,
    )

