"""Bi-side fair biclique enumeration: BFairBCEM, BFairBCEM++, BNSF.

Algorithm 9: every BSFBC is contained in an SSFBC (Observation 6) — more
precisely, a BSFBC's lower side *is* the full R of some SSFBC — so the
algorithms first enumerate all SSFBCs (with FairBCEM, FairBCEM++ or NSF
respectively) and then expand each upper side ``L'`` into its maximal fair
subsets with ``Combination``, keeping pairs ``(l', R')`` where ``R'`` is a
maximal fair subset of ``N(l')`` (Algorithm 4), once per distinct upper
side and count vector of ``N(l')`` (see :func:`expand_to_bsfbc`). ``N(l')``
is an AND of the bit view's rows, and its count vector and R's are
``bit_count()`` against the view's V attribute masks.
"""
from __future__ import annotations

import time

from repro.core.fairset import _check_query, combination, mfs_check
from repro.core.ssfbc import Algorithm, Biclique, Ordering, SearchTimeout, search_ssfbc
from repro.graph.bipartite import BipartiteGraph


def expand_to_bsfbc(
    g: BipartiteGraph,
    ssfbcs: list[Biclique],
    alpha: int,
    beta: int,
    delta: int,
    theta: float | None = None,
    *,
    deadline: float | None = None,
) -> list[Biclique]:
    """Algorithm 9 lines 4-8: SSFBCs -> BSFBCs via Combination on the upper side.

    With ``theta`` this is the BFairBCEMPro++ expansion (CombinationPro and a
    ratio-aware MFSCheck, Sec. IV-C), theta in (0, 1/|A|] on both sides;
    ``alpha`` < 1 or ``delta`` < 0 raises ``ValueError``. Past ``deadline``
    (a ``time.perf_counter()`` value) it raises :class:`SearchTimeout`.

    MFSCheck(N(l'), R) depends only on the count vectors of N(l') and R,
    because R ⊆ N(L) ⊆ N(l'). So each distinct L is expanded once, its
    subsets l' grouped by the count vector of N(l') (a ``v_counts`` tuple),
    and each group is checked once per SSFBC.
    """
    _check_query(alpha, delta, theta, g.attrs_u, g.attrs_v)
    b = g.bits
    adj_u, u_pos = b.adj_u, b.u_pos
    groups: dict[frozenset[int], list[tuple[tuple[int, ...], list[frozenset[int]]]]] = {}
    res: list[Biclique] = []
    for l_full, r in ssfbcs:
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchTimeout(f"expansion exceeded its time budget ({len(res)} results so far)")
        if l_full not in groups:
            by_counts: dict[tuple[int, ...], list[frozenset[int]]] = {}
            for l1 in combination(l_full, g.u_val, g.attrs_u, alpha, delta, theta):
                # N(l1) as an AND of bit rows, counted against the V masks.
                n = b.all_v
                for u in l1:
                    n &= adj_u[u_pos[u]]
                by_counts.setdefault(b.v_counts(n), []).append(l1)
            groups[l_full] = list(by_counts.items())
        r_counts = b.v_counts(b.v_mask(r))
        for n_counts, l1s in groups[l_full]:
            if mfs_check(n_counts, r_counts, beta, delta, theta):
                res.extend((l1, r) for l1 in l1s)
    return res


def search_bsfbc(
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
    """Enumerate all BSFBCs (or, with ``theta``, PBSFBCs) of an (already
    BCFCore-pruned) graph.

    ``algorithm`` selects the SSFBC engine: ``"bcem"`` gives BFairBCEM,
    ``"bcem_pp"`` gives BFairBCEM++, ``"nsf"`` gives BNSF. ``theta`` gives
    BFairBCEMPro++ (``"bcem_pp"`` only, theta in (0, 1/|A|] for the
    attribute domain A of each side). ``time_budget_s`` bounds the SSFBC
    search and the expansion together: past it, :class:`SearchTimeout`.
    """
    _check_query(alpha, delta, theta, g_pruned.attrs_u, g_pruned.attrs_v)
    deadline = None if time_budget_s is None else time.perf_counter() + time_budget_s
    ssfbcs = search_ssfbc(
        g_pruned, alpha, beta, delta, algorithm=algorithm, ordering=ordering,
        theta=theta, time_budget_s=time_budget_s,
    )
    return expand_to_bsfbc(g_pruned, ssfbcs, alpha, beta, delta, theta, deadline=deadline)

