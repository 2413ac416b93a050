"""Bi-side fair biclique enumeration: BFairBCEM, BFairBCEM++, BNSF.

Algorithm 9: every BSFBC is contained in an SSFBC (Observation 6) — more
precisely, a BSFBC's lower side *is* the full R of some SSFBC — so the
algorithms first enumerate all SSFBCs (with FairBCEM, FairBCEM++ or NSF
respectively) and then expand each upper side ``L'`` into its maximal fair
subsets with ``Combination``, keeping pairs ``(l', R')`` where ``R'`` is a
maximal fair subset of ``N(l')`` (Algorithm 4).
"""
from __future__ import annotations

from repro.core.fairset import _check_theta, combination, mfs_check
from repro.core.ssfbc import Algorithm, Biclique, Ordering, search_ssfbc
from repro.graph.bipartite import BipartiteGraph


def expand_to_bsfbc(
    g: BipartiteGraph,
    ssfbcs: list[Biclique],
    alpha: int,
    beta: int,
    delta: int,
    theta: float | None = None,
) -> list[Biclique]:
    """Algorithm 9 lines 4-8: SSFBCs -> BSFBCs via Combination on the upper side.

    With ``theta`` this is the BFairBCEMPro++ expansion (CombinationPro and a
    ratio-aware MFSCheck, Sec. IV-C).
    """
    _check_theta(theta, g.attrs_u, g.attrs_v)
    res: list[Biclique] = []
    for l_full, r in ssfbcs:
        for l1 in combination(l_full, g.u_val, g.attrs_u, alpha, delta, theta):
            n_l1 = g.common_neighbors_of_us(l1)
            if mfs_check(n_l1, r, g.v_val, g.attrs_v, beta, delta, theta):
                res.append((l1, r))
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
    BFairBCEMPro++ (``"bcem_pp"`` only, theta in (0, 0.5], at most two
    attribute values on each side).
    """
    _check_theta(theta, g_pruned.attrs_u, g_pruned.attrs_v)
    ssfbcs = search_ssfbc(
        g_pruned, alpha, beta, delta, algorithm=algorithm, ordering=ordering,
        theta=theta, time_budget_s=time_budget_s,
    )
    return expand_to_bsfbc(g_pruned, ssfbcs, alpha, beta, delta, theta)


def bfair_bcem(
    g: BipartiteGraph,
    alpha: int,
    beta: int,
    delta: int,
    *,
    algorithm: Algorithm = "bcem_pp",
    ordering: Ordering = "deg",
) -> list[Biclique]:
    """BCFCore pruning + BSFBC search — the end-to-end Algorithm 9 entry point."""
    from repro.core.cfcore import bcfcore  # local import: avoid cycle at module load

    return search_bsfbc(
        bcfcore(g, alpha, beta), alpha, beta, delta,
        algorithm=algorithm, ordering=ordering,
    )
