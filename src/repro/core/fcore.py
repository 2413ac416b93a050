"""Fair α-β core (Algorithm 1, ``FCore``) and bi-fair α-β core (``BFCore``).

The fair α-β core (Definition 8) keeps upper vertices whose *attribute
degree* to every V-attribute is >= beta and lower vertices whose degree is
>= alpha; the bi-fair core (Definition 13) uses attribute degrees on both
sides. FCore's lower rule is BFCore's over a one-value U domain, so both run
one peel, :func:`_peel`: synchronous frontier rounds on the graph's cached
edge arrays (``g.arrays``), O(E) plus a constant per round. Any SSFBC /
BSFBC survives the respective peel (Lemmas 1 and 3). Every pipeline peels
here; :mod:`repro.core.fcore_df` is kept only as the benchmark's named form.
"""
from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph


def fcore(g: BipartiteGraph, alpha: int, beta: int) -> BipartiteGraph:
    """Fair α-β core of ``g`` (Algorithm 1).

    Returns the induced subgraph on the surviving vertices (attribute
    domains preserved). With ``beta >= 1`` an attribute value absent from
    ``g`` empties the core, matching Definition 8.
    """
    return _peel(g, alpha, beta, bi=False)


def bfcore(g: BipartiteGraph, alpha: int, beta: int) -> BipartiteGraph:
    """Bi-fair α-β core of ``g`` (Definition 13, the ``BFCore`` peel).

    Upper vertices need attribute degree >= beta for every value of A(V);
    lower vertices need attribute degree >= alpha for every value of A(U).
    """
    return _peel(g, alpha, beta, bi=True)


def _edges_of(ptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Positions in a CSR edge array of every edge of the ``frontier`` vertices."""
    starts = ptr[frontier]
    lens = ptr[frontier + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return offsets + np.arange(offsets.size)


def _peel(g: BipartiteGraph, alpha: int, beta: int, bi: bool) -> BipartiteGraph:
    """FCore (BFCore if ``bi``): without ``bi`` every upper vertex counts as one value."""
    if alpha < 1 or beta < 1:
        raise ValueError(f"{'bfcore' if bi else 'fcore'} requires alpha >= 1 and beta >= 1")
    arr = g.arrays
    n_u, n_v = arr.u_ids.size, arr.v_ids.size
    k_u, k_v = len(g.attrs_u) if bi else 1, len(g.attrs_v)
    eu, ev, by_v, ptr_u, ptr_v = arr.eu, arr.ev, arr.by_v, arr.ptr_u, arr.ptr_v

    # cnt_u[u * k_v + a]: u's neighbours with V-value a; cnt_v likewise.
    key_u = eu * k_v + arr.v_code[ev]
    key_v = ev * k_u + arr.u_code[eu] if bi else ev
    cnt_u = np.bincount(key_u, minlength=n_u * k_v)
    cnt_v = np.bincount(key_v, minlength=n_v * k_u)
    alive_u = ~(cnt_u.reshape(n_u, k_v) < beta).any(axis=1)
    alive_v = ~(cnt_v.reshape(n_v, k_u) < alpha).any(axis=1)
    front_u, front_v = np.flatnonzero(~alive_u), np.flatnonzero(~alive_v)

    while front_u.size or front_v.size:
        # Each vertex is in one frontier at most once, so each edge is
        # walked at most once from each end. A survivor fails only on a
        # count it just lost, so only the decremented counts are checked.
        e = _edges_of(ptr_u, front_u)
        e = e[alive_v[ev[e]]]
        np.subtract.at(cnt_v, key_v[e], 1)
        new_v = np.unique(ev[e][cnt_v[key_v[e]] < alpha])
        e = by_v[_edges_of(ptr_v, front_v)]
        e = e[alive_u[eu[e]]]
        np.subtract.at(cnt_u, key_u[e], 1)
        new_u = np.unique(eu[e][cnt_u[key_u[e]] < beta])
        alive_u[new_u] = False
        alive_v[new_v] = False
        front_u, front_v = new_u, new_v

    return g.induced(arr.u_ids[alive_u].tolist(), arr.v_ids[alive_v].tolist())
