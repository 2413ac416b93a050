"""Attributed bipartite graph ``G(U, V, E, A)`` (paper Sec. II).

Two representations:

- **Local** (:class:`BipartiteGraph`): adjacency dicts + attribute maps on
  the driver, plus two views that give each side's vertices positions 0..n-1
  in increasing id order. Each is built on first use, once per graph object
  and process, and never pickled. The FCore/BFCore peel and the 2-hop counts
  run on the edge-array view (:class:`EdgeArrays`, ``g.arrays``): numpy CSR
  arrays, 24 bytes per vertex and per edge. The search and expansion kernels
  of :mod:`repro.core.ssfbc` and :mod:`repro.core.bsfbc` run on the bit view
  (:class:`BitView`, ``g.bits``): a vertex set is an ``int`` with one bit per
  position, so intersections are ``&`` and sizes ``int.bit_count()``. Its
  rows hold at most ``ceil(|U|/8)·|V| + ceil(|V|/8)·|U|`` bytes, plus a
  28-byte header each: 45 KiB on imdb-lite's 677-vertex pruned core, 7.0 MiB
  on the unpruned 18,535 × 1,829 wikicat-lite graph of Exp-4 (DESIGN.md §1).
- **DataFrame**: three DataFrames ``edges(u, v)``, ``u_attrs(u, val)``,
  ``v_attrs(v, val)`` — the distributed-dataflow representation that the
  DataFrame FCore/BFCore peel (:mod:`repro.core.fcore_df`) operates on.
  The pruning pipelines, the Spark one included, run on the local form.

Attribute domains ``attrs_u`` / ``attrs_v`` are carried explicitly: the
fairness definitions quantify over *all* values of ``A(U)`` / ``A(V)`` in the
original graph, so a pruned subgraph must remember the full domain even if a
value no longer occurs in it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:
    import pandas as pd
    from pyspark.sql import DataFrame, SparkSession


def positions(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(ps: Iterable[int]) -> int:
    m = 0
    for p in ps:
        m |= 1 << p
    return m


@dataclass(frozen=True)
class BitView:
    """A :class:`BipartiteGraph` relabelled to bit positions.

    Each side's vertices get positions 0..n-1 in increasing id order
    (``u_ids``/``v_ids`` map a position back to its id, ``u_pos``/``v_pos``
    an id to its position). A vertex set is an ``int`` whose bit ``i`` stands
    for the vertex at position ``i``: ``adj_u[i]`` is upper vertex ``i``'s
    neighbourhood over V positions, ``adj_v[j]`` lower vertex ``j``'s over U
    positions. ``v_val`` gives each lower position's attribute value and
    ``v_masks`` holds one mask per value of ``attrs_v``, in domain order, so a
    set's count vector is one ``bit_count`` per value.
    ``all_u``/``all_v`` are the masks of a whole side.
    """

    u_ids: tuple[int, ...]
    v_ids: tuple[int, ...]
    u_pos: Mapping[int, int]
    v_pos: Mapping[int, int]
    adj_u: tuple[int, ...]
    adj_v: tuple[int, ...]
    v_val: tuple[int, ...]
    v_masks: tuple[int, ...]
    all_u: int
    all_v: int

    @staticmethod
    def of(g: "BipartiteGraph") -> "BitView":
        """Build the view of ``g``; callers use the cached ``g.bits``."""
        u_ids, v_ids = tuple(sorted(g.adj_u)), tuple(sorted(g.adj_v))
        u_pos = {u: i for i, u in enumerate(u_ids)}
        v_pos = {v: j for j, v in enumerate(v_ids)}
        v_val = tuple(g.v_val[v] for v in v_ids)
        return BitView(
            u_ids=u_ids,
            v_ids=v_ids,
            u_pos=u_pos,
            v_pos=v_pos,
            adj_u=tuple(_mask(v_pos[v] for v in g.adj_u[u]) for u in u_ids),
            adj_v=tuple(_mask(u_pos[u] for u in g.adj_v[v]) for v in v_ids),
            v_val=v_val,
            v_masks=tuple(_mask(j for j, x in enumerate(v_val) if x == a) for a in g.attrs_v),
            all_u=(1 << len(u_ids)) - 1,
            all_v=(1 << len(v_ids)) - 1,
        )

    def u_set(self, mask: int) -> frozenset[int]:
        """The upper vertex ids of ``mask``."""
        ids = self.u_ids
        return frozenset([ids[i] for i in positions(mask)])

    def v_set(self, mask: int) -> frozenset[int]:
        """The lower vertex ids of ``mask``."""
        ids = self.v_ids
        return frozenset([ids[j] for j in positions(mask)])

    def v_mask(self, vs: Iterable[int]) -> int:
        """The mask of the lower vertex ids ``vs``."""
        pos = self.v_pos
        return _mask(pos[v] for v in vs)

    def v_counts(self, mask: int) -> tuple[int, ...]:
        """``|S_a|`` for every value ``a`` of ``attrs_v``, S the lower set ``mask``."""
        return tuple([(mask & m).bit_count() for m in self.v_masks])


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """A :class:`BipartiteGraph` as ``int64`` arrays over positions.

    ``u_ids``/``v_ids`` give a position's id, ``u_code``/``v_code`` its
    value's index in ``attrs_u``/``attrs_v``. Edge ``e`` joins ``eu[e]`` and
    ``ev[e]``. Upper position ``i``'s edges are ``ptr_u[i]:ptr_u[i + 1]``,
    lower position ``j``'s are ``by_v[ptr_v[j]:ptr_v[j + 1]]``.
    """

    u_ids: np.ndarray
    v_ids: np.ndarray
    u_code: np.ndarray
    v_code: np.ndarray
    ptr_u: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    by_v: np.ndarray
    ptr_v: np.ndarray

    @staticmethod
    def of(g: "BipartiteGraph") -> "EdgeArrays":
        """Build the view of ``g``; callers use the cached ``g.arrays``."""
        us, vs = sorted(g.adj_u), sorted(g.adj_v)
        v_ids = np.fromiter(vs, np.int64, len(vs))
        deg_u = np.fromiter(map(len, map(g.adj_u.__getitem__, us)), np.int64, len(us))
        ptr_u = np.concatenate(([0], np.cumsum(deg_u)))
        v_of = np.fromiter(chain.from_iterable(map(g.adj_u.__getitem__, us)), np.int64, ptr_u[-1])
        # Searching the ids in sorted order is ~4x faster than in edge order.
        by_v = np.argsort(v_of)
        ev = np.empty_like(by_v)
        ev[by_v] = np.searchsorted(v_ids, v_of[by_v])
        return EdgeArrays(
            np.fromiter(us, np.int64, len(us)), v_ids,
            _codes(us, g.u_val, g.attrs_u), _codes(vs, g.v_val, g.attrs_v),
            ptr_u, np.repeat(np.arange(len(us)), deg_u), ev, by_v,
            np.concatenate(([0], np.cumsum(np.bincount(ev, minlength=len(vs))))),
        )


def _codes(ids: list[int], val: Mapping[int, int], domain: tuple[int, ...]) -> np.ndarray:
    """The index in ``domain`` of ``val[x]``, for each ``x`` of ``ids``."""
    dom = np.array(domain, np.int64)
    vals = np.fromiter(map(val.__getitem__, ids), np.int64, len(ids))
    order = np.argsort(dom)
    pos = np.searchsorted(dom, vals, sorter=order).clip(max=dom.size - 1)
    code = order[pos] if dom.size else pos[:0]
    if not np.array_equal(dom[code], vals):
        raise ValueError("an attribute value is outside its side's domain")
    return code


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable attributed bipartite graph.

    ``adj_u[u]`` is the frozenset of V-side neighbours of upper vertex ``u``;
    ``adj_v[v]`` the U-side neighbours of lower vertex ``v``. Isolated
    vertices are representable (empty neighbour sets). ``u_val`` / ``v_val``
    map every vertex to its attribute value; ``attrs_u`` / ``attrs_v`` are
    the full attribute domains ``A(U)`` / ``A(V)``.
    """

    adj_u: Mapping[int, frozenset[int]]
    adj_v: Mapping[int, frozenset[int]]
    u_val: Mapping[int, int]
    v_val: Mapping[int, int]
    attrs_u: tuple[int, ...]
    attrs_v: tuple[int, ...]

    @cached_property
    def bits(self) -> BitView:
        """The graph's :class:`BitView`, built on first use."""
        return BitView.of(self)

    @cached_property
    def arrays(self) -> EdgeArrays:
        """The graph's :class:`EdgeArrays`, built on first use."""
        return EdgeArrays.of(self)

    def __getstate__(self) -> dict:
        # The views are rebuilt where they are used, not shipped.
        state = dict(self.__dict__)
        state.pop("bits", None)
        state.pop("arrays", None)
        return state

    # ---------------------------------------------------------------- build
    @staticmethod
    def from_edges(
        edges: Iterable[tuple[int, int]],
        u_val: Mapping[int, int],
        v_val: Mapping[int, int],
        attrs_u: Iterable[int] | None = None,
        attrs_v: Iterable[int] | None = None,
    ) -> "BipartiteGraph":
        """Build from an edge list and attribute maps.

        Every key of ``u_val`` / ``v_val`` becomes a vertex (so isolated
        vertices survive). Attribute domains default to the distinct values
        present in the maps.
        """
        adj_u: dict[int, set[int]] = {u: set() for u in u_val}
        adj_v: dict[int, set[int]] = {v: set() for v in v_val}
        for u, v in edges:
            if u not in adj_u:
                raise ValueError(f"edge ({u},{v}): unknown upper vertex {u}")
            if v not in adj_v:
                raise ValueError(f"edge ({u},{v}): unknown lower vertex {v}")
            adj_u[u].add(v)
            adj_v[v].add(u)
        au = tuple(sorted(set(attrs_u) if attrs_u is not None else set(u_val.values())))
        av = tuple(sorted(set(attrs_v) if attrs_v is not None else set(v_val.values())))
        return BipartiteGraph(
            adj_u={u: frozenset(s) for u, s in adj_u.items()},
            adj_v={v: frozenset(s) for v, s in adj_v.items()},
            u_val=dict(u_val),
            v_val=dict(v_val),
            attrs_u=au,
            attrs_v=av,
        )

    # -------------------------------------------------------------- export
    def to_pandas(self) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
        """Return ``(edges, u_attrs, v_attrs)`` pandas frames (sorted, deterministic)."""
        import pandas as pd

        rows = sorted((u, v) for u, nbrs in self.adj_u.items() for v in nbrs)
        edges = pd.DataFrame(rows, columns=["u", "v"], dtype="int64")
        u_attrs = pd.DataFrame(
            sorted(self.u_val.items()), columns=["u", "val"], dtype="int64"
        )
        v_attrs = pd.DataFrame(
            sorted(self.v_val.items()), columns=["v", "val"], dtype="int64"
        )
        return edges, u_attrs, v_attrs

    def to_spark(
        self, spark: SparkSession
    ) -> tuple[DataFrame, DataFrame, DataFrame]:
        """Return ``(edges, u_attrs, v_attrs)`` Spark DataFrames."""
        edges, u_attrs, v_attrs = self.to_pandas()
        return (
            spark.createDataFrame(edges, schema="u long, v long"),
            spark.createDataFrame(u_attrs, schema="u long, val long"),
            spark.createDataFrame(v_attrs, schema="v long, val long"),
        )

    # ------------------------------------------------------------- queries
    @property
    def n_u(self) -> int:
        return len(self.adj_u)

    @property
    def n_v(self) -> int:
        return len(self.adj_v)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj_u.values())

    def density(self) -> float:
        """|E| / (|U| * |V|) — the bipartite edge density reported in Table I."""
        denom = self.n_u * self.n_v
        return self.n_edges / denom if denom else 0.0

    def induced(self, us: Iterable[int], vs: Iterable[int]) -> "BipartiteGraph":
        """Induced subgraph on vertex sets ``us`` / ``vs`` (attribute domains kept)."""
        us, vs = set(us), set(vs)
        return BipartiteGraph(
            adj_u={u: self.adj_u[u] & vs for u in us},
            adj_v={v: self.adj_v[v] & us for v in vs},
            u_val={u: self.u_val[u] for u in us},
            v_val={v: self.v_val[v] for v in vs},
            attrs_u=self.attrs_u,
            attrs_v=self.attrs_v,
        )

    def mirror(self) -> "BipartiteGraph":
        """Swap the two sides (used to run V-side machinery on the U side)."""
        return BipartiteGraph(
            adj_u=self.adj_v,
            adj_v=self.adj_u,
            u_val=self.v_val,
            v_val=self.u_val,
            attrs_u=self.attrs_v,
            attrs_v=self.attrs_u,
        )
