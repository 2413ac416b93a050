"""Attributed bipartite graph ``G(U, V, E, A)`` (paper Sec. II).

Two representations:

- **Local** (:class:`BipartiteGraph`): adjacency dicts + attribute maps on
  the driver. Used by the branch-and-bound kernels (which are sequential per
  search subtree) and by the exact O(E) peeling of :mod:`repro.core.fcore`,
  which builds numpy edge arrays from the dicts on every call.
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

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import pandas as pd
from pyspark.sql import DataFrame, SparkSession


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

    def common_neighbors_of_vs(self, vs: Iterable[int]) -> frozenset[int]:
        """``N(S)`` for a lower-side set S: upper vertices adjacent to *all* of S."""
        it = iter(vs)
        try:
            acc = set(self.adj_v[next(it)])
        except StopIteration:
            return frozenset(self.adj_u)
        for v in it:
            acc &= self.adj_v[v]
        return frozenset(acc)

    def common_neighbors_of_us(self, us: Iterable[int]) -> frozenset[int]:
        """``N(S)`` for an upper-side set S: lower vertices adjacent to *all* of S."""
        it = iter(us)
        try:
            acc = set(self.adj_u[next(it)])
        except StopIteration:
            return frozenset(self.adj_v)
        for u in it:
            acc &= self.adj_u[u]
        return frozenset(acc)

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
