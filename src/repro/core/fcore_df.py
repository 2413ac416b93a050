"""Distributed fair α-β core / bi-fair α-β core as DataFrame dataflow.

Synchronous iterate-to-fixpoint peeling: each round recomputes (attribute)
degrees with ``groupBy`` aggregations and keeps only edges whose endpoints
still qualify (``left_semi`` joins). Fair cores are confluent closures — the
maximal subgraph satisfying the degree constraints is unique and any removal
order reaches it — so the synchronous rounds converge to exactly the
local peel of :mod:`repro.core.fcore` (asserted by tests).

No pipeline calls these functions: the Spark pruning of
:mod:`repro.core.cfcore` peels on the driver, because the local peel beat
these rounds at every measured size (EXPERIMENTS.md, "Spark peel
crossover"). They are the distributed reference the tests check against the
local peel, and the DataFrame side of ``scalability.peel_ladder``.

``localCheckpoint`` truncates the lineage every round; without it the plan
doubles per iteration and Catalyst analysis time dominates.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _attr_ok(
    edges: DataFrame, attrs: DataFrame, side: str, k: int, n_attrs: int
) -> DataFrame:
    """Vertices of ``side`` ("u" or "v") with attribute degree >= k for all values.

    ``attrs`` holds the other side's attributes, ``n_attrs`` values in all.
    An attribute value with zero neighbours never appears in the groupBy, so
    "all values qualify" is expressed as "the number of qualifying values
    equals the domain size".
    """
    other = "v" if side == "u" else "u"
    return (
        edges.join(attrs, other)
        .groupBy(side, "val")
        .agg(F.count("*").alias("ad"))
        .where(F.col("ad") >= k)
        .groupBy(side)
        .agg(F.count("*").alias("nvals"))
        .where(F.col("nvals") >= n_attrs)
        .select(side)
    )


def _v_ok_degree(edges: DataFrame, alpha: int) -> DataFrame:
    """Lower vertices with plain degree >= alpha (FCore's V-side rule)."""
    return (
        edges.groupBy("v")
        .agg(F.count("*").alias("d"))
        .where(F.col("d") >= alpha)
        .select("v")
    )


def _iterate(edges: DataFrame, step) -> DataFrame:
    """Apply ``step`` to the edge set until the edge count stops shrinking."""
    edges = edges.localCheckpoint()
    prev = -1
    while True:
        n = edges.count()
        if n == prev or n == 0:
            return edges
        prev = n
        edges = step(edges).localCheckpoint()


def fcore_edges(
    edges: DataFrame,
    v_attrs: DataFrame,
    alpha: int,
    beta: int,
    n_attrs_v: int,
) -> DataFrame:
    """Edges of the fair α-β core (Definition 8), distributed.

    Vertices of the core are exactly the endpoints of the returned edges
    (every core vertex has degree >= 1 because alpha, beta >= 1).
    """
    if alpha < 1 or beta < 1:
        raise ValueError("fcore_edges requires alpha >= 1 and beta >= 1")

    def step(e: DataFrame) -> DataFrame:
        u_ok = _attr_ok(e, v_attrs, "u", beta, n_attrs_v)
        v_ok = _v_ok_degree(e, alpha)
        return e.join(u_ok, "u", "left_semi").join(v_ok, "v", "left_semi")

    return _iterate(edges, step)


def bfcore_edges(
    edges: DataFrame,
    u_attrs: DataFrame,
    v_attrs: DataFrame,
    alpha: int,
    beta: int,
    n_attrs_u: int,
    n_attrs_v: int,
) -> DataFrame:
    """Edges of the bi-fair α-β core (Definition 13), distributed."""
    if alpha < 1 or beta < 1:
        raise ValueError("bfcore_edges requires alpha >= 1 and beta >= 1")

    def step(e: DataFrame) -> DataFrame:
        u_ok = _attr_ok(e, v_attrs, "u", beta, n_attrs_v)
        v_ok = _attr_ok(e, u_attrs, "v", alpha, n_attrs_u)
        return e.join(u_ok, "u", "left_semi").join(v_ok, "v", "left_semi")

    return _iterate(edges, step)
