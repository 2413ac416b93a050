"""Distributed pruning: DuckDB-oracled degree queries + local equivalence."""
import pytest
from pyspark.sql import functions as F

from repro.core.cfcore import bcfcore, bcfcore_spark
from repro.core.fcore import bfcore, fcore
from repro.core.fcore_df import bfcore_edges, fcore_edges
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import PlantedSpec, planted_bipartite, random_bipartite
from tests.oracles import assert_equivalent


@pytest.fixture(scope="module")
def g_small():
    return random_bipartite(25, 20, 0.25, seed=4)


@pytest.fixture(scope="module")
def g_planted():
    return planted_bipartite(
        PlantedSpec(n_u=150, n_v=120, n_background=400, n_blocks=8, block_u=8, block_v=8),
        seed=1,
    )


@pytest.fixture(scope="module")
def g_planted3():
    """Three attribute values per side; larger blocks keep the cores non-empty."""
    return planted_bipartite(
        PlantedSpec(
            n_u=150, n_v=120, n_background=400, n_blocks=8, block_u=12, block_v=12,
            n_attrs_u=3, n_attrs_v=3,
        ),
        seed=1,
    )


def test_attribute_degree_query_oracle(spark, g_small):
    """The attribute-degree building block of FCore, checked against DuckDB."""
    e_pdf, _u, v_pdf = g_small.to_pandas()
    edges, _ua, v_attrs = g_small.to_spark(spark)
    got = (
        edges.join(v_attrs, "v")
        .groupBy("u", "val")
        .agg(F.count("*").alias("ad"))
    )
    assert_equivalent(
        got,
        """
        SELECT e.u AS u, a.val AS val, COUNT(*) AS ad
        FROM edges e JOIN v_attrs a ON e.v = a.v
        GROUP BY e.u, a.val
        """,
        edges=e_pdf,
        v_attrs=v_pdf,
    )


def test_degree_query_oracle(spark, g_small):
    e_pdf, _u, _v = g_small.to_pandas()
    edges, _ua, _va = g_small.to_spark(spark)
    got = edges.groupBy("v").agg(F.count("*").alias("d"))
    assert_equivalent(
        got,
        "SELECT v AS v, COUNT(*) AS d FROM edges GROUP BY v",
        edges=e_pdf,
    )


def test_min_attr_degree_filter_oracle(spark, g_small):
    """One full FCore U-side round expressed in SQL vs the DataFrame plan."""
    beta, n_av = 2, len(g_small.attrs_v)
    e_pdf, _u, v_pdf = g_small.to_pandas()
    edges, _ua, v_attrs = g_small.to_spark(spark)
    got = (
        edges.join(v_attrs, "v")
        .groupBy("u", "val")
        .agg(F.count("*").alias("ad"))
        .where(F.col("ad") >= beta)
        .groupBy("u")
        .agg(F.count("*").alias("nvals"))
        .where(F.col("nvals") >= n_av)
        .select("u")
    )
    assert_equivalent(
        got,
        f"""
        SELECT u FROM (
            SELECT e.u AS u, a.val, COUNT(*) AS ad
            FROM edges e JOIN v_attrs a ON e.v = a.v
            GROUP BY e.u, a.val
            HAVING COUNT(*) >= {beta}
        ) GROUP BY u HAVING COUNT(*) >= {n_av}
        """,
        edges=e_pdf,
        v_attrs=v_pdf,
    )


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2), (3, 2)])
def test_fcore_edges_matches_local(spark, g_planted, alpha, beta):
    edges, _ua, v_attrs = g_planted.to_spark(spark)
    got = fcore_edges(edges, v_attrs, alpha, beta, len(g_planted.attrs_v)).toPandas()
    want = fcore(g_planted, alpha, beta)
    got_edges = set(zip(got["u"].tolist(), got["v"].tolist()))
    want_edges = {(u, v) for u, nbrs in want.adj_u.items() for v in nbrs}
    assert got_edges == want_edges


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2)])
def test_bfcore_edges_matches_local(spark, g_planted, alpha, beta):
    edges, u_attrs, v_attrs = g_planted.to_spark(spark)
    got = bfcore_edges(
        edges, u_attrs, v_attrs, alpha, beta,
        len(g_planted.attrs_u), len(g_planted.attrs_v),
    ).toPandas()
    want = bfcore(g_planted, alpha, beta)
    got_edges = set(zip(got["u"].tolist(), got["v"].tolist()))
    want_edges = {(u, v) for u, nbrs in want.adj_u.items() for v in nbrs}
    assert got_edges == want_edges


def test_fcore_edges_rejects_zero_params(spark, g_small):
    edges, _ua, v_attrs = g_small.to_spark(spark)
    with pytest.raises(ValueError):
        fcore_edges(edges, v_attrs, 0, 1, 2)


@pytest.fixture
def to_spark_calls(monkeypatch):
    """Counts ``BipartiteGraph.to_spark`` calls; the list holds one entry per call."""
    calls = []
    real = BipartiteGraph.to_spark

    def counting(self, spark):
        calls.append(self)
        return real(self, spark)

    monkeypatch.setattr(BipartiteGraph, "to_spark", counting)
    return calls


def test_bcfcore_spark_matches_local(spark, g_planted, g_planted3, to_spark_calls):
    """Same core as the local pipeline; the Spark pipeline prunes on the driver
    and converts nothing to Spark."""
    for g in (g_planted, g_planted3):
        lo = bcfcore(g, 2, 2)
        to_spark_calls.clear()
        hi = bcfcore_spark(spark, g, 2, 2)
        assert len(to_spark_calls) == 0
        assert (set(lo.adj_u), set(lo.adj_v)) == (set(hi.adj_u), set(hi.adj_v))


def test_fcore_edges_empty_result(spark):
    g = random_bipartite(6, 6, 0.15, seed=2)
    edges, _ua, v_attrs = g.to_spark(spark)
    got = fcore_edges(edges, v_attrs, 5, 5, 2)
    assert got.count() == 0
