"""Distributed 2-hop construction vs DuckDB SQL and the local implementation."""
import pytest

from repro.core.twohop import bi_two_hop, bi_two_hop_edges_df, two_hop, two_hop_edges_df
from repro.graph.generators import random_bipartite
from tests.oracles import assert_equivalent


@pytest.fixture(scope="module")
def g():
    return random_bipartite(20, 16, 0.3, seed=6)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_two_hop_df_oracle(spark, g, alpha):
    e_pdf, _u, _v = g.to_pandas()
    edges, _ua, _va = g.to_spark(spark)
    got = two_hop_edges_df(edges, alpha)
    assert_equivalent(
        got,
        f"""
        SELECT e1.v AS v1, e2.v AS v2
        FROM edges e1 JOIN edges e2 ON e1.u = e2.u AND e1.v < e2.v
        GROUP BY e1.v, e2.v
        HAVING COUNT(*) >= {alpha}
        """,
        edges=e_pdf,
    )


@pytest.mark.parametrize("alpha", [1, 2])
def test_bi_two_hop_df_oracle(spark, g, alpha):
    e_pdf, u_pdf, _v = g.to_pandas()
    edges, u_attrs, _va = g.to_spark(spark)
    n_au = len(g.attrs_u)
    got = bi_two_hop_edges_df(edges, u_attrs, alpha, n_au)
    assert_equivalent(
        got,
        f"""
        SELECT v1, v2 FROM (
            SELECT e1.v AS v1, e2.v AS v2, a.val
            FROM edges e1
            JOIN edges e2 ON e1.u = e2.u AND e1.v < e2.v
            JOIN u_attrs a ON e1.u = a.u
            GROUP BY e1.v, e2.v, a.val
            HAVING COUNT(*) >= {alpha}
        ) GROUP BY v1, v2 HAVING COUNT(*) >= {n_au}
        """,
        edges=e_pdf,
        u_attrs=u_pdf,
    )


@pytest.mark.parametrize("alpha", [1, 2])
def test_two_hop_df_matches_local(spark, g, alpha):
    edges, _ua, _va = g.to_spark(spark)
    pdf = two_hop_edges_df(edges, alpha).toPandas()
    got = set(zip(pdf["v1"].tolist(), pdf["v2"].tolist()))
    want = {
        (a, b)
        for a, nbrs in two_hop(g, alpha).items()
        for b in nbrs
        if a < b
    }
    assert got == want


def test_bi_two_hop_df_matches_local(spark, g):
    edges, u_attrs, _va = g.to_spark(spark)
    pdf = bi_two_hop_edges_df(edges, u_attrs, 1, len(g.attrs_u)).toPandas()
    got = set(zip(pdf["v1"].tolist(), pdf["v2"].tolist()))
    want = {
        (a, b)
        for a, nbrs in bi_two_hop(g, 1).items()
        for b in nbrs
        if a < b
    }
    assert got == want
