"""Distributed branch-parallel enumeration == sequential enumeration."""
import pytest

from repro.core.bsfbc import search_bsfbc
from repro.core.cfcore import bcfcore, cfcore
from repro.core.distributed import enumerate_df
from repro.core.ssfbc import search_ssfbc
from repro.graph.generators import PlantedSpec, planted_bipartite, random_bipartite


def enumerate_collect(spark, g_pruned, alpha, beta, delta, **kw):
    """Run :func:`enumerate_df` and collect its rows to a set of (L, R) pairs."""
    rows = enumerate_df(spark, g_pruned, alpha, beta, delta, **kw).collect()
    return {(frozenset(row.l), frozenset(row.r)) for row in rows}


@pytest.fixture(scope="module")
def g_planted():
    return planted_bipartite(
        PlantedSpec(n_u=150, n_v=120, n_background=400, n_blocks=8, block_u=8, block_v=8),
        seed=1,
    )


def test_ssfbc_distributed_matches_sequential(spark, g_planted):
    gp = cfcore(g_planted, 2, 2)
    seq = set(search_ssfbc(gp, 2, 2, 1))
    dist = enumerate_collect(spark, gp, 2, 2, 1)
    assert dist == seq and len(seq) > 0


def test_ssfbc_distributed_bcem_engine(spark, g_planted):
    gp = cfcore(g_planted, 2, 2)
    seq = set(search_ssfbc(gp, 2, 2, 1, algorithm="bcem"))
    dist = enumerate_collect(spark, gp, 2, 2, 1, algorithm="bcem")
    assert dist == seq


def test_bsfbc_distributed_matches_sequential(spark, g_planted):
    gp = bcfcore(g_planted, 2, 2)
    seq = set(search_bsfbc(gp, 2, 2, 1))
    dist = enumerate_collect(spark, gp, 2, 2, 1, model="bsfbc")
    assert dist == seq and len(seq) > 0


def test_proportion_distributed_matches_sequential(spark, g_planted):
    gp = cfcore(g_planted, 2, 2)
    seq = set(search_ssfbc(gp, 2, 2, 1, theta=0.4))
    dist = enumerate_collect(spark, gp, 2, 2, 1, theta=0.4)
    assert dist == seq
    gb = bcfcore(g_planted, 2, 2)
    seq_b = set(search_bsfbc(gb, 2, 2, 1, theta=0.4))
    dist_b = enumerate_collect(spark, gb, 2, 2, 1, model="bsfbc", theta=0.4)
    assert dist_b == seq_b


def test_id_ordering_distributed(spark, g_planted):
    gp = cfcore(g_planted, 2, 2)
    seq = set(search_ssfbc(gp, 2, 2, 1, ordering="id"))
    dist = enumerate_collect(spark, gp, 2, 2, 1, ordering="id")
    assert dist == seq


def test_empty_graph(spark):
    g = random_bipartite(4, 4, 0.0, seed=0)
    gp = cfcore(g, 1, 1)
    assert enumerate_collect(spark, gp, 1, 1, 1) == set()


def test_result_schema(spark, g_planted):
    gp = cfcore(g_planted, 2, 2)
    df = enumerate_df(spark, gp, 2, 2, 1)
    assert [f.name for f in df.schema.fields] == ["l", "r"]


def test_unknown_model_rejected(spark, g_planted):
    with pytest.raises(ValueError):
        enumerate_df(spark, g_planted, 1, 1, 1, model="nope")


@pytest.mark.parametrize(
    "model,theta,attrs",
    [
        ("ssfbc", 0.6, {}),
        ("bsfbc", 0.6, {}),
        ("ssfbc", 0.3, {"n_attrs_v": 3}),
        ("bsfbc", 0.3, {"n_attrs_u": 3}),
    ],
)
def test_theta_rejected_on_driver(spark, model, theta, attrs):
    """A theta out of range, or on a 3-valued domain it applies to, raises
    ValueError from the driver before any Spark job runs."""
    g = random_bipartite(6, 6, 0.6, seed=0, **attrs)
    with pytest.raises(ValueError):
        enumerate_df(spark, g, 1, 1, 1, model=model, theta=theta)
