"""Distributed branch-parallel enumeration == sequential enumeration."""
import pytest

from repro.core.bsfbc import search_bsfbc
from repro.core.cfcore import bcfcore, cfcore
from repro.core.distributed import enumerate_df
from repro.core.ssfbc import search_ssfbc
from repro.graph.generators import PlantedSpec, planted_bipartite, random_bipartite
from tests.oracles import brute_bsfbc, brute_ssfbc, round_robin_values, swapped


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
    # Mirror identity on the Spark path, at (alpha, beta) = (2, 3) and (3, 2).
    gb, gm = bcfcore(g_planted, 2, 3), bcfcore(g_planted.mirror(), 3, 2)
    seq_b = set(search_bsfbc(gb, 2, 3, 1))
    assert swapped(enumerate_collect(spark, gm, 3, 2, 1, model="bsfbc")) == seq_b and seq_b


def test_proportion_distributed_matches_sequential(spark, g_planted):
    gp = cfcore(g_planted, 2, 2)
    seq = set(search_ssfbc(gp, 2, 2, 1, theta=0.4))
    dist = enumerate_collect(spark, gp, 2, 2, 1, theta=0.4)
    assert dist == seq
    gb = bcfcore(g_planted, 2, 2)
    seq_b = set(search_bsfbc(gb, 2, 2, 1, theta=0.4))
    dist_b = enumerate_collect(spark, gb, 2, 2, 1, model="bsfbc", theta=0.4)
    assert dist_b == seq_b


def test_proportion_three_valued_distributed_matches_sequential(spark):
    """PSSFBC and PBSFBC with three values per side, theta up to 1/3: the
    Spark fan-out, the sequential search and the brute force agree."""
    g = round_robin_values(random_bipartite(8, 8, 0.85, seed=3), 3)
    for theta in (0.3, 1 / 3):
        gp = cfcore(g, 1, 1)
        seq = set(search_ssfbc(gp, 1, 1, 2, theta=theta))
        assert enumerate_collect(spark, gp, 1, 1, 2, theta=theta) == seq
        assert seq == brute_ssfbc(g, 1, 1, 2, theta) and seq
        gb = bcfcore(g, 1, 1)
        seq_b = set(search_bsfbc(gb, 1, 1, 2, theta=theta))
        assert enumerate_collect(spark, gb, 1, 1, 2, model="bsfbc", theta=theta) == seq_b
        assert seq_b == brute_bsfbc(g, 1, 1, 2, theta) and seq_b


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
    """An unknown model, alpha < 1 or delta < 0 raises on the driver."""
    with pytest.raises(ValueError):
        enumerate_df(spark, g_planted, 1, 1, 1, model="nope")
    for model in ("ssfbc", "bsfbc"):
        for alpha, delta in [(0, 1), (1, -1)]:
            with pytest.raises(ValueError, match="alpha >= 1 and delta >= 0"):
                enumerate_df(spark, g_planted, alpha, 1, delta, model=model)


@pytest.mark.parametrize(
    "model,theta,attrs,algorithm",
    [
        ("ssfbc", 0.6, {}, "bcem_pp"),
        ("bsfbc", 0.6, {}, "bcem_pp"),
        ("ssfbc", 0.3, {"n_attrs_v": 3}, "bcem_pp"),
        ("bsfbc", 0.3, {"n_attrs_u": 3}, "bcem_pp"),
        ("ssfbc", 0.3, {}, "bcem"),
    ],
    ids=["ssfbc-0.6-attrs0", "bsfbc-0.6-attrs1", "ssfbc-0.3-attrs2", "bsfbc-0.3-attrs3", "ssfbc-0.3-bcem"],
)
def test_theta_rejected_on_driver(spark, model, theta, attrs, algorithm):
    """A theta outside (0, 1/|A|] on a domain it applies to, or with an
    engine other than bcem_pp, raises ValueError from the driver before any
    Spark job runs. On a 3-valued domain theta = 0.3 and 1/3 are accepted
    (no job runs either: the result is lazy) and 0.34 raises."""
    g = random_bipartite(6, 6, 0.6, seed=0, **attrs)
    if attrs:
        for ok in (theta, 1 / 3):
            enumerate_df(spark, g, 1, 1, 1, model=model, algorithm=algorithm, theta=ok)
        theta = 0.34
    with pytest.raises(ValueError):
        enumerate_df(spark, g, 1, 1, 1, model=model, algorithm=algorithm, theta=theta)


@pytest.mark.parametrize("model,want", [("ssfbc", 359), ("bsfbc", 3110)])
def test_enumerate_distributed_job(spark, model, want):
    """``jobs/enumerate_distributed.py`` gives Table II's youtube-lite counts."""
    from jobs.enumerate_distributed import main

    assert main(spark, "youtube-lite", model) == want
