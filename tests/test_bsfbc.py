"""BSFBC enumeration vs brute force; Observation 6; structural validity."""
import pytest

from repro.core.bsfbc import search_bsfbc
from repro.core.cfcore import bcfcore, cfcore
from repro.core.fairset import is_fair_set
from repro.core.ssfbc import search_ssfbc
from repro.graph.generators import PlantedSpec, planted_bipartite, random_bipartite
from tests.oracles import brute_bsfbc, brute_ssfbc, is_biclique

PARAM_GRID = [(1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2), (1, 1, 0)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("alpha,beta,delta", PARAM_GRID)
@pytest.mark.parametrize("algo", ["bcem", "bcem_pp", "nsf"])
def test_matches_bruteforce(seed, alpha, beta, delta, algo):
    g = random_bipartite(6, 6, 0.6, seed=seed)
    truth = brute_bsfbc(g, alpha, beta, delta)
    got = search_bsfbc(bcfcore(g, alpha, beta), alpha, beta, delta, algorithm=algo)
    assert len(got) == len(set(got)), "duplicate results"
    assert set(got) == truth


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("alpha,beta,delta", [(1, 1, 1), (2, 2, 2)])
def test_observation6_bsfbc_inside_some_ssfbc(seed, alpha, beta, delta):
    """Every BSFBC is contained in a single-side fair biclique."""
    g = random_bipartite(7, 7, 0.55, seed=seed)
    ssfbcs = brute_ssfbc(g, alpha, beta, delta)
    for a, b in brute_bsfbc(g, alpha, beta, delta):
        assert any(a <= l and b <= r for l, r in ssfbcs), (
            f"BSFBC ({sorted(a)},{sorted(b)}) not inside any SSFBC"
        )


@pytest.mark.parametrize("seed", range(4))
def test_bsfbc_lower_side_is_an_ssfbc_r(seed):
    """Stronger form used by Algorithm 9: the V side of a BSFBC is the full R
    of some SSFBC (see DESIGN.md correctness notes)."""
    g = random_bipartite(7, 7, 0.55, seed=seed)
    r_sides = {r for _, r in brute_ssfbc(g, 1, 1, 1)}
    for _, b in brute_bsfbc(g, 1, 1, 1):
        assert b in r_sides


@pytest.mark.parametrize("seed", range(3))
def test_engines_agree_on_planted_graph(seed):
    g = planted_bipartite(
        PlantedSpec(n_u=120, n_v=90, n_background=300, n_blocks=6, block_u=8, block_v=8),
        seed=seed,
    )
    gp = bcfcore(g, 2, 2)
    res_pp = set(search_bsfbc(gp, 2, 2, 1, algorithm="bcem_pp"))
    res_b = set(search_bsfbc(gp, 2, 2, 1, algorithm="bcem"))
    assert res_pp == res_b
    assert res_pp


@pytest.mark.parametrize("seed", range(3))
def test_results_are_valid_bsfbcs(seed):
    g = planted_bipartite(
        PlantedSpec(n_u=100, n_v=80, n_background=250, n_blocks=5, block_u=7, block_v=7),
        seed=seed,
    )
    alpha, beta, delta = 2, 2, 1
    gp = bcfcore(g, alpha, beta)
    for l, r in search_bsfbc(gp, alpha, beta, delta):
        assert is_biclique(gp, l, r)
        assert is_fair_set(l, gp.u_val, gp.attrs_u, alpha, delta)
        assert is_fair_set(r, gp.v_val, gp.attrs_v, beta, delta)


@pytest.mark.parametrize("seed", range(4))
def test_bsfbc_upper_sides_are_fair_subsets_of_ssfbc_l(seed):
    """Each BSFBC's L is a maximal fair subset of the matching SSFBC's L
    (the Combination step of Algorithm 9)."""
    from repro.core.fairset import mfs_check

    g = random_bipartite(7, 7, 0.55, seed=seed)
    ssfbc_by_r = {r: l for l, r in brute_ssfbc(g, 1, 1, 1)}
    for a, b in brute_bsfbc(g, 1, 1, 1):
        l_full = ssfbc_by_r[b]
        assert a <= l_full
        assert mfs_check(l_full, a, g.u_val, g.attrs_u, 1, 1)


def test_bfair_bcem_end_to_end():
    g = random_bipartite(7, 7, 0.55, seed=9)
    gp = bcfcore(g, 1, 1)
    assert set(search_bsfbc(gp, 1, 1, 1)) == brute_bsfbc(g, 1, 1, 1)
    assert set(search_bsfbc(gp, 1, 1, 1, algorithm="bcem")) == brute_bsfbc(g, 1, 1, 1)
