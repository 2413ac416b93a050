"""SSFBC enumeration vs the brute-force oracle, across algorithms and orderings."""
import pytest

from repro.core.bsfbc import expand_to_bsfbc, search_bsfbc
from repro.core.cfcore import cfcore
from repro.core.ssfbc import (
    SearchTimeout,
    enumerate_maximal_bicliques,
    expand_root,
    order_candidates,
    search_ssfbc,
)
from repro.graph.generators import PlantedSpec, planted_bipartite, random_bipartite
from tests.oracles import (
    brute_maximal_bicliques,
    brute_ssfbc,
    common_neighbors_of_vs,
    is_biclique,
    is_fair_set,
    relabelled,
)

ALGOS = ["bcem", "bcem_pp", "nsf"]
# (algorithm, theta, values per side): theta needs bcem_pp and at most 1/|A|.
LARGE_ID_CASES = [(a, None, n) for a in ALGOS for n in (2, 3)] + [
    ("bcem_pp", 0.4, 2), ("bcem_pp", 0.3, 3), ("bcem_pp", 1 / 3, 3),
]

PARAM_GRID = [(1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 0), (2, 2, 2), (3, 1, 1)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("alpha,beta,delta", PARAM_GRID)
@pytest.mark.parametrize("algo", ["bcem", "bcem_pp", "nsf"])
def test_matches_bruteforce(seed, alpha, beta, delta, algo):
    g = random_bipartite(6, 6, 0.55, seed=seed)
    truth = brute_ssfbc(g, alpha, beta, delta)
    got = search_ssfbc(cfcore(g, alpha, beta), alpha, beta, delta, algorithm=algo)
    assert len(got) == len(set(got)), "duplicate results"
    assert set(got) == truth


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("algo,theta,n_attrs", LARGE_ID_CASES)
def test_large_ids_match_bruteforce(seed, algo, theta, n_attrs):
    """Ids >= 2**40, not contiguous: the bit view's positions map back to
    them, and the union of the per-root branches is the whole search."""
    g = relabelled(random_bipartite(6, 6, 0.6, n_attrs_u=n_attrs, n_attrs_v=n_attrs, seed=seed))
    truth = brute_ssfbc(g, 1, 1, 1, theta)
    gp = cfcore(g, 1, 1)
    got = search_ssfbc(gp, 1, 1, 1, algorithm=algo, theta=theta)
    assert len(got) == len(set(got)), "duplicate results"
    assert set(got) == truth
    order = order_candidates(gp, gp.adj_v, "deg")
    roots = set()
    for i in range(len(order)):
        roots |= set(expand_root(gp, 1, 1, 1, order, i, algorithm=algo, theta=theta))
    assert roots == truth


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("algo", ["bcem", "bcem_pp", "nsf"])
def test_matches_bruteforce_unpruned(seed, algo):
    """Correct also without graph pruning (pruning is an optimisation)."""
    g = random_bipartite(6, 6, 0.5, seed=100 + seed)
    truth = brute_ssfbc(g, 2, 1, 1)
    assert set(search_ssfbc(g, 2, 1, 1, algorithm=algo)) == truth


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("algo", ["bcem", "bcem_pp"])
def test_orderings_agree(seed, algo):
    """DegOrd and IDOrd must yield the same result set (different cost only)."""
    g = random_bipartite(8, 8, 0.45, seed=seed)
    gp = cfcore(g, 2, 1)
    a = set(search_ssfbc(gp, 2, 1, 1, algorithm=algo, ordering="deg"))
    b = set(search_ssfbc(gp, 2, 1, 1, algorithm=algo, ordering="id"))
    assert a == b


def test_order_candidates():
    g = random_bipartite(6, 6, 0.5, seed=1)
    vs = list(g.adj_v)
    ids = order_candidates(g, vs, "id")
    assert ids == sorted(vs)
    deg = order_candidates(g, vs, "deg")
    degs = [len(g.adj_v[v]) for v in deg]
    assert degs == sorted(degs, reverse=True)
    with pytest.raises(ValueError):
        order_candidates(g, vs, "nope")


@pytest.mark.parametrize("seed", range(3))
def test_algorithms_agree_on_planted_graph(seed):
    """Cross-check all engines on a mid-size graph brute force can't reach."""
    g = planted_bipartite(
        PlantedSpec(n_u=120, n_v=90, n_background=300, n_blocks=6, block_u=8, block_v=8),
        seed=seed,
    )
    gp = cfcore(g, 2, 2)
    res_pp = set(search_ssfbc(gp, 2, 2, 1, algorithm="bcem_pp"))
    res_b = set(search_ssfbc(gp, 2, 2, 1, algorithm="bcem"))
    assert res_pp == res_b
    assert len(res_pp) > 0


@pytest.mark.parametrize("seed", range(3))
def test_results_are_valid_ssfbcs(seed):
    """Structural validity: biclique, |L|>=alpha, fair R, L = N(R)."""
    g = planted_bipartite(
        PlantedSpec(n_u=100, n_v=80, n_background=250, n_blocks=5, block_u=7, block_v=7),
        seed=seed,
    )
    alpha, beta, delta = 2, 2, 1
    gp = cfcore(g, alpha, beta)
    for l, r in search_ssfbc(gp, alpha, beta, delta):
        assert len(l) >= alpha
        assert is_biclique(gp, l, r)
        assert is_fair_set(r, gp.v_val, gp.attrs_v, beta, delta)
        assert common_neighbors_of_vs(gp, r) == l, "L must be the full common neighbourhood"


def test_fair_bcem_end_to_end():
    g = random_bipartite(7, 7, 0.5, seed=5)
    assert set(search_ssfbc(cfcore(g, 2, 1), 2, 1, 1)) == brute_ssfbc(g, 2, 1, 1)


def test_time_budget_raises_searchtimeout():
    """A zero budget must abort immediately (the scaled INF convention)."""
    g = planted_bipartite(
        PlantedSpec(n_u=120, n_v=90, n_background=300, n_blocks=6, block_u=8, block_v=8),
        seed=0,
    )
    with pytest.raises(SearchTimeout):
        search_ssfbc(g, 1, 1, 1, time_budget_s=0.0)
    # A generous budget changes nothing.
    small = random_bipartite(6, 6, 0.5, seed=1)
    assert set(search_ssfbc(small, 1, 1, 1, time_budget_s=60.0)) == set(
        search_ssfbc(small, 1, 1, 1)
    )


def test_unknown_algorithm_rejected():
    """An unknown engine, alpha < 1 or delta < 0 raises before any search:
    below those bounds the engines disagree with the brute force."""
    g = random_bipartite(4, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        search_ssfbc(g, 1, 1, 1, algorithm="bogus")
    with pytest.raises(ValueError):
        expand_root(g, 1, 1, 1, sorted(g.adj_v), 0, algorithm="bogus")
    for alpha, delta in [(0, 1), (1, -1)]:
        for algo in ALGOS:
            with pytest.raises(ValueError, match="alpha >= 1 and delta >= 0"):
                search_ssfbc(g, alpha, 1, delta, algorithm=algo)
            with pytest.raises(ValueError, match="alpha >= 1 and delta >= 0"):
                expand_root(g, alpha, 1, delta, sorted(g.adj_v), 0, algorithm=algo)
        with pytest.raises(ValueError, match="alpha >= 1 and delta >= 0"):
            search_bsfbc(g, alpha, 1, delta)
        with pytest.raises(ValueError, match="alpha >= 1 and delta >= 0"):
            expand_to_bsfbc(g, search_ssfbc(g, 1, 1, 1), alpha, 1, delta)


def test_theta_requires_pp():
    g = random_bipartite(4, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        search_ssfbc(g, 1, 1, 1, algorithm="bcem", theta=0.4)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("min_l,min_r", [(1, 1), (2, 2), (2, 3)])
def test_enumerate_maximal_bicliques(seed, min_l, min_r):
    g = random_bipartite(7, 7, 0.5, seed=seed)
    got = set(enumerate_maximal_bicliques(g, min_l, min_r))
    assert got == brute_maximal_bicliques(g, min_l, min_r)


@pytest.mark.parametrize("seed", range(4))
def test_empty_when_beta_unreachable(seed):
    g = random_bipartite(5, 5, 0.4, seed=seed)
    assert search_ssfbc(cfcore(g, 1, 4), 1, 4, 0) == [] or all(
        len(r) >= 8 for _, r in search_ssfbc(cfcore(g, 1, 4), 1, 4, 0)
    )
