"""BSFBC enumeration vs brute force; Observation 6; structural validity."""
import pickle
import time
from collections import Counter

import pytest

from repro.core.bsfbc import expand_to_bsfbc, search_bsfbc
from repro.core.cfcore import bcfcore, cfcore
from repro.core.fairset import combination, mfs_check
from repro.core.ssfbc import SearchTimeout, expand_root, order_candidates, search_ssfbc
from repro.experiments.datasets import DATASETS, load
from repro.graph.bipartite import BitView, EdgeArrays
from repro.graph.generators import PlantedSpec, planted_bipartite, random_bipartite
from tests.oracles import (
    attr_counts,
    brute_bsfbc,
    brute_ssfbc,
    common_neighbors_of_us,
    is_biclique,
    is_fair_set,
    relabelled,
    swapped,
)

PARAM_GRID = [(1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2), (1, 1, 0)]
ALGOS = ["bcem", "bcem_pp", "nsf"]
# (algorithm, theta, values per side): theta needs bcem_pp and at most 1/|A|.
LARGE_ID_CASES = [(a, None, n) for a in ALGOS for n in (2, 3)] + [
    ("bcem_pp", 0.4, 2), ("bcem_pp", 0.3, 3), ("bcem_pp", 1 / 3, 3),
]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("alpha,beta,delta", PARAM_GRID)
@pytest.mark.parametrize("algo", ["bcem", "bcem_pp", "nsf"])
def test_matches_bruteforce(seed, alpha, beta, delta, algo):
    g = random_bipartite(6, 6, 0.6, seed=seed)
    truth = brute_bsfbc(g, alpha, beta, delta)
    got = search_bsfbc(bcfcore(g, alpha, beta), alpha, beta, delta, algorithm=algo)
    assert len(got) == len(set(got)), "duplicate results"
    assert set(got) == truth
    # Mirror identity: the BSFBCs of g.mirror() at (beta, alpha), swapped.
    h = g.mirror()
    mirrored = search_bsfbc(bcfcore(h, beta, alpha), beta, alpha, delta, algorithm=algo)
    assert swapped(mirrored) == truth


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("alpha,beta,delta", [(1, 1, 1), (1, 1, 0), (2, 1, 2), (1, 1, 2)])
@pytest.mark.parametrize("algo", ["bcem", "bcem_pp", "nsf"])
def test_three_valued_domains_match_bruteforce(seed, alpha, beta, delta, algo):
    g = random_bipartite(8, 8, 0.85, n_attrs_u=3, n_attrs_v=3, seed=seed)
    truth = brute_bsfbc(g, alpha, beta, delta)
    got = search_bsfbc(bcfcore(g, alpha, beta), alpha, beta, delta, algorithm=algo)
    assert len(got) == len(set(got)), "duplicate results"
    assert set(got) == truth
    h = g.mirror()
    mirrored = search_bsfbc(bcfcore(h, beta, alpha), beta, alpha, delta, algorithm=algo)
    assert swapped(mirrored) == truth


@pytest.mark.parametrize("dataset,count", [("imdb-lite", 75_315), ("dblp-lite", 15_393)])
def test_mirror_identity_on_datasets(dataset, count):
    """The mirror identity at a Table I BSFBC default: result sets far beyond
    the brute force, with both 2-hop sides at workload scale."""
    d = DATASETS[dataset]
    g, a, b = load(dataset), d.alpha_b, d.beta_b
    got = search_bsfbc(bcfcore(g, a, b), a, b, d.delta)
    assert len(got) == count
    assert swapped(search_bsfbc(bcfcore(g.mirror(), b, a), b, a, d.delta)) == set(got)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("algo,theta,n_attrs", LARGE_ID_CASES)
def test_large_ids_match_bruteforce(seed, algo, theta, n_attrs):
    """Ids >= 2**40, not contiguous: the bit view's positions map back to
    them, and expanding each root's branch separately gives the same set."""
    g = relabelled(random_bipartite(7, 7, 0.8, n_attrs_u=n_attrs, n_attrs_v=n_attrs, seed=seed))
    truth = brute_bsfbc(g, 1, 1, 1, theta)
    gp = bcfcore(g, 1, 1)
    got = search_bsfbc(gp, 1, 1, 1, algorithm=algo, theta=theta)
    assert len(got) == len(set(got)), "duplicate results"
    assert set(got) == truth
    order = order_candidates(gp, gp.adj_v, "deg")
    roots = set()
    for i in range(len(order)):
        ssfbcs = expand_root(gp, 1, 1, 1, order, i, algorithm=algo, theta=theta)
        roots |= set(expand_to_bsfbc(gp, ssfbcs, 1, 1, 1, theta))
    assert roots == truth


def test_one_bit_view_per_graph(monkeypatch):
    """Every peel and 2-hop of a BCFCore call builds each graph's edge-array
    view once, and every root's branch and expansion on one pruned graph (what
    one Spark worker runs) its bit view once. Pickling leaves both out."""
    g = planted_bipartite(
        PlantedSpec(n_u=120, n_v=90, n_background=300, n_blocks=6, block_u=8, block_v=8),
        seed=0,
    )
    g_size = len(pickle.dumps(g))
    arrays = []
    build_arrays = EdgeArrays.of
    monkeypatch.setattr(
        EdgeArrays, "of", staticmethod(lambda h: arrays.append(h) or build_arrays(h))
    )
    gp = bcfcore(g, 2, 2)
    assert bcfcore(g, 2, 2) == gp
    # g once, then per call the peeled graph, its mirror and the re-peeled graph.
    assert len(arrays) == 7 and len({id(h) for h in arrays}) == 7
    assert sum(h is g for h in arrays) == 1
    assert len(pickle.dumps(g)) == g_size
    assert pickle.loads(pickle.dumps(g)).__dict__.keys() == set(g.__dataclass_fields__)
    shipped = len(pickle.dumps(gp))
    builds = []
    build = BitView.of
    monkeypatch.setattr(BitView, "of", staticmethod(lambda h: builds.append(h) or build(h)))
    order = order_candidates(gp, gp.adj_v, "deg")
    n_results = 0
    for algo in ALGOS:
        for i in range(len(order)):
            ssfbcs = expand_root(gp, 2, 2, 1, order, i, algorithm=algo)
            n_results += len(expand_to_bsfbc(gp, ssfbcs, 2, 2, 1))
    assert n_results > 0
    assert builds == [gp]
    assert len(pickle.dumps(gp)) == shipped
    assert pickle.loads(pickle.dumps(gp)) == gp


def _per_subset_expansion(g, ssfbcs, alpha, beta, delta, theta):
    """Reference: Algorithm 9 lines 4-8 literally, one MFSCheck per subset l'."""
    res = []
    for l_full, r in ssfbcs:
        for l1 in combination(l_full, g.u_val, g.attrs_u, alpha, delta, theta):
            n_l1 = common_neighbors_of_us(g, l1)
            if mfs_check(
                attr_counts(n_l1, g.v_val, g.attrs_v), attr_counts(r, g.v_val, g.attrs_v),
                beta, delta, theta,
            ):
                res.append((l1, r))
    return res


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("theta", [None, 0.45])
def test_grouped_expansion_matches_per_subset_loop(seed, theta):
    g = planted_bipartite(
        PlantedSpec(n_u=120, n_v=90, n_background=300, n_blocks=6, block_u=8, block_v=8),
        seed=seed,
    )
    gp = bcfcore(g, 2, 2)
    ssfbcs = search_ssfbc(gp, 2, 2, 1, theta=theta)
    assert len({l for l, _ in ssfbcs}) < len(ssfbcs), "no repeated upper side"
    want = _per_subset_expansion(gp, ssfbcs, 2, 2, 1, theta)
    got = expand_to_bsfbc(gp, ssfbcs, 2, 2, 1, theta)
    assert want
    assert Counter(got) == Counter(want)


def test_expansion_honours_deadline():
    g = random_bipartite(7, 7, 0.55, seed=9)
    gp = bcfcore(g, 1, 1)
    ssfbcs = search_ssfbc(gp, 1, 1, 1)
    assert ssfbcs
    with pytest.raises(SearchTimeout):
        expand_to_bsfbc(gp, ssfbcs, 1, 1, 1, deadline=time.perf_counter() - 1.0)


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
    g = random_bipartite(7, 7, 0.55, seed=seed)
    ssfbc_by_r = {r: l for l, r in brute_ssfbc(g, 1, 1, 1)}
    for a, b in brute_bsfbc(g, 1, 1, 1):
        l_full = ssfbc_by_r[b]
        assert a <= l_full
        assert mfs_check(
            attr_counts(l_full, g.u_val, g.attrs_u), attr_counts(a, g.u_val, g.attrs_u), 1, 1
        )


def test_bfair_bcem_end_to_end():
    g = random_bipartite(7, 7, 0.55, seed=9)
    gp = bcfcore(g, 1, 1)
    assert set(search_bsfbc(gp, 1, 1, 1)) == brute_bsfbc(g, 1, 1, 1)
    assert set(search_bsfbc(gp, 1, 1, 1, algorithm="bcem")) == brute_bsfbc(g, 1, 1, 1)
