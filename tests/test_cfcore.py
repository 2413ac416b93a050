"""CFCore / BCFCore pruning: ego colourful cores and the safety lemmas."""
import pytest

from repro.core.cfcore import bcfcore, cfcore, ego_colorful_core
from repro.core.coloring import greedy_color
from repro.core.fcore import bfcore, fcore
from repro.core.twohop import two_hop
from repro.graph.generators import random_bipartite
from tests.oracles import brute_bsfbc, brute_ssfbc


def _h(seed, p=0.4, n=12):
    g = random_bipartite(n, n, p, seed=seed)
    adj = two_hop(g, 1)
    return g, adj


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_ego_colorful_core_internal_invariant(seed, k):
    """Every survivor has min ego colourful degree >= k inside the core."""
    g, adj = _h(seed)
    color = greedy_color(adj)
    surv = ego_colorful_core(adj, g.v_val, g.attrs_v, color, k)
    sub = {v: adj[v] & surv for v in surv}
    for v in surv:
        per = {a: set() for a in g.attrs_v}
        for w in sub[v] | {v}:
            per[g.v_val[w]].add(color[w])
        assert min(len(s) for s in per.values()) >= k


@pytest.mark.parametrize("seed", range(5))
def test_ego_colorful_core_monotone_in_k(seed):
    g, adj = _h(seed)
    color = greedy_color(adj)
    s1 = ego_colorful_core(adj, g.v_val, g.attrs_v, color, 1)
    s2 = ego_colorful_core(adj, g.v_val, g.attrs_v, color, 2)
    assert s2 <= s1


def test_ego_colorful_core_keeps_fair_clique():
    """A clique with k vertices per attribute survives the ego colourful k-core."""
    # K6 with attrs alternating: every vertex sees 3 colours per attribute.
    adj = {i: set(range(6)) - {i} for i in range(6)}
    val = {i: i % 2 for i in range(6)}
    color = greedy_color(adj)
    surv = ego_colorful_core(adj, val, (0, 1), color, 3)
    assert surv == set(range(6))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("alpha,beta,delta", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (1, 2, 1)])
def test_lemma2_ssfbc_survives_cfcore(seed, alpha, beta, delta):
    """Lemmas 1-2: CFCore never removes a vertex of any SSFBC."""
    g = random_bipartite(7, 7, 0.5, seed=seed)
    pruned = cfcore(g, alpha, beta)
    for l, r in brute_ssfbc(g, alpha, beta, delta):
        assert l <= set(pruned.adj_u), f"lost L vertices at seed={seed}"
        assert r <= set(pruned.adj_v), f"lost R vertices at seed={seed}"


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("alpha,beta,delta", [(1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 2, 1)])
def test_bcfcore_keeps_every_bsfbc(seed, alpha, beta, delta):
    g = random_bipartite(7, 7, 0.5, seed=seed)
    pruned = bcfcore(g, alpha, beta)
    for l, r in brute_bsfbc(g, alpha, beta, delta):
        assert l <= set(pruned.adj_u)
        assert r <= set(pruned.adj_v)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2), (3, 2)])
def test_cfcore_subset_of_fcore(seed, alpha, beta):
    """CFCore prunes at least as much as FCore (Sec. III-B claim)."""
    g = random_bipartite(14, 14, 0.4, seed=seed)
    f = fcore(g, alpha, beta)
    c = cfcore(g, alpha, beta)
    assert set(c.adj_u) <= set(f.adj_u)
    assert set(c.adj_v) <= set(f.adj_v)


@pytest.mark.parametrize("seed", range(6))
def test_bcfcore_subset_of_bfcore(seed):
    g = random_bipartite(14, 14, 0.4, seed=seed)
    f = bfcore(g, 2, 2)
    c = bcfcore(g, 2, 2)
    assert set(c.adj_u) <= set(f.adj_u)
    assert set(c.adj_v) <= set(f.adj_v)


def test_cfcore_empty_graph():
    g = random_bipartite(5, 5, 0.0, seed=0)
    assert cfcore(g, 1, 1).n_edges == 0
    assert bcfcore(g, 1, 1).n_edges == 0
