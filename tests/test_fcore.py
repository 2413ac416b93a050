"""FCore / BFCore peeling vs a naive fixpoint and the containment lemmas."""
import pytest

from repro.core.fcore import bfcore, fcore
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from tests.oracles import brute_bsfbc, brute_ssfbc


def naive_fair_core(g: BipartiteGraph, alpha: int, beta: int, bi: bool) -> BipartiteGraph:
    """Definition-level fixpoint: repeatedly drop any violating vertex."""
    us, vs = set(g.adj_u), set(g.adj_v)
    changed = True
    while changed:
        changed = False
        sub = g.induced(us, vs)
        for u in list(us):
            per = {a: 0 for a in g.attrs_v}
            for v in sub.adj_u[u]:
                per[g.v_val[v]] += 1
            if min(per.values()) < beta:
                us.remove(u)
                changed = True
        sub = g.induced(us, vs)
        for v in list(vs):
            if bi:
                per = {a: 0 for a in g.attrs_u}
                for u in sub.adj_v[v]:
                    per[g.u_val[u]] += 1
                ok = min(per.values()) >= alpha
            else:
                ok = len(sub.adj_v[v]) >= alpha
            if not ok:
                vs.remove(v)
                changed = True
    return g.induced(us, vs)


PARAMS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]

# Seeds 0-7 draw two attribute values per side; "attrs3" is a denser graph
# with three values per side, whose cores are not all empty.
GRAPHS = {str(s): dict(n_u=10, n_v=10, p=0.4, seed=s) for s in range(8)}
GRAPHS["attrs3"] = dict(n_u=12, n_v=12, p=0.8, n_attrs_u=3, n_attrs_v=3, seed=1)


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("alpha,beta", PARAMS)
def test_fcore_matches_naive_fixpoint(graph, alpha, beta):
    g = random_bipartite(**GRAPHS[graph])
    got = fcore(g, alpha, beta)
    want = naive_fair_core(g, alpha, beta, bi=False)
    assert (set(got.adj_u), set(got.adj_v)) == (set(want.adj_u), set(want.adj_v))


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("alpha,beta", PARAMS)
def test_bfcore_matches_naive_fixpoint(graph, alpha, beta):
    g = random_bipartite(**GRAPHS[graph])
    got = bfcore(g, alpha, beta)
    want = naive_fair_core(g, alpha, beta, bi=True)
    assert (set(got.adj_u), set(got.adj_v)) == (set(want.adj_u), set(want.adj_v))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("alpha,beta,delta", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (1, 2, 0)])
def test_lemma1_ssfbc_survives_fcore(seed, alpha, beta, delta):
    """Lemma 1: every SSFBC is contained in the fair α-β core."""
    g = random_bipartite(7, 7, 0.5, seed=seed)
    core = fcore(g, alpha, beta)
    for l, r in brute_ssfbc(g, alpha, beta, delta):
        assert l <= set(core.adj_u), f"L={sorted(l)} lost by fcore"
        assert r <= set(core.adj_v), f"R={sorted(r)} lost by fcore"


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("alpha,beta,delta", [(1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 2, 0)])
def test_lemma3_bsfbc_survives_bfcore(seed, alpha, beta, delta):
    """Lemma 3: every BSFBC is contained in the bi-fair α-β core."""
    g = random_bipartite(7, 7, 0.5, seed=seed)
    core = bfcore(g, alpha, beta)
    for l, r in brute_bsfbc(g, alpha, beta, delta):
        assert l <= set(core.adj_u)
        assert r <= set(core.adj_v)


@pytest.mark.parametrize("seed", range(5))
def test_core_monotone_in_parameters(seed):
    g = random_bipartite(12, 12, 0.4, seed=seed)
    for a, b in [(1, 1), (2, 1), (1, 2)]:
        big = fcore(g, a, b)
        small_a = fcore(g, a + 1, b)
        small_b = fcore(g, a, b + 1)
        assert set(small_a.adj_u) <= set(big.adj_u)
        assert set(small_a.adj_v) <= set(big.adj_v)
        assert set(small_b.adj_u) <= set(big.adj_u)
        assert set(small_b.adj_v) <= set(big.adj_v)


@pytest.mark.parametrize("seed", range(5))
def test_bfcore_subset_of_fcore(seed):
    """Bi-fair core constraints are stricter on V, so BFCore ⊆ FCore."""
    g = random_bipartite(12, 12, 0.4, seed=seed)
    f = fcore(g, 2, 2)
    bf = bfcore(g, 2, 2)
    assert set(bf.adj_u) <= set(f.adj_u)
    assert set(bf.adj_v) <= set(f.adj_v)


def test_core_is_idempotent():
    g = random_bipartite(15, 15, 0.35, seed=3)
    c1 = fcore(g, 2, 2)
    c2 = fcore(c1, 2, 2)
    assert (set(c1.adj_u), set(c1.adj_v)) == (set(c2.adj_u), set(c2.adj_v))


def test_core_internal_degrees_hold():
    g = random_bipartite(20, 20, 0.3, seed=9)
    core = fcore(g, 2, 2)
    for u in core.adj_u:
        per = {a: 0 for a in core.attrs_v}
        for v in core.adj_u[u]:
            per[core.v_val[v]] += 1
        assert min(per.values()) >= 2
    for v in core.adj_v:
        assert len(core.adj_v[v]) >= 2


@pytest.mark.parametrize("fn", [fcore, bfcore])
def test_rejects_zero_parameters(fn):
    g = random_bipartite(4, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        fn(g, 0, 1)
    with pytest.raises(ValueError):
        fn(g, 1, 0)


def test_absent_attribute_value_empties_core():
    """beta >= 1 with an attribute value missing from V leaves nothing."""
    g = BipartiteGraph.from_edges(
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        {0: 0, 1: 1},
        {0: 0, 1: 0},
        attrs_v=(0, 1),
    )
    core = fcore(g, 1, 1)
    assert core.n_u == 0 and core.n_v == 0
