"""Local 2-hop constructions (Algorithms 3 and 8) vs naive counting."""
import itertools

import pytest

from repro.core.twohop import adjacency_from_pairs, bi_two_hop, two_hop
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite


def naive_two_hop(g, alpha):
    adj = {v: set() for v in g.adj_v}
    for a, b in itertools.combinations(sorted(g.adj_v), 2):
        if len(g.adj_v[a] & g.adj_v[b]) >= alpha:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def naive_bi_two_hop(g, alpha):
    adj = {v: set() for v in g.adj_v}
    for a, b in itertools.combinations(sorted(g.adj_v), 2):
        common = g.adj_v[a] & g.adj_v[b]
        per = {x: 0 for x in g.attrs_u}
        for u in common:
            per[g.u_val[u]] += 1
        if min(per.values()) >= alpha:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _shifted(g, offset):
    """``g`` with ``offset`` added to every id of both sides."""
    return BipartiteGraph.from_edges(
        [(u + offset, v + offset) for u, vs in g.adj_u.items() for v in vs],
        {u + offset: a for u, a in g.u_val.items()},
        {v + offset: a for v, a in g.v_val.items()},
        attrs_u=g.attrs_u,
        attrs_v=g.attrs_v,
    )


# Degenerate inputs for the array count: no vertices, no edges, isolated
# vertices and upper vertices of degree 0 and 1 (u3, u4), ids >= 2**40, and
# a three-valued A(U).
EDGE_CASES = {
    "empty": BipartiteGraph.from_edges([], {}, {}),
    "edgeless": BipartiteGraph.from_edges([], {0: 0, 1: 1}, {0: 0, 1: 1, 2: 0}),
    "isolated": BipartiteGraph.from_edges(
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (4, 2)],
        {0: 0, 1: 1, 2: 1, 3: 0, 4: 0},
        {0: 0, 1: 1, 2: 0, 3: 1},
    ),
    "ids_2_40": _shifted(random_bipartite(12, 10, 0.4, seed=3), 2**40),
    "attrs3": random_bipartite(12, 10, 0.7, n_attrs_u=3, n_attrs_v=3, seed=1),
}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_two_hop_matches_naive(seed, alpha):
    g = random_bipartite(12, 10, 0.35, seed=seed)
    assert two_hop(g, alpha) == naive_two_hop(g, alpha)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("alpha", [1, 2])
def test_bi_two_hop_matches_naive(seed, alpha):
    g = random_bipartite(12, 10, 0.4, seed=seed)
    assert bi_two_hop(g, alpha) == naive_bi_two_hop(g, alpha)


@pytest.mark.parametrize("graph", EDGE_CASES)
@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("mirror", [False, True], ids=["g", "mirror"])
def test_edge_cases_match_naive(graph, alpha, mirror):
    g = EDGE_CASES[graph].mirror() if mirror else EDGE_CASES[graph]
    assert two_hop(g, alpha) == naive_two_hop(g, alpha)
    assert bi_two_hop(g, alpha) == naive_bi_two_hop(g, alpha)


def test_edge_cases_have_two_hop_edges():
    """The edge-case graphs are not all trivial: the count finds pairs in them."""
    for name in ("isolated", "ids_2_40", "attrs3"):
        g = EDGE_CASES[name]
        assert any(two_hop(g, 1).values()) and any(bi_two_hop(g, 1).values()), name


@pytest.mark.parametrize("build", [two_hop, bi_two_hop])
def test_alpha_below_one_rejected(build):
    """With alpha < 1 every pair would qualify, common neighbour or not."""
    with pytest.raises(ValueError, match="alpha >= 1"):
        build(random_bipartite(6, 6, 0.5, seed=0), 0)


@pytest.mark.parametrize("seed", range(4))
def test_bi_two_hop_subset_of_two_hop(seed):
    """Per-attribute counts >= alpha implies total count >= alpha."""
    g = random_bipartite(12, 10, 0.4, seed=seed)
    h = two_hop(g, 2)
    hb = bi_two_hop(g, 2)
    for v in hb:
        assert hb[v] <= h[v]


def test_two_hop_alpha_monotone():
    g = random_bipartite(15, 12, 0.35, seed=2)
    h1, h2 = two_hop(g, 1), two_hop(g, 2)
    for v in h2:
        assert h2[v] <= h1[v]


def test_two_hop_mirror_gives_upper_side():
    g = random_bipartite(8, 8, 0.5, seed=7)
    hu = two_hop(g.mirror(), 2)
    # Naive on the upper side.
    for a, b in itertools.combinations(sorted(g.adj_u), 2):
        expected = len(g.adj_u[a] & g.adj_u[b]) >= 2
        assert (b in hu[a]) is expected


def test_adjacency_from_pairs():
    adj = adjacency_from_pairs([(1, 2), (2, 3)], [1, 2, 3, 4])
    assert adj == {1: {2}, 2: {1, 3}, 3: {2}, 4: set()}
