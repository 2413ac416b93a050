"""Sanity checks of the brute-force oracles themselves on hand-built graphs."""
import pytest

from repro.graph.bipartite import BipartiteGraph
from tests.oracles import brute_bsfbc, brute_maximal_bicliques, brute_ssfbc


def complete_graph(nu, nv, u_vals, v_vals):
    edges = [(u, v) for u in range(nu) for v in range(nv)]
    return BipartiteGraph.from_edges(
        edges,
        {u: u_vals[u] for u in range(nu)},
        {v: v_vals[v] for v in range(nv)},
        attrs_u=(0, 1),
        attrs_v=(0, 1),
    )


def test_complete_balanced_graph_single_result():
    """K_{4,4}, balanced attributes, delta >= 0: the whole graph is the only SSFBC."""
    g = complete_graph(4, 4, [0, 0, 1, 1], [0, 0, 1, 1])
    res = brute_ssfbc(g, 1, 1, 0)
    assert res == {(frozenset(range(4)), frozenset(range(4)))}


def test_complete_unbalanced_graph_combinatorics():
    """K_{2,5} with V attrs 3/2, delta=0: maximal fair subsets are the
    C(3,2)=3 balanced 2+2 picks."""
    g = complete_graph(2, 5, [0, 1], [0, 0, 0, 1, 1])
    res = brute_ssfbc(g, 1, 1, 0)
    assert len(res) == 3
    for l, r in res:
        assert l == frozenset({0, 1})
        assert len(r) == 4


def test_maximal_bicliques_on_complete_graph():
    g = complete_graph(3, 3, [0, 0, 1], [0, 1, 1])
    assert brute_maximal_bicliques(g) == {
        (frozenset(range(3)), frozenset(range(3)))
    }


def test_maximal_bicliques_two_blocks():
    # Two disjoint K_{2,2} blocks.
    edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    g = BipartiteGraph.from_edges(
        edges, {i: 0 for i in range(4)}, {i: 0 for i in range(4)}
    )
    got = brute_maximal_bicliques(g)
    assert got == {
        (frozenset({0, 1}), frozenset({0, 1})),
        (frozenset({2, 3}), frozenset({2, 3})),
    }


def test_bsfbc_requires_fairness_on_both_sides():
    # All-U attribute 0: no BSFBC can have |L_1| >= 1.
    g = complete_graph(3, 4, [0, 0, 0], [0, 0, 1, 1])
    assert brute_bsfbc(g, 1, 1, 2) == set()
    assert brute_ssfbc(g, 1, 1, 2) != set()


def test_bsfbc_on_balanced_complete_graph():
    g = complete_graph(4, 4, [0, 0, 1, 1], [0, 0, 1, 1])
    res = brute_bsfbc(g, 1, 1, 0)
    assert (frozenset(range(4)), frozenset(range(4))) in res


def test_empty_graph_no_results():
    g = BipartiteGraph.from_edges([], {0: 0}, {0: 0}, attrs_u=(0, 1), attrs_v=(0, 1))
    assert brute_ssfbc(g, 1, 1, 1) == set()
    assert brute_bsfbc(g, 1, 1, 1) == set()
    assert brute_maximal_bicliques(g) == set()


def test_paper_example_figure1_style():
    """A graph in the spirit of Example 1: attrs balanced inside one block."""
    # u3,u4 fully connected to v2,v4,v6,v9; attrs: v2,v4 -> a(0), v6,v9 -> b(1)
    edges = [(3, v) for v in (2, 4, 6, 9)] + [(4, v) for v in (2, 4, 6, 9)]
    g = BipartiteGraph.from_edges(
        edges,
        {3: 0, 4: 1},
        {2: 0, 4: 0, 6: 1, 9: 1},
        attrs_u=(0, 1),
        attrs_v=(0, 1),
    )
    # alpha=1, beta=2, delta=1 (the example's parameters)
    res = brute_ssfbc(g, 1, 2, 1)
    assert (frozenset({3, 4}), frozenset({2, 4, 6, 9})) in res
    resb = brute_bsfbc(g, 1, 2, 1)
    assert (frozenset({3, 4}), frozenset({2, 4, 6, 9})) in resb
