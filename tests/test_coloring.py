"""Greedy colouring: propriety, determinism, degree-order bound."""
import pytest

from repro.core.coloring import greedy_color
from repro.core.twohop import two_hop
from repro.graph.generators import random_bipartite
from tests.oracles import is_proper_coloring


def _random_graph(n, p, seed):
    """Undirected adjacency via the 2-hop of a random bipartite graph."""
    return two_hop(random_bipartite(n, n, p, seed=seed), 1)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("p", [0.2, 0.4])
def test_coloring_is_proper(seed, p):
    adj = _random_graph(12, p, seed)
    color = greedy_color(adj)
    assert set(color) == set(adj)
    assert is_proper_coloring(adj, color)


@pytest.mark.parametrize("seed", range(5))
def test_coloring_deterministic(seed):
    adj = _random_graph(10, 0.3, seed)
    assert greedy_color(adj) == greedy_color(adj)


def test_color_count_bounded_by_max_degree_plus_one():
    adj = _random_graph(15, 0.3, 3)
    color = greedy_color(adj)
    max_deg = max((len(n) for n in adj.values()), default=0)
    assert max(color.values(), default=0) <= max_deg


def test_triangle_needs_three_colors():
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    assert sorted(greedy_color(adj).values()) == [0, 1, 2]


def test_empty_and_isolated():
    assert greedy_color({}) == {}
    assert greedy_color({5: set()}) == {5: 0}


def test_is_proper_detects_violation():
    adj = {0: {1}, 1: {0}}
    assert not is_proper_coloring(adj, {0: 0, 1: 0})
