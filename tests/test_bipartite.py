"""BipartiteGraph representation: construction, queries, conversions."""
import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from tests.oracles import is_biclique


def _from_frames(edges, u_attrs, v_attrs, **domains) -> BipartiteGraph:
    """Rebuild a graph from the ``(u, v)`` / ``(u, val)`` / ``(v, val)`` frames."""
    return BipartiteGraph.from_edges(
        zip(edges["u"].tolist(), edges["v"].tolist()),
        dict(zip(u_attrs["u"].tolist(), u_attrs["val"].tolist())),
        dict(zip(v_attrs["v"].tolist(), v_attrs["val"].tolist())),
        **domains,
    )


@pytest.fixture(scope="module")
def g4():
    # u0-{v0,v1}, u1-{v1,v2}, u2-{}, plus isolated v3.
    return BipartiteGraph.from_edges(
        [(0, 0), (0, 1), (1, 1), (1, 2)],
        u_val={0: 0, 1: 1, 2: 0},
        v_val={0: 0, 1: 1, 2: 0, 3: 1},
    )


def test_sizes(g4):
    assert (g4.n_u, g4.n_v, g4.n_edges) == (3, 4, 4)


def test_density(g4):
    assert g4.density() == pytest.approx(4 / 12)


def test_degrees(g4):
    assert len(g4.adj_u[0]) == 2
    assert len(g4.adj_u[2]) == 0
    assert len(g4.adj_v[1]) == 2
    assert len(g4.adj_v[3]) == 0


def test_attribute_domains_default_to_present_values(g4):
    assert g4.attrs_u == (0, 1)
    assert g4.attrs_v == (0, 1)


def test_explicit_attribute_domain():
    g = BipartiteGraph.from_edges(
        [(0, 0)], {0: 0}, {0: 0}, attrs_u=(0, 1, 2), attrs_v=(0, 1)
    )
    assert g.attrs_u == (0, 1, 2)


def test_unknown_vertex_rejected():
    with pytest.raises(ValueError, match="unknown upper vertex"):
        BipartiteGraph.from_edges([(9, 0)], {0: 0}, {0: 0})
    with pytest.raises(ValueError, match="unknown lower vertex"):
        BipartiteGraph.from_edges([(0, 9)], {0: 0}, {0: 0})


def test_common_neighbors(g4):
    assert g4.common_neighbors_of_vs([0, 1]) == frozenset({0})
    assert g4.common_neighbors_of_vs([1]) == frozenset({0, 1})
    assert g4.common_neighbors_of_vs([0, 2]) == frozenset()
    assert g4.common_neighbors_of_us([0, 1]) == frozenset({1})
    # Empty set convention: N(∅) is the whole other side.
    assert g4.common_neighbors_of_vs([]) == frozenset(g4.adj_u)


def test_induced(g4):
    sub = g4.induced([0, 1], [1])
    assert (sub.n_u, sub.n_v, sub.n_edges) == (2, 1, 2)
    assert sub.attrs_v == g4.attrs_v  # domain preserved under pruning


def test_mirror_roundtrip(g4):
    m = g4.mirror()
    assert m.adj_u == g4.adj_v and m.adj_v == g4.adj_u
    assert m.mirror() == g4


def test_is_biclique(g4):
    assert is_biclique(g4, [0], [0, 1])
    assert not is_biclique(g4, [0, 1], [0, 1])
    assert is_biclique(g4, [], [0])


def test_pandas_roundtrip(g4):
    e, ua, va = g4.to_pandas()
    assert _from_frames(e, ua, va) == g4


def test_pandas_roundtrip_random():
    g = random_bipartite(12, 9, 0.3, seed=5)
    e, ua, va = g.to_pandas()
    assert _from_frames(e, ua, va, attrs_u=g.attrs_u, attrs_v=g.attrs_v) == g


def test_spark_roundtrip(spark, g4):
    e, ua, va = g4.to_spark(spark)
    assert _from_frames(e.toPandas(), ua.toPandas(), va.toPandas()) == g4


def test_edge_frame_schema(g4):
    e, ua, va = g4.to_pandas()
    assert list(e.columns) == ["u", "v"]
    assert list(ua.columns) == ["u", "val"]
    assert list(va.columns) == ["v", "val"]
    assert e["u"].dtype == "int64"
