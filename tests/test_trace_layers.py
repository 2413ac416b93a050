"""The benchmark's traced mode still sees every layer of the pipelines.

``fairbench/spans.py`` wraps module attributes (``LAYERS``) for the length of
a run. A layer goes dark if the code binds a function before the wrapper is
installed, or if a ``*_spark`` driver calls a public local driver (which would
count ``cfcore.prune`` twice). These tests run the pipelines under the tracer
and check the recorded spans; they do not change ``spans.py``.
"""
import pytest

from fairbench.spans import LAYERS, Tracer
from repro.core import bsfbc, cfcore, ssfbc
from repro.graph.generators import PlantedSpec, planted_bipartite

LOCAL_SPANS = {
    "cfcore.prune",
    "fcore.peel",
    "twohop.build",
    "coloring.greedy_color",
    "cfcore.ego_core",
    "ssfbc.search",
    "bsfbc.expand",
    "fairset.combination",
    "fairset.mfs_check",
}


@pytest.fixture(scope="module")
def g_planted():
    return planted_bipartite(
        PlantedSpec(n_u=150, n_v=120, n_background=400, n_blocks=8, block_u=8, block_v=8),
        seed=1,
    )


def _names(tracer):
    return {name for name, _start, _end, _parent in tracer.spans}


def _ancestors(tracer, idx):
    parent = tracer.spans[idx][3]
    while parent != -1:
        yield tracer.spans[parent][0]
        parent = tracer.spans[parent][3]


@pytest.mark.parametrize("owner,attr", [(o, a) for o, a, _n, _h in LAYERS])
def test_layer_resolves_to_callable(owner, attr):
    assert callable(getattr(owner, attr))


def test_local_pipelines_record_every_layer(g_planted):
    tracer = Tracer()
    with tracer.installed():
        gp = cfcore.cfcore(g_planted, 2, 2)
        assert ssfbc.search_ssfbc(gp, 2, 2, 1)
        gb = cfcore.bcfcore(g_planted, 2, 2)
        assert bsfbc.search_bsfbc(gb, 2, 2, 1)
    assert LOCAL_SPANS <= _names(tracer)
    assert tracer.counts["ssfbc.combination_calls"] > 0


def test_spark_pipeline_spans_nest_under_its_driver(spark, g_planted):
    tracer = Tracer()
    with tracer.installed():
        cfcore.bcfcore_spark(spark, g_planted, 2, 2)
    names = _names(tracer)
    assert "cfcore.prune" not in names and "fcore_df.peel" not in names
    assert {"fcore.peel", "twohop.build"} <= names
    for i, (name, _start, _end, _parent) in enumerate(tracer.spans):
        if name in ("fcore.peel", "twohop.build"):
            assert "cfcore.bcfcore_spark" in _ancestors(tracer, i)
