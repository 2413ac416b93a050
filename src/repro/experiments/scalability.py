"""Exp-5 (paper Fig. 7, tabulated): scalability in graph size.

Subsamples 20%-100% of a dataset's edges uniformly at random (the paper's
protocol) and times the SSFBC and BSFBC algorithm pairs on each subgraph.
Claim to reproduce: the ++ algorithms' runtime grows more smoothly with
graph size than the base algorithms'.

:func:`peel_ladder`, not in the paper, times the local and the DataFrame
FCore peel by graph size; it is why the Spark pipeline prunes on the driver.
"""
from __future__ import annotations

import statistics
from dataclasses import replace

import numpy as np
from pyspark.sql import SparkSession

from repro.core.bsfbc import search_bsfbc
from repro.core.cfcore import bcfcore, cfcore
from repro.core.fcore import bfcore
from repro.core.fcore_df import bfcore_edges
from repro.core.ssfbc import search_ssfbc
from repro.experiments.datasets import DATASETS, load
from repro.experiments.runner import timed
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import planted_bipartite

FRACTIONS = [0.2, 0.4, 0.6, 0.8, 1.0]
SCALES = (1, 10, 30)


def edge_sample(g: BipartiteGraph, fraction: float, seed: int = 0) -> BipartiteGraph:
    """Keep a uniform random ``fraction`` of the edges (vertex sets preserved)."""
    rng = np.random.default_rng(seed)
    edges = sorted((u, v) for u, nbrs in g.adj_u.items() for v in nbrs)
    keep = rng.random(len(edges)) < fraction
    kept = [e for e, k in zip(edges, keep) if k]
    return BipartiteGraph.from_edges(
        kept, g.u_val, g.v_val, attrs_u=g.attrs_u, attrs_v=g.attrs_v
    )


def sweep(dataset: str = "dblp-lite", seed: int = 0) -> list[dict]:
    d = DATASETS[dataset]
    g = load(dataset)
    rows = []
    for frac in FRACTIONS:
        sub = g if frac >= 1.0 else edge_sample(g, frac, seed)
        gp_s, tp_s = timed(lambda: cfcore(sub, d.alpha_s, d.beta_s))
        _, t_pp = timed(lambda: search_ssfbc(gp_s, d.alpha_s, d.beta_s, d.delta, algorithm="bcem_pp"))
        _, t_b = timed(lambda: search_ssfbc(gp_s, d.alpha_s, d.beta_s, d.delta, algorithm="bcem"))
        gp_b, tp_b = timed(lambda: bcfcore(sub, d.alpha_b, d.beta_b))
        _, tb_pp = timed(lambda: search_bsfbc(gp_b, d.alpha_b, d.beta_b, d.delta, algorithm="bcem_pp"))
        _, tb_b = timed(lambda: search_bsfbc(gp_b, d.alpha_b, d.beta_b, d.delta, algorithm="bcem"))
        rows.append(
            {
                "dataset": dataset,
                "fraction": frac,
                "n_edges": sub.n_edges,
                "FairBCEM_s": round(tp_s + t_b, 3),
                "FairBCEMpp_s": round(tp_s + t_pp, 3),
                "BFairBCEM_s": round(tp_b + tb_b, 3),
                "BFairBCEMpp_s": round(tp_b + tb_pp, 3),
            }
        )
    return rows


def peel_ladder(
    spark: SparkSession, dataset: str = "imdb-lite", scales: tuple[int, ...] = SCALES
) -> list[dict]:
    """Local ``bfcore`` vs the DataFrame ``bfcore_edges`` fixpoint, by graph size.

    Rung ``scale`` multiplies ``dataset``'s vertex, background-edge and block
    counts by ``scale`` (block sizes and density kept) at the BSFBC defaults.
    Times are medians of 3 runs: the local peel from the graph, and the
    DataFrame fixpoint from its DataFrames (``to_spark`` untimed) through the
    collect of the core's edges.
    """
    d = DATASETS[dataset]
    a, b = d.alpha_b, d.beta_b
    rows = []
    for scale in scales:
        s = d.spec
        g = planted_bipartite(
            replace(
                s, n_u=s.n_u * scale, n_v=s.n_v * scale,
                n_background=s.n_background * scale, n_blocks=s.n_blocks * scale,
            ),
            seed=d.seed,
        )
        edges, u_attrs, v_attrs = g.to_spark(spark)
        local_s, df_s = [], []
        for _ in range(3):
            core, t = timed(lambda: bfcore(g, a, b))
            local_s.append(t)
            pdf, t = timed(lambda: bfcore_edges(
                edges, u_attrs, v_attrs, a, b, len(g.attrs_u), len(g.attrs_v)
            ).toPandas())
            df_s.append(t)
        rows.append(
            {
                "dataset": dataset,
                "scale": scale,
                "edges": g.n_edges,
                "core_edges": core.n_edges,
                "local_s": round(statistics.median(local_s), 3),
                "df_s": round(statistics.median(df_s), 3),
                "equal": set(zip(pdf["u"], pdf["v"]))
                == {(u, v) for u, nbrs in core.adj_u.items() for v in nbrs},
            }
        )
    return rows
