"""Table II — runtime of the four enumeration algorithms with IDOrd / DegOrd.

For every dataset, runs FairBCEM / FairBCEM++ (after CFCore pruning) and
BFairBCEM / BFairBCEM++ (after BCFCore pruning) at the Table I default
parameters, under both candidate orderings. Reported time is pruning +
search, matching the paper's end-to-end per-algorithm runtime; the pruning
component is also reported separately. Pruning runs once per (dataset,
model), so every cell of one model reports the same pruning time.
"""
from __future__ import annotations

from functools import lru_cache

from repro.core.bsfbc import search_bsfbc
from repro.core.cfcore import bcfcore, cfcore
from repro.core.ssfbc import search_ssfbc
from repro.experiments.datasets import DATASETS, load
from repro.experiments.runner import timed
from repro.graph.bipartite import BipartiteGraph

# Paper Table II runtimes in seconds (C++, full-scale graphs) for diffing.
PAPER_TABLE2: dict[tuple[str, str], dict[str, float]] = {
    ("FairBCEM", "IDOrd"): {"IMDB": 7022.7, "Youtube": 157.1, "Twitter": 854.2, "Wiki-cat": 90.6, "DBLP": 6.3},
    ("FairBCEM", "DegOrd"): {"IMDB": 1612.9, "Youtube": 43.6, "Twitter": 611.8, "Wiki-cat": 45.9, "DBLP": 2.6},
    ("FairBCEM++", "IDOrd"): {"IMDB": 78.6, "Youtube": 16.1, "Twitter": 72.5, "Wiki-cat": 13.2, "DBLP": 0.6},
    ("FairBCEM++", "DegOrd"): {"IMDB": 61.9, "Youtube": 8.3, "Twitter": 65.1, "Wiki-cat": 12.4, "DBLP": 0.5},
    ("BFairBCEM", "IDOrd"): {"IMDB": 174.2, "Youtube": 2.3, "Twitter": 76.8, "Wiki-cat": 0.9, "DBLP": 1.5},
    ("BFairBCEM", "DegOrd"): {"IMDB": 68.1, "Youtube": 1.4, "Twitter": 69.1, "Wiki-cat": 0.4, "DBLP": 1.1},
    ("BFairBCEM++", "IDOrd"): {"IMDB": 19.8, "Youtube": 7.4, "Twitter": 63.8, "Wiki-cat": 0.3, "DBLP": 0.7},
    ("BFairBCEM++", "DegOrd"): {"IMDB": 17.2, "Youtube": 1.7, "Twitter": 59.7, "Wiki-cat": 0.2, "DBLP": 0.6},
}

ALGORITHMS: list[tuple[str, str, str]] = [
    # (display name, model, engine)
    ("FairBCEM", "ssfbc", "bcem"),
    ("FairBCEM++", "ssfbc", "bcem_pp"),
    ("BFairBCEM", "bsfbc", "bcem"),
    ("BFairBCEM++", "bsfbc", "bcem_pp"),
]
ORDERINGS: list[tuple[str, str]] = [("IDOrd", "id"), ("DegOrd", "deg")]


@lru_cache(maxsize=None)
def _pruned(dataset: str, model: str) -> tuple[BipartiteGraph, float]:
    """(CFCore or BCFCore graph, prune seconds), computed once per (dataset, model)."""
    d = DATASETS[dataset]
    g = load(dataset)
    if model == "ssfbc":
        return timed(lambda: cfcore(g, d.alpha_s, d.beta_s))
    return timed(lambda: bcfcore(g, d.alpha_b, d.beta_b))


def run_cell(
    dataset: str, display: str, model: str, engine: str, ordering: str
) -> dict:
    """One Table II cell: the shared prune of its (dataset, model), then a timed enumeration."""
    d = DATASETS[dataset]
    gp, t_prune = _pruned(dataset, model)
    if model == "ssfbc":
        search, alpha, beta = search_ssfbc, d.alpha_s, d.beta_s
    else:
        search, alpha, beta = search_bsfbc, d.alpha_b, d.beta_b
    res, t_search = timed(
        lambda: search(gp, alpha, beta, d.delta, algorithm=engine, ordering=ordering)
    )
    return {
        "algorithm": display,
        "ordering": {"id": "IDOrd", "deg": "DegOrd"}[ordering],
        "dataset": dataset,
        "prune_s": round(t_prune, 3),
        "search_s": round(t_search, 3),
        "total_s": round(t_prune + t_search, 3),
        "n_results": len(res),
    }


def rows(datasets: list[str] | None = None) -> list[dict]:
    """The full Table II grid (4 algorithms x 2 orderings x datasets)."""
    names = datasets or list(DATASETS)
    out = []
    for display, model, engine in ALGORITHMS:
        for ord_name, ordering in ORDERINGS:
            for ds in names:
                cell = run_cell(ds, display, model, engine, ordering)
                paper = PAPER_TABLE2.get((display, ord_name), {}).get(
                    DATASETS[ds].paper_name
                )
                cell["paper_s"] = paper
                out.append(cell)
    return out
