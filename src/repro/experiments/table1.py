"""Table I — dataset statistics and default parameters.

Reports |U|, |V|, |E| and density for each synthetic dataset next to the
paper's values for the original, plus the scaled default parameters.
"""
from __future__ import annotations

from repro.experiments.datasets import DATASETS, PAPER_TABLE1, load


def stats_row(name: str) -> dict:
    """One Table I row for dataset ``name``."""
    d = DATASETS[name]
    g = load(name)
    return {
        "dataset": name,
        "paper_dataset": d.paper_name,
        "U": g.n_u,
        "V": g.n_v,
        "E": g.n_edges,
        "density": f"{g.density():.2e}",
        "alpha_s": d.alpha_s,
        "beta_s": d.beta_s,
        "alpha_b": d.alpha_b,
        "beta_b": d.beta_b,
        "delta": d.delta,
        "theta": d.theta,
        "paper_U": PAPER_TABLE1[d.paper_name]["U"],
        "paper_V": PAPER_TABLE1[d.paper_name]["V"],
        "paper_E": PAPER_TABLE1[d.paper_name]["E"],
        "paper_density": f"{PAPER_TABLE1[d.paper_name]['density']:.1e}",
    }


def rows() -> list[dict]:
    return [stats_row(name) for name in DATASETS]
