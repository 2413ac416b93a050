"""Exp-7 (paper Figs. 11-12, tabulated): proportion models vs theta.

Counts PSSFBCs / PBSFBCs and times FairBCEMPro++ / BFairBCEMPro++ on one
dataset across a theta sweep. The paper's claims: counts and runtime both
grow as theta approaches 0.5, and theta = 0.5 degenerates to the plain
model with delta = 0.
"""
from __future__ import annotations

from repro.core.bsfbc import search_bsfbc
from repro.core.cfcore import bcfcore, cfcore
from repro.core.ssfbc import search_ssfbc
from repro.experiments.datasets import DATASETS, load
from repro.experiments.runner import timed

THETAS = [0.1, 0.2, 0.3, 0.4, 0.5]


def sweep(dataset: str = "youtube-lite", thetas: list[float] | None = None) -> list[dict]:
    d = DATASETS[dataset]
    g = load(dataset)
    gp_s = cfcore(g, d.alpha_s, d.beta_s)
    gp_b = bcfcore(g, d.alpha_b, d.beta_b)
    rows = []
    for theta in thetas or THETAS:
        ps, t_s = timed(
            lambda: search_ssfbc(gp_s, d.alpha_s, d.beta_s, d.delta, theta=theta)
        )
        pb, t_b = timed(
            lambda: search_bsfbc(gp_b, d.alpha_b, d.beta_b, d.delta, theta=theta)
        )
        rows.append(
            {
                "dataset": dataset,
                "theta": theta,
                "n_pssfbc": len(ps),
                "t_pssfbc_s": round(t_s, 3),
                "n_pbsfbc": len(pb),
                "t_pbsfbc_s": round(t_b, 3),
            }
        )
    return rows
