"""The benchmark's workloads: inputs, one full query (a "pass"), and its check.

Every workload runs a Table I dataset at its default parameters (DegOrd,
FairBCEM++ as the SSFBC engine). The workload seed permutes the vertex ids
of both sides of the fixed dataset graph; the dataset's own generator seed
stays. A permutation changes search order and hashing but not the answer,
so every seed has the same result count and, mapped back to the dataset's
ids, the same result digest (``reference.json``).

All calls into the program go through module attributes
(``cfcore.bcfcore``, ``bsfbc.search_bsfbc``, ...), which is where the traced
mode of :mod:`spans` installs its wrappers.
"""
from __future__ import annotations

import hashlib
import random
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager

from repro.core import bsfbc, cfcore, distributed, ssfbc
from repro.experiments.datasets import DATASETS
from repro.graph import generators
from repro.graph.bipartite import BipartiteGraph

Biclique = tuple[frozenset[int], frozenset[int]]
SpanFn = Callable[[str], ContextManager]


def no_span(_name: str) -> ContextManager:
    return nullcontext()


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    model: str  # "bsfbc" or "ssfbc"
    spark: bool

    @property
    def params(self) -> tuple[int, int, int]:
        """(alpha, beta, delta): the dataset's Table I defaults for the model."""
        d = DATASETS[self.dataset]
        if self.model == "bsfbc":
            return d.alpha_b, d.beta_b, d.delta
        return d.alpha_s, d.beta_s, d.delta

    @property
    def reference_key(self) -> str:
        """The Spark workload answers the same query as its local twin."""
        return f"{self.model}-{self.dataset}"


WORKLOADS = {
    w.name: w
    for w in [
        Workload("bsfbc-imdb", "imdb-lite", "bsfbc", spark=False),
        Workload("ssfbc-dblp", "dblp-lite", "ssfbc", spark=False),
        Workload("spark-bsfbc-imdb", "imdb-lite", "bsfbc", spark=True),
    ]
}


@dataclass(frozen=True)
class Input:
    """The relabelled graph and, per new id, the dataset's original id."""

    graph: BipartiteGraph
    u_orig: list[int]
    v_orig: list[int]


def generate(w: Workload) -> BipartiteGraph:
    d = DATASETS[w.dataset]
    return generators.planted_bipartite(d.spec, seed=d.seed)


def relabel(g: BipartiteGraph, seed: int) -> Input:
    """Give both sides fresh ids ``0..n-1`` in a seeded random order."""
    rng = random.Random(seed)
    u_orig, v_orig = sorted(g.adj_u), sorted(g.adj_v)
    rng.shuffle(u_orig)
    rng.shuffle(v_orig)
    new_u = {old: new for new, old in enumerate(u_orig)}
    new_v = {old: new for new, old in enumerate(v_orig)}
    edges = [(new_u[u], new_v[v]) for u, nbrs in g.adj_u.items() for v in nbrs]
    graph = BipartiteGraph.from_edges(
        edges,
        {new: g.u_val[old] for new, old in enumerate(u_orig)},
        {new: g.v_val[old] for new, old in enumerate(v_orig)},
        attrs_u=g.attrs_u,
        attrs_v=g.attrs_v,
    )
    return Input(graph, u_orig, v_orig)


def prepare(w: Workload, seed: int) -> tuple[Input, float]:
    """The workload's input, and the seconds the dataset generator took."""
    t0 = time.perf_counter()
    g = generate(w)
    gen_s = time.perf_counter() - t0
    return relabel(g, seed), gen_s


def run_pass(
    w: Workload, inp: Input, spark=None, span: SpanFn = no_span
) -> tuple[list[Biclique], BipartiteGraph]:
    """One full query: pruning, then enumeration. Returns (results, pruned graph)."""
    alpha, beta, delta = w.params
    g = inp.graph
    if w.spark:
        g_pruned = cfcore.bcfcore_spark(spark, g, alpha, beta)
        with span("distributed.fanout"):
            rows = distributed.enumerate_df(
                spark, g_pruned, alpha, beta, delta, model=w.model
            ).collect()
        with span("distributed.to_set"):
            return [(frozenset(r.l), frozenset(r.r)) for r in rows], g_pruned
    if w.model == "bsfbc":
        g_pruned = cfcore.bcfcore(g, alpha, beta)
        res = bsfbc.search_bsfbc(
            g_pruned, alpha, beta, delta, algorithm="bcem_pp", ordering="deg"
        )
    else:
        g_pruned = cfcore.cfcore(g, alpha, beta)
        res = ssfbc.search_ssfbc(
            g_pruned, alpha, beta, delta, algorithm="bcem_pp", ordering="deg"
        )
    return res, g_pruned


# ------------------------------------------------------------------ check
def digest(results, u_orig, v_orig) -> tuple[int, str]:
    """Count and SHA-256 of the result set, written in the dataset's own ids."""
    u, v = u_orig.__getitem__, v_orig.__getitem__
    pairs = sorted((tuple(sorted(map(u, l))), tuple(sorted(map(v, r)))) for l, r in results)
    return len(pairs), hashlib.sha256(repr(pairs).encode()).hexdigest()


def _classes(val, domain) -> list[frozenset[int]]:
    return [frozenset(x for x, a in val.items() if a == b) for b in domain]


def _fair(s: frozenset[int], classes, k: int, delta: int) -> bool:
    counts = [len(s & c) for c in classes]
    return min(counts) >= k and max(counts) - min(counts) <= delta


class Checker:
    """Checks each pass's output against the input graph and the reference.

    The first output is checked in full, independently of the program's own
    predicates: every pair is a biclique; both sides meet the model's
    fairness at the workload's sizes; no pair appears twice; and the count
    and digest, in the dataset's ids, equal ``reference.json``. A later
    output passes if it has no duplicates and equals, as a set of pair
    hashes, an output that passed in full; otherwise it is checked in full
    again. Only the hashes are kept, so the check holds no objects that the
    garbage collector would walk during the timed passes.
    """

    def __init__(self, w: Workload, inp: Input, ref: dict) -> None:
        self.w, self.inp, self.ref = w, inp, ref
        self.verified: frozenset[int] = frozenset()

    def __call__(self, results: list[Biclique]) -> str | None:
        """None if the output is right, else what is wrong with it."""
        n_distinct = len(set(results))
        if n_distinct != len(results):
            return f"{len(results) - n_distinct} duplicate pairs"
        hashes = frozenset(map(hash, results))
        if len(hashes) == len(results) and hashes == self.verified:
            return None
        err = self.full_check(results)
        if err is None:
            self.verified = hashes
        return err

    def full_check(self, results: list[Biclique]) -> str | None:
        alpha, beta, delta = self.w.params
        g = self.inp.graph
        u_classes = _classes(g.u_val, g.attrs_u)
        v_classes = _classes(g.v_val, g.attrs_v)
        by_r: dict[frozenset[int], list[frozenset[int]]] = defaultdict(list)
        for l, r in results:
            by_r[r].append(l)
        for r, ls in by_r.items():
            if not r or not _fair(r, v_classes, beta, delta):
                return f"lower side not fair: {sorted(r)}"
            common = frozenset.intersection(*(g.adj_v[v] for v in r))
            for l in ls:
                if not l <= common:
                    return f"not a biclique: {sorted(l)} x {sorted(r)}"
                if not (
                    _fair(l, u_classes, alpha, delta)
                    if self.w.model == "bsfbc"
                    else len(l) >= alpha
                ):
                    return f"upper side not {self.w.model}-fair: {sorted(l)}"
        n, sha = digest(results, self.inp.u_orig, self.inp.v_orig)
        if (n, sha) != (self.ref["count"], self.ref["sha256"]):
            return f"result set differs from reference: {n} pairs, digest {sha[:12]}"
        return None
