"""Traced mode: spans and counters around the program's layers.

Each public function is wrapped at the module attribute its caller looks it
up by (``repro.core.cfcore.fcore`` is what ``cfcore`` calls,
``repro.core.bsfbc.mfs_check`` what the BSFBC expansion calls), so nothing
under ``src/`` changes. A wrapper records a span (name, start, end, parent)
in memory and, for some layers, counts what the call returned. With a
SparkContext, every span also tags the Spark jobs it starts with its own job
group, and the job counts are read back from the status tracker.
"""
from __future__ import annotations

import csv
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.core import bsfbc, cfcore, ssfbc
from repro.graph.bipartite import BipartiteGraph


# --------------------------------------------------------------- count hooks
def _out(prefix):
    """Vertices and edges returned by the first call of a pruning step in a pass."""

    def hook(c, args, res):
        if f"{prefix}.out_vertices" not in c:
            c[f"{prefix}.out_vertices"] = res.n_u + res.n_v
            c[f"{prefix}.out_edges"] = res.n_edges

    return hook


def _two_hop_edges(c, args, adj):
    c["twohop.edges"] += sum(len(s) for s in adj.values()) // 2


def _ego_core_kept(c, args, kept):
    c["cfcore.ego_core_kept"] += len(kept)


def _results(prefix):
    def hook(c, args, res):
        c[f"{prefix}.results"] += len(res)

    return hook


def _combination(c, args, subsets):
    c["fairset.combination_calls"] += 1
    c["fairset.combination_subsets"] += len(subsets)


def _mfs_check(c, args, accepted):
    c["fairset.mfs_check_calls"] += 1
    c["fairset.mfs_check_accepted"] += bool(accepted)


def _search_combination(c, args, subsets):
    c["ssfbc.combination_calls"] += 1


def _broadcast(c, args, bc):
    c["distributed.broadcast_kb"] += os.path.getsize(bc._path) / 1024


# (owner, attribute, span name or None for count-only, count hook)
LAYERS = [
    (cfcore, "cfcore", "cfcore.prune", _out("cfcore")),
    (cfcore, "bcfcore", "cfcore.prune", _out("cfcore")),
    (cfcore, "bcfcore_spark", "cfcore.bcfcore_spark", _out("cfcore")),
    (cfcore, "fcore", "fcore.peel", _out("fcore")),
    (cfcore, "bfcore", "fcore.peel", _out("fcore")),
    (cfcore, "fcore_edges", "fcore_df.peel", None),
    (cfcore, "bfcore_edges", "fcore_df.peel", None),
    (cfcore, "two_hop", "twohop.build", _two_hop_edges),
    (cfcore, "bi_two_hop", "twohop.build", _two_hop_edges),
    # The Spark pipeline's 2-hop self-join is lazy and runs inside the
    # toPandas collect in bcfcore_spark; this is the local build from its pairs.
    (cfcore, "adjacency_from_pairs", "twohop.build", _two_hop_edges),
    (cfcore, "greedy_color", "coloring.greedy_color", None),
    (cfcore, "ego_colorful_core", "cfcore.ego_core", _ego_core_kept),
    (BipartiteGraph, "induced", "bipartite.induced", None),
    (BipartiteGraph, "to_spark", "bipartite.to_spark", None),
    (ssfbc, "search_ssfbc", "ssfbc.search", _results("ssfbc")),
    (bsfbc, "search_ssfbc", "ssfbc.search", _results("ssfbc")),
    (ssfbc, "expand_root", "ssfbc.search", _results("ssfbc")),
    (ssfbc, "combination", None, _search_combination),
    (bsfbc, "expand_to_bsfbc", "bsfbc.expand", _results("bsfbc")),
    (bsfbc, "combination", "fairset.combination", _combination),
    (bsfbc, "mfs_check", "fairset.mfs_check", _mfs_check),
]


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and per-pass counters."""

    def __init__(self, sc=None) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._sc = sc

    # ------------------------------------------------------------- spans
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        if self._sc is not None:
            self._sc.setJobGroup(f"fb-{idx}", name)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if self._sc is not None:
            if self._stack:
                parent = self._stack[-1]
                self._sc.setJobGroup(f"fb-{parent}", self.spans[parent][0])
            else:
                self._sc.setLocalProperty("spark.jobGroup.id", None)
                self._sc.setLocalProperty("spark.job.description", None)

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name, hook):
        counts = self.counts
        if name is None:

            def counted(*args, **kwargs):
                res = fn(*args, **kwargs)
                hook(counts, args, res)
                return res

            return counted

        def spanned(*args, **kwargs):
            idx = self._enter(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook(counts, args, res)
            return res

        return spanned

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block, then restore it."""
        layers = list(LAYERS)
        if self._sc is not None:
            layers.append((self._sc, "broadcast", None, _broadcast))
        saved = []
        for owner, attr, name, hook in layers:
            own = attr in vars(owner)
            saved.append((owner, attr, own, getattr(owner, attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, hook))
        try:
            yield
        finally:
            for owner, attr, own, orig in reversed(saved):
                if own:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)

    # ----------------------------------------------------------- metrics
    def spark_jobs(self, lo: int, hi: int) -> dict[int, list[int]]:
        """Job ids started directly inside each span ``lo..hi-1``."""
        # Job events reach the status store through the asynchronous listener
        # bus; drain it so the counts are complete.
        self._sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self._sc.statusTracker()
        return {i: list(tracker.getJobIdsForGroup(f"fb-{i}")) for i in range(lo, hi)}

    def max_tasks(self, job_ids) -> int:
        tracker = self._sc.statusTracker()
        tasks = [0]
        for j in job_ids:
            info = tracker.getJobInfo(j)
            for s in info.stageIds if info else []:
                stage = tracker.getStageInfo(s)
                if stage is not None:
                    tasks.append(stage.numTasks)
        return max(tasks)

    def pass_metrics(self, lo: int, hi: int, jobs: dict[int, list[int]] | None = None) -> dict:
        """Per-layer metrics of the spans ``lo..hi-1``; span ``lo`` is the pass root."""
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        child = [0.0] * (hi - lo)
        sub_jobs: list[list[int]] = [list((jobs or {}).get(i, [])) for i in range(lo, hi)]
        for i in range(hi - 1, lo - 1, -1):
            name, start, end, parent = self.spans[i]
            incl[name] += end - start
            self_s[name] += end - start - child[i - lo]
            if parent >= lo:
                child[parent - lo] += end - start
                sub_jobs[parent - lo].extend(sub_jobs[i - lo])
        jobs_of: dict[str, list[int]] = defaultdict(list)
        for i in range(lo, hi):
            jobs_of[self.spans[i][0]].extend(sub_jobs[i - lo])
        c = self.counts
        calls = c["fairset.mfs_check_calls"]
        root = self.spans[lo][0]
        return {
            "bipartite.to_spark_s": incl["bipartite.to_spark"],
            "bipartite.induced_s": incl["bipartite.induced"],
            "fcore.peel_s": incl["fcore.peel"],
            "fcore.out_vertices": c["fcore.out_vertices"],
            "fcore.out_edges": c["fcore.out_edges"],
            "twohop.build_s": incl["twohop.build"],
            "twohop.edges": c["twohop.edges"],
            "coloring.greedy_color_s": incl["coloring.greedy_color"],
            "cfcore.ego_core_s": incl["cfcore.ego_core"],
            "cfcore.ego_core_kept": c["cfcore.ego_core_kept"],
            "cfcore.prune_s": incl["cfcore.prune"] + incl["cfcore.bcfcore_spark"],
            "cfcore.prune_self_s": self_s["cfcore.prune"],
            "cfcore.bcfcore_spark_self_s": self_s["cfcore.bcfcore_spark"],
            "cfcore.out_vertices": c["cfcore.out_vertices"],
            "cfcore.out_edges": c["cfcore.out_edges"],
            "ssfbc.search_s": incl["ssfbc.search"],
            "ssfbc.results": c["ssfbc.results"],
            "ssfbc.combination_calls": c["ssfbc.combination_calls"],
            "fairset.combination_calls": c["fairset.combination_calls"],
            "fairset.combination_subsets": c["fairset.combination_subsets"],
            "fairset.combination_s": incl["fairset.combination"],
            "fairset.mfs_check_calls": calls,
            "fairset.mfs_check_accepted": c["fairset.mfs_check_accepted"],
            "fairset.mfs_check_useful_ratio": c["fairset.mfs_check_accepted"] / calls if calls else 0.0,
            "fairset.mfs_check_s": incl["fairset.mfs_check"],
            "bsfbc.expand_s": incl["bsfbc.expand"],
            "bsfbc.expand_self_s": self_s["bsfbc.expand"],
            "bsfbc.results": c["bsfbc.results"],
            "fcore_df.peel_s": incl["fcore_df.peel"],
            "fcore_df.spark_jobs": len(jobs_of["fcore_df.peel"]),
            "spark.prune_jobs": len(jobs_of["cfcore.bcfcore_spark"]),
            "distributed.fanout_s": incl["distributed.fanout"],
            "distributed.to_set_s": incl["distributed.to_set"],
            "distributed.spark_jobs": len(jobs_of["distributed.fanout"]),
            "distributed.partitions": self.max_tasks(jobs_of["distributed.fanout"]) if jobs else 0,
            "distributed.broadcast_kb": c["distributed.broadcast_kb"],
            "trace.unattributed_ratio": self_s[root] / incl[root],
        }

    def write(self, path: Path, t0: float) -> None:
        """Write every span as CSV, times in seconds since ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, parent, name, f"{start - t0:.6f}", f"{end - t0:.6f}"])
