"""Spark-distributed fair biclique enumeration.

After (distributed) pruning, the branch-and-bound search tree is split at
its top level: branch ``i`` is ``(x = order[i], P = order[i+1:],
Q = order[:i])``, which is exactly one iteration of the sequential outer
loop, so the branches are independent and their union equals the sequential
result (the Q-maximality check discards the branches the sequential
C-absorption of FairBCEM++ would have skipped — see
:func:`repro.core.ssfbc.expand_root`).

The pruned graph is broadcast; branches are a ``spark.range`` DataFrame fed
through ``mapInPandas``, i.e. the fan-out stays in the DataFrame API and the
per-branch kernel runs inside Python workers. The broadcast carries the
graph without its bit view: each Python worker builds the view once, on its
first branch, and its later branches reuse it.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.ssfbc import Algorithm, Ordering, _engine, order_candidates
from repro.graph.bipartite import BipartiteGraph

_SCHEMA = "l array<long>, r array<long>"


def enumerate_df(
    spark: SparkSession,
    g_pruned: BipartiteGraph,
    alpha: int,
    beta: int,
    delta: int,
    *,
    model: str = "ssfbc",
    algorithm: Algorithm = "bcem_pp",
    ordering: Ordering = "deg",
    theta: float | None = None,
) -> DataFrame:
    """Distributed enumeration; returns a DataFrame of (l, r) id-arrays.

    ``model`` is ``"ssfbc"`` or ``"bsfbc"``; with ``theta`` set these become
    the proportion models (PSSFBC / PBSFBC), theta in (0, 1/|A|] on each
    attribute domain it applies to (V, and U for ``"bsfbc"``). A bad
    ``algorithm`` or ``theta`` is rejected here, on the driver, before any
    Spark job runs.
    """
    if model not in ("ssfbc", "bsfbc"):
        raise ValueError(f"unknown model {model!r}")
    _engine(algorithm, theta, g_pruned.attrs_v, *([g_pruned.attrs_u] if model == "bsfbc" else []))
    order = order_candidates(g_pruned, g_pruned.adj_v, ordering)
    n = len(order)
    payload = spark.sparkContext.broadcast(
        (g_pruned, alpha, beta, delta, theta, algorithm, model, order)
    )

    def run(batches):
        import pandas as pd

        from repro.core.bsfbc import expand_to_bsfbc
        from repro.core.ssfbc import expand_root

        g, a, b, d, th, algo, mdl, ordr = payload.value
        for pdf in batches:
            ls, rs = [], []
            for i in pdf["id"]:
                res = expand_root(g, a, b, d, ordr, int(i), algorithm=algo, theta=th)
                if mdl == "bsfbc":
                    res = expand_to_bsfbc(g, res, a, b, d, th)
                for l, r in res:
                    ls.append(sorted(l))
                    rs.append(sorted(r))
            # dtype=object keeps empty batches as list columns — a bare
            # pd.DataFrame({"l": []}) would infer float64, which Arrow
            # cannot cast to array<long>.
            yield pd.DataFrame(
                {
                    "l": pd.Series(ls, dtype="object"),
                    "r": pd.Series(rs, dtype="object"),
                }
            )

    n_partitions = max(1, min(n, 2 * spark.sparkContext.defaultParallelism))
    roots = spark.range(0, n, 1, numPartitions=n_partitions)
    return roots.mapInPandas(run, schema=_SCHEMA)

