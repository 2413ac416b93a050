"""Fair-biclique benchmark: one workload in one process, a closed loop with one client.

    python3 fairbench/run.py --workload bsfbc-imdb --seed 0 --seconds 20 --trace 0

Set-up (imports, graph generation and relabelling, Spark session start, one
warm-up pass) is followed by back-to-back passes of the full query until
``--seconds`` have passed. Every pass's output is checked, untimed. The last
line of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``). The exit code is 0
only if every pass completed and passed the check.

See README.md next to this file for the workloads and the metrics.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Median of this many set-ups of the input (generation + relabelling).
SETUP_REPEATS = 3
# Untimed full passes before the timed loop. The Spark workload's first pass
# is ~2x slower than its second (JIT and query compilation, worker start).
WARMUP_PASSES = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "bicliques_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
# Metrics that, on the Spark workload, come from the serial replay of the
# fan-out's roots on the driver: in the timed pass they run in Python workers.
WORKER_SIDE = (
    "ssfbc.search_s", "ssfbc.results", "ssfbc.combination_calls",
    "fairset.combination_calls", "fairset.combination_subsets", "fairset.combination_s",
    "fairset.mfs_check_calls", "fairset.mfs_check_accepted",
    "fairset.mfs_check_useful_ratio", "fairset.mfs_check_s",
    "bsfbc.expand_s", "bsfbc.expand_self_s", "bsfbc.results",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_kb"):
        return "KiB"
    if name.endswith(("_ratio", "_skew")):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import procs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    ref = json.loads((HERE / "reference.json").read_text())[w.reference_key]
    work = HERE / ".work" / f"{w.name}-{os.getpid()}"
    procs.become_subreaper()
    try:
        result = Run(w, args, work, ref).execute()
    finally:
        procs.reap_descendants()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


class Run:
    """One benchmark run: set-up, the timed loop, and its metrics."""

    def __init__(self, w, args, work: Path, ref: dict) -> None:
        self.w, self.args, self.work, self.ref = w, args, work, ref
        self.spark = None
        self.passes: list[dict] = []  # {"traced", "wall", "ok", "n"}
        self.layer_passes: list[dict] = []

    def execute(self) -> dict:
        import procs
        from workloads import Checker

        try:
            import_s = time.perf_counter() - T0
            session_s = 0.0
            if self.w.spark:
                t = time.perf_counter()
                self.spark = procs.start_spark(self.work, SRC)
                session_s = time.perf_counter() - t
            prep_s, gen_s = self.set_up()
            self.check = Checker(self.w, self.inp, self.ref)
            warm_s = 0.0
            for _ in range(WARMUP_PASSES):
                t = time.perf_counter()
                res, _ = self.query()
                warm_s += time.perf_counter() - t
                self.verify(res, traced=False, wall=None)
                del res
            setup_s = import_s + session_s + prep_s + warm_s
            self.measure()
            peak_mb = procs.tree_peak_rss_mb()
            layers = self.layer_metrics() if self.args.trace else {}
        finally:
            if self.spark is not None:
                procs.stop_spark(self.spark)
        attempted = len(self.passes)
        failed = sum(not p["ok"] for p in self.passes)
        if self.args.trace:
            layers["generators.planted_bipartite_s"] = gen_s
            layers["spark.session_start_s"] = session_s
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
        else:
            walls = [p["wall"] for p in self.passes if p["wall"] is not None]
            wall = statistics.median(walls) if walls else 0.0
            n = statistics.median([p["n"] for p in self.passes if p["wall"] is not None] or [0])
            values = {
                "setup_s": setup_s,
                "wall_s": wall,
                "bicliques_per_s": n / wall if wall else 0.0,
                "peak_rss_mb": peak_mb,
                "success_rate": (attempted - failed) / attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    # ------------------------------------------------------------ set-up
    def set_up(self) -> tuple[float, float]:
        """Prepare the input SETUP_REPEATS times; median seconds of a set-up and of generation."""
        from workloads import prepare

        preps, gens = [], []
        for _ in range(SETUP_REPEATS):
            self.inp = None
            t = time.perf_counter()
            self.inp, gen_s = prepare(self.w, self.args.seed)
            preps.append(time.perf_counter() - t)
            gens.append(gen_s)
        return statistics.median(preps), statistics.median(gens)

    def query(self, span=None):
        from workloads import no_span, run_pass

        return run_pass(self.w, self.inp, self.spark, span or no_span)

    def verify(self, res, *, traced: bool, wall: float | None) -> bool:
        err = self.check(res)
        if err:
            print(f"error: {self.w.name} seed {self.args.seed}: {err}", file=sys.stderr)
        self.passes.append({"traced": traced, "wall": wall, "ok": err is None, "n": len(res)})
        return err is None

    # ---------------------------------------------------------- measure
    def measure(self) -> None:
        """Back-to-back passes until the time is up; traced runs alternate plain and traced."""
        from spans import Tracer

        self.tracer = Tracer(self.spark.sparkContext if self.spark else None)
        min_passes = 2 if self.args.trace else 1  # a traced run: one plain, one traced
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while time.perf_counter() < deadline or i < min_passes:
            traced = bool(self.args.trace) and i % 2 == 1
            i += 1
            res = None
            gc.collect()
            try:
                if traced:
                    res, wall = self.traced_pass()
                else:
                    t = time.perf_counter()
                    res, self.g_pruned = self.query()
                    wall = time.perf_counter() - t
            except Exception:  # a failing pass is counted, and the loop goes on
                traceback.print_exc()
                self.passes.append({"traced": traced, "wall": None, "ok": False, "n": 0})
                continue
            self.verify(res, traced=traced, wall=wall)
            del res

    def traced_pass(self):
        tr = self.tracer
        tr.counts.clear()
        lo = len(tr.spans)
        with tr.installed():
            with tr.span("pass"):
                res, self.g_pruned = self.query(tr.span)
        hi = len(tr.spans)
        wall = tr.spans[lo][2] - tr.spans[lo][1]
        jobs = tr.spark_jobs(lo, hi) if self.spark else None
        self.layer_passes.append(tr.pass_metrics(lo, hi, jobs))
        return res, wall

    # ------------------------------------------------------------ trace
    def layer_metrics(self) -> dict:
        lp = self.layer_passes
        m = {k: statistics.median(p[k] for p in lp) for k in lp[0]}
        m["trace.unattributed_ratio"] = max(p["trace.unattributed_ratio"] for p in lp)
        plain = [p["wall"] for p in self.passes if not p["traced"] and p["wall"]]
        traced = [p["wall"] for p in self.passes if p["traced"] and p["wall"]]
        m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        m["distributed.roots"] = 0
        m["distributed.partition_skew"] = 0.0
        if self.spark:
            m.update(self.replay_roots(m["distributed.partitions"]))
        self.tracer.write(
            HERE / "out" / f"{self.w.name}-seed{self.args.seed}-spans.csv", T0
        )
        return m

    def replay_roots(self, n_partitions: int) -> dict:
        """Replay the fan-out's roots serially on the driver, traced.

        Gives the per-root work (Combination and MFSCheck calls) behind
        ``distributed.partition_skew`` over enumerate_df's contiguous split
        of the roots, and the worker-side layer metrics of the Spark pass.
        """
        from repro.core import bsfbc, ssfbc

        from spans import Tracer

        alpha, beta, delta = self.w.params
        g = self.g_pruned
        order = ssfbc.order_candidates(g, g.adj_v, "deg")
        tr = Tracer()
        c = tr.counts

        def calls() -> int:
            return (
                c["ssfbc.combination_calls"]
                + c["fairset.combination_calls"]
                + c["fairset.mfs_check_calls"]
            )

        work = []
        with tr.installed(), tr.span("replay"):
            for i in range(len(order)):
                before = calls()
                res = ssfbc.expand_root(g, alpha, beta, delta, order, i, algorithm="bcem_pp")
                bsfbc.expand_to_bsfbc(g, res, alpha, beta, delta)
                work.append(calls() - before)
        n, p = len(order), max(1, n_partitions)
        # spark.range splits ids 0..n-1 into p contiguous ranges [i*n//p, (i+1)*n//p).
        part = [sum(work[i * n // p:(i + 1) * n // p]) for i in range(p)]
        replay = tr.pass_metrics(0, len(tr.spans))
        out = {k: replay[k] for k in WORKER_SIDE}
        out["distributed.roots"] = n
        out["distributed.partition_skew"] = max(part) / (sum(part) / p) if sum(part) else 0.0
        return out


if __name__ == "__main__":
    sys.exit(main())
