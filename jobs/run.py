"""Regenerate one of the paper's tables or experiments and print it.

Run: ``python jobs/run.py NAME [--dataset DATASET]`` (or ``spark-submit``).
NAME and its default dataset:

- ``table1``: dataset statistics and default parameters (Table I), all five
  datasets.
- ``table2``: runtimes with IDOrd / DegOrd (Table II); ``--dataset`` takes a
  comma-separated subset, all five by default.
- ``exp1``: FCore vs CFCore pruning power (Figs. 3-4), imdb-lite.
- ``exp2``: runtime vs alpha/beta/delta with NSF/BNSF (Figs. 2 and 5), dblp-lite.
- ``exp4``: counts of maximal vs fair bicliques (Fig. 6), wikicat-lite.
- ``exp5``: runtime vs edge fraction (Fig. 7), dblp-lite.
- ``exp7``: proportion models vs theta (Figs. 11-12), youtube-lite.
- ``peel``: BFCore and BCFCore on the dataset's shape scaled x1, x10, x30
  and x100 (not in the paper), imdb-lite. It is local: the DataFrame peel
  remains only as the tested distributed formulation the benchmark names.

The printed columns are the keys of the experiment's rows, in order.
"""
import argparse

from repro.experiments import counts, pruning, scalability, sweeps, table1, table2, theta
from repro.experiments.runner import format_table


EXPERIMENTS = {
    "table1": (lambda _ds: table1.rows(), None),
    "table2": (lambda ds: table2.rows(ds.split(",") if ds else None), None),
    "exp1": (lambda ds: pruning.sweep(ds) + pruning.sweep(ds, bi=True), "imdb-lite"),
    "exp2": (
        lambda ds: sweeps.sweep(ds, "ssfbc", include_nsf=True)
        + sweeps.sweep(ds, "bsfbc", include_nsf=True),
        "dblp-lite",
    ),
    "exp4": (counts.sweep, "wikicat-lite"),
    "exp5": (scalability.sweep, "dblp-lite"),
    "exp7": (theta.sweep, "youtube-lite"),
    "peel": (scalability.peel_ladder, "imdb-lite"),
}


def main(name: str, dataset: str | None = None) -> list[dict]:
    """Run experiment ``name`` on ``dataset`` (or its default), print and return its rows."""
    run, default = EXPERIMENTS[name]
    rows = run(dataset or default)
    print(format_table(rows))
    return rows


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Regenerate one table or experiment.")
    ap.add_argument("name", choices=EXPERIMENTS)
    ap.add_argument("--dataset", default=None, help="dataset name (table2: comma-separated)")
    args = ap.parse_args()
    main(args.name, args.dataset)
