"""Experiment harness smoke + shape checks (the claims EXPERIMENTS.md reports)."""
import pytest

from repro.experiments import counts, pruning, scalability, sweeps, table1, table2, theta
from repro.experiments.datasets import DATASETS, load
from repro.experiments.runner import format_table
from pyspark.sql import functions as F
from tests.oracles import assert_equivalent


def test_registry_has_all_five_datasets():
    assert set(DATASETS) == {
        "youtube-lite", "twitter-lite", "imdb-lite", "wikicat-lite", "dblp-lite"
    }


def test_datasets_deterministic_and_cached():
    a = load("youtube-lite")
    b = load("youtube-lite")
    assert a is b  # lru_cache


def test_dataset_shape_ratios_track_paper():
    """|U|:|V| ratios must match the paper's datasets (1/100 scale)."""
    from repro.experiments.datasets import PAPER_TABLE1

    for d in DATASETS.values():
        paper = PAPER_TABLE1[d.paper_name]
        ratio_paper = paper["U"] / paper["V"]
        ratio_ours = d.spec.n_u / d.spec.n_v
        assert ratio_ours == pytest.approx(ratio_paper, rel=0.05)


def test_table1_rows_local():
    rows = table1.rows()
    assert len(rows) == 5
    yt = next(r for r in rows if r["dataset"] == "youtube-lite")
    assert yt["U"] == 942 and yt["V"] == 301


def test_table1_stats_with_spark_and_oracle(spark):
    row = table1.stats_row("youtube-lite")
    assert row["E"] > 0
    # The edge-count aggregation, DuckDB-oracled.
    g = load("youtube-lite")
    e_pdf, _u, _v = g.to_pandas()
    edges, _ua, _va = g.to_spark(spark)
    got = edges.agg(
        F.countDistinct("u").alias("nu"),
        F.countDistinct("v").alias("nv"),
        F.count("*").alias("ne"),
    )
    assert_equivalent(
        got,
        "SELECT COUNT(DISTINCT u) AS nu, COUNT(DISTINCT v) AS nv, COUNT(*) AS ne FROM edges",
        edges=e_pdf,
    )
    assert got.collect()[0]["ne"] == row["E"]


def test_table2_cell_runs_and_orders():
    """Every Table II cell (each algorithm under IDOrd and DegOrd) finds
    results, and all cells of one model find the same number and report the
    same (shared) prune time."""
    n_by_model: dict[str, set[int]] = {}
    prune_by_model: dict[str, set[float]] = {}
    for display, model, engine in table2.ALGORITHMS:
        for _, ordering in table2.ORDERINGS:
            cell = table2.run_cell("youtube-lite", display, model, engine, ordering)
            assert cell["n_results"] > 0
            assert cell["total_s"] >= cell["search_s"]
            n_by_model.setdefault(model, set()).add(cell["n_results"])
            prune_by_model.setdefault(model, set()).add(cell["prune_s"])
    assert all(len(ns) == 1 for ns in n_by_model.values()), n_by_model
    assert all(len(ps) == 1 for ps in prune_by_model.values()), prune_by_model


def test_table2_pp_not_slower_than_base():
    """The headline Table II shape: FairBCEM++ beats FairBCEM."""
    base = table2.run_cell("youtube-lite", "FairBCEM", "ssfbc", "bcem", "deg")
    pp = table2.run_cell("youtube-lite", "FairBCEM++", "ssfbc", "bcem_pp", "deg")
    assert pp["n_results"] == base["n_results"]
    assert pp["search_s"] < base["search_s"]


def test_pruning_sweep_shape():
    rows = pruning.sweep("youtube-lite")
    for r in rows:
        # CFCore prunes at least as much as FCore; both prune vs original.
        assert r["n_cfcore"] <= r["n_fcore"] < r["n_original"]
    # remaining vertices shrink as alpha grows
    alpha_rows = [r for r in rows if r["varied"] == "alpha"]
    sizes = [r["n_cfcore"] for r in alpha_rows]
    assert sizes == sorted(sizes, reverse=True)


def test_pruning_sweep_bi_shape():
    rows = pruning.sweep("youtube-lite", bi=True)
    for r in rows:
        assert r["n_cfcore"] <= r["n_fcore"] < r["n_original"]


def test_counts_sweep_shape():
    rows = counts.sweep("youtube-lite")
    for r in rows:
        # Fair bicliques outnumber maximal bicliques (paper Exp-4).
        assert r["n_ssfbc"] >= r["n_maximal_biclique_s"] or r["n_ssfbc"] == 0
    # counts shrink as delta grows? paper: counts decrease as alpha/beta/delta increase
    d_rows = sorted((r for r in rows if r["varied"] == "delta"), key=lambda r: r["delta"])
    s = [r["n_ssfbc"] for r in d_rows]
    assert s == sorted(s, reverse=True)


def test_theta_sweep_shape():
    rows = theta.sweep("youtube-lite", thetas=[0.2, 0.4, 0.5])
    ns = [r["n_pssfbc"] for r in rows]
    # paper Exp-7: counts increase with theta
    assert ns == sorted(ns)


def test_sweeps_runs_smallest():
    rows = sweeps.sweep("youtube-lite", "ssfbc", include_nsf=False, time_cap_s=60)
    assert {r["algorithm"] for r in rows} == {"FairBCEM", "FairBCEM++"}
    # same result counts per parameter cell
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r["varied"], r["alpha"], r["beta"], r["delta"]), set()).add(
            r["n_results"]
        )
    assert all(len(v) == 1 for v in by_cell.values())


def test_scalability_edge_sample():
    g = load("youtube-lite")
    sub = scalability.edge_sample(g, 0.5, seed=1)
    assert 0.4 * g.n_edges < sub.n_edges < 0.6 * g.n_edges
    assert scalability.edge_sample(g, 1.1, seed=1).n_edges == g.n_edges


def test_peel_ladder_scale_one_is_the_dataset(spark):
    """Rung 1 is the dataset itself, and both peels give the same core."""
    (row,) = scalability.peel_ladder(spark, "youtube-lite", scales=(1,))
    assert row["scale"] == 1 and row["edges"] == load("youtube-lite").n_edges
    assert row["core_edges"] > 0 and row["equal"] is True


def test_format_table():
    out = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
    lines = out.splitlines()
    assert lines[0].split() == ["a", "b"]
    assert len(lines) == 4


def test_run_entrypoint(capsys):
    """``jobs/run.py`` prints the rows' keys as its header, and rejects an
    unknown experiment name."""
    from jobs.run import main

    rows = main("exp7", "youtube-lite")
    lines = capsys.readouterr().out.splitlines()
    assert rows and lines[0].split() == list(rows[0])
    assert len(lines) == len(rows) + 2
    with pytest.raises(KeyError):
        main("exp9")
