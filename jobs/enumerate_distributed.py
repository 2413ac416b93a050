"""End-to-end distributed fair biclique enumeration for one dataset.

CFCore/BCFCore pruning on the driver + branch-parallel enumeration
(mapInPandas). Run:

    spark-submit jobs/enumerate_distributed.py --dataset youtube-lite --model ssfbc
"""
import argparse

from pyspark.sql import SparkSession

from repro.core.cfcore import bcfcore, cfcore
from repro.core.distributed import enumerate_df
from repro.experiments.datasets import DATASETS, load


def main(spark: SparkSession, dataset: str, model: str = "ssfbc") -> int:
    d = DATASETS[dataset]
    g = load(dataset)
    if model == "ssfbc":
        alpha, beta = d.alpha_s, d.beta_s
        gp = cfcore(g, alpha, beta)
    else:
        alpha, beta = d.alpha_b, d.beta_b
        gp = bcfcore(g, alpha, beta)
    res = enumerate_df(spark, gp, alpha, beta, d.delta, model=model)
    n = res.count()
    print(
        f"{dataset} {model}: pruned to {gp.n_u}+{gp.n_v} vertices, "
        f"{n} fair bicliques (alpha={alpha}, beta={beta}, delta={d.delta})"
    )
    return n


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="youtube-lite")
    ap.add_argument("--model", default="ssfbc", choices=["ssfbc", "bsfbc"])
    args = ap.parse_args()
    session = SparkSession.builder.appName("repro-enumerate").getOrCreate()
    try:
        main(session, args.dataset, args.model)
    finally:
        session.stop()
