"""Process hygiene for one benchmark run.

- :func:`start_spark` builds a self-contained local SparkSession: fixed
  master and driver heap, Arrow on, broadcast joins off, UI off, and every
  scratch directory under the run's own work directory.
- :func:`stop_spark` stops the session, ends the JVM and reaps every
  descendant, so no orphan JVM or Python worker leaks CPU or memory into
  the next run.
- :func:`tree_peak_rss_mb` reads the peak memory of the whole process tree
  (this process, the JVM and its Python workers).

The process makes itself a child subreaper, so the Python workers that the
JVM forks re-parent to it when the JVM exits and can be waited for.
"""
from __future__ import annotations

import ctypes
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36
DRIVER_HEAP = "2g"
# Two shuffle partitions per local core: the graphs have ~41k edges, so more
# partitions add only scheduling work (enumerate_df's fan-out uses the same
# 2x default).
SHUFFLE_PER_CORE = 2


def become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`reap_descendants` can wait for them."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def descendants(root: int | None = None) -> list[int]:
    """Pids of every live descendant of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while we listed /proc
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
        children[int(stat.rsplit(")", 1)[1].split()[1])].append(int(name))
    out, todo = [], [root]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _hwm_kb(pid: int) -> int:
    """Peak resident size of one process (``VmHWM``), 0 if it has exited."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Sum of the peak resident sizes of this process and its live descendants.

    Each process's peak is exact; the sum can exceed the tree's peak at any
    one instant when the processes peak at different times.
    """
    return sum(_hwm_kb(p) for p in [os.getpid(), *descendants()]) / 1024


def reap_descendants(timeout_s: float = 20.0) -> None:
    """Terminate every descendant, then wait until each has ended."""
    deadline = time.monotonic() + timeout_s
    sig = signal.SIGTERM
    while True:
        pids = descendants()
        if not pids:
            break
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
        _wait_zombies()
    _wait_zombies()


def _wait_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def start_spark(work_dir: Path, src_dir: Path):
    """A local SparkSession whose JVM, workers and scratch files stay under ``work_dir``.

    Must run before anything else in the process starts a JVM: the master,
    heap and scratch paths are read when the JVM launches.
    """
    local_dir, tmp_dir = work_dir / "spark-local", work_dir / "tmp"
    warehouse = work_dir / "warehouse"
    local_dir.mkdir(parents=True)
    tmp_dir.mkdir()
    cores = min(os.cpu_count() or 1, 4)
    # The launcher's connection-info file and PySpark's own temp files follow
    # TMPDIR; SPARK_LOCAL_DIRS would override spark.local.dir if inherited.
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(local_dir)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_HEAP}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            # The traced mode reads job and stage counts from the status store.
            "--conf spark.ui.retainedJobs=100000",
            "--conf spark.ui.retainedStages=100000",
            "--conf " + shlex.quote(f"spark.local.dir={local_dir}"),
            # The serial collector sizes the heap by free space after a
            # collection, not by pause times, so the JVM's resident size does
            # not follow the host's speed from one run to the next.
            "--conf " + shlex.quote(
                f"spark.driver.extraJavaOptions=-XX:+UseSerialGC -Djava.io.tmpdir={tmp_dir}"
            ),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={warehouse}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("fairbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PER_CORE * cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, end the JVM, and reap the Python workers it forked."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    reap_descendants()
