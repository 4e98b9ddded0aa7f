"""Repository benchmark: train + match workloads on the sequential and Spark paths.

Run from the repository root:

    python3 perfbench/run.py --workload thunderbird-seq --seed 0 --seconds 35 --trace 0

The load is a closed loop with one client. A *pass* trains a model, loads
it into a fresh ``ParserModel`` with ``from_json`` (untimed, so every
matching pass starts from an unmutated model), matches the workload's
stream at query threshold 0.8 and then sweeps the query slider. The first
pass is cold; the warm passes after it repeat for at least ``--seconds``,
and warm figures are totals or means over all of them (see ``measure``).

* Sequential workloads run on one thread and match as an ingest loop of
  ``BATCHES_PER_PASS`` fixed-size ``match_sequential`` calls on the same
  model.
* Spark workloads run on ``local[2]``; matching is one ``match_df`` call
  forced by a no-op write. Set-up checks once that the Spark model is
  byte-identical to the sequential model of the same corpus.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced sequential pass (plus, on Spark workloads, a cold
and a traced Spark pass) and prints the per-layer metrics. Every run
checks its outputs; the last stdout line is the JSON result. Run
artefacts (span dumps, Spark scratch space) go to ``.perfbench_out/``.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    from perfbench.workloads import WORKLOADS, prepare  # noqa: E402
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import the parser ({exc}); run from the repository root")

OUT = ROOT / ".perfbench_out"
THRESHOLD = 0.8  # ParserConfig.query_threshold, the slider's default position
#: the query slider, 0.05 to 0.95 in steps of 0.05 (Table 4 samples it
#: at 0.05, 0.78, 0.9 and 0.95)
SWEEP = tuple(round(0.05 * i, 2) for i in range(1, 20))
SWEEP_REPEATS = 5  # a sweep takes tens of ms, so each pass times several
BATCHES_PER_PASS = 100  # fixed-size sequential ingest batches; a pass's p90 leaves ten beyond it
SETUP_ROUNDS = 3
TAIL_PERCENTILE = 90
SPARK_MASTER = "local[2]"
SPARK_DRIVER_MEMORY = "2g"
INPUT_PARTITIONS = 8
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}


class OperationFailed(Exception):
    pass


class Checks:
    """Counts operations (train calls, match batches or calls, output
    checks) and how many of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[perfbench] check failed: {what}", file=sys.stderr)

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc()
            raise OperationFailed(getattr(fn, "__name__", "operation")) from exc


def digest(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep(model, ids: list[int]) -> list[int]:
    """Query-time precision control: the template set and every matched
    id's ancestor at each slider position. Returns all remapped ids."""
    remapped: list[int] = []
    for t in SWEEP:
        model.templates_at(t)
        remapped += [model.ancestor_at(i, t) for i in ids]
    return remapped


def percentile(batch_s: list[float], pct: int) -> float:
    """Nearest-rank percentile of one pass's batch latencies. Of 100
    sequential batches, ten lie beyond the p90; a Spark pass is one
    ``match_df`` call, which is then its p90."""
    return sorted(batch_s)[math.ceil(len(batch_s) * pct / 100) - 1]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.build_inputs, self.spark_path = WORKLOADS[workload]
        self.checks = Checks()
        self.spark = None
        self.df = None
        self.info: dict = {"workload": workload, "seed": seed}
        self.ref_digest: str | None = None
        self.ga_ref: float | None = None
        self.temps_ref: int | None = None
        self.reference: list | None = None  # grouping GA is measured against

    # -- set-up ---------------------------------------------------------
    def start_spark(self) -> None:
        local, tmp = OUT / "spark-local", OUT / "tmp"
        local.mkdir(parents=True, exist_ok=True)
        tmp.mkdir(parents=True, exist_ok=True)
        src = str(ROOT / "src")
        os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
        os.environ["PYSPARK_PYTHON"] = sys.executable
        # Keep every scratch file inside the checkout: Python's and the
        # JVMs' temp dirs, and no hsperfdata under /tmp.
        os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
        os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {SPARK_MASTER} --driver-memory {SPARK_DRIVER_MEMORY} "
            f"--conf spark.local.dir={local} "
            f"--conf spark.sql.warehouse.dir={OUT / 'warehouse'} pyspark-shell"
        )
        from pyspark.sql import SparkSession

        builder = SparkSession.builder.appName("perfbench")
        for k, v in SPARK_CONF.items():
            builder = builder.config(k, v)
        self.spark = builder.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")

    def stop_spark(self) -> None:
        if self.spark is None:
            return
        gateway = self.spark.sparkContext._gateway
        self.spark.stop()
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        self.spark = None

    def set_up(self) -> float:
        """Build the inputs (and stage them on Spark) ``SETUP_ROUNDS``
        times; returns the median round time."""
        if self.spark_path:
            t = time.perf_counter()
            self.start_spark()
            self.info["spark_session_s"] = time.perf_counter() - t
            self.info["spark"] = {
                "master": SPARK_MASTER, "driver_memory": SPARK_DRIVER_MEMORY,
                "input_partitions": INPUT_PARTITIONS, **SPARK_CONF,
            }
        prepare(self.workload)
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t = time.perf_counter()
            self.inputs = self.build_inputs(self.seed)
            if self.spark_path:
                if self.df is not None:
                    self.df.unpersist(blocking=True)
                frame = self.inputs.frame
                self.df = self.spark.createDataFrame(frame).repartition(INPUT_PARTITIONS).cache()
                self.df.count()
            rounds.append(time.perf_counter() - t)
        stream = self.inputs.stream
        self.info.update(
            setup_rounds_s=rounds,
            train_logs=len(self.inputs.train),
            stream_logs=len(stream),
            stream_raw_unique_share=len(set(stream)) / len(stream),
        )
        return statistics.median(rounds)

    # -- passes ---------------------------------------------------------
    def check_model(self, model, blob: str) -> None:
        d = digest(blob)
        if self.ref_digest is None:
            self.ref_digest = d
            self.info["model_digest"] = d
            self.info["model_nodes"] = len(model.nodes)
            self.info["model_bytes"] = model.nbytes
        self.check(d == self.ref_digest, "model digest differs from the first model of this run")

    def check(self, ok: bool, what: str) -> None:
        self.checks.check(ok, what)

    def check_matches(self, live, ids: list[int], trained_nodes: int) -> None:
        from repro.eval.ga import grouping_accuracy

        n = len(self.inputs.stream)
        self.check(len(ids) == n, f"{len(ids)} match results for {n} logs")
        self.check(bool(ids) and min(ids) >= 0 and max(ids) < len(live.nodes), "matched id is not a node id")
        temps = len(live.nodes) - trained_nodes
        if self.temps_ref is None:
            self.temps_ref = temps
            self.info["temp_templates"] = temps
        self.check(temps == self.temps_ref, f"{temps} temporary templates, first pass had {self.temps_ref}")
        if self.reference is not None and len(ids) == n:
            ga = grouping_accuracy(ids, self.reference)
            if self.ga_ref is None:
                self.ga_ref = ga
            self.check(ga == self.ga_ref, f"ga {ga} differs from first pass {self.ga_ref}")

    def timed_sweep(self, live, ids: list[int], repeats: int = SWEEP_REPEATS) -> list[float]:
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            remapped = sweep(live, ids)
            times.append(time.perf_counter() - t)
        self.check(min(remapped) >= 0 and max(remapped) < len(live.nodes), "ancestor is not a node id")
        return times

    def seq_pass(self, tracer=None, sweeps: int = SWEEP_REPEATS) -> dict:
        """Sequential pass. On Spark workloads (the trace run's kernel
        attribution) it matches in one call, as ``match_df`` does."""
        from repro.core import ParserModel, match_sequential, train_model_sequential

        span = tracer.span if tracer else (lambda *a, **k: nullcontext())
        inp = self.inputs
        gc.collect()
        t = time.perf_counter()
        with span("train.train_model_sequential", phase="train"):
            model = self.checks.op(train_model_sequential, inp.train)
        t_train = time.perf_counter() - t
        with span("load", phase="load"):
            blob = model.to_json()
            live = ParserModel.from_json(blob)
        self.check_model(model, blob)
        ids: list[int] = []
        lat: list[float] = []
        n = len(inp.stream)
        batch = n if self.spark_path else math.ceil(n / BATCHES_PER_PASS)
        gc.collect()
        with span("match", phase="match"):
            for s in range(0, n, batch):
                t = time.perf_counter()
                with span("match.match_sequential"):
                    ids += self.checks.op(match_sequential, inp.stream[s:s + batch], live, threshold=THRESHOLD)
                lat.append(time.perf_counter() - t)
        self.check_matches(live, ids, len(model.nodes))
        with span("sweep", phase="sweep"):
            t_sweep = self.timed_sweep(live, ids, sweeps)
        return {"train_s": t_train, "match_s": sum(lat), "batch_s": lat, "sweep_s": t_sweep,
                "ids": ids, "model": model}

    def spark_pass(self, cold: bool, tracer=None, group: str | None = None, sweeps: int = SWEEP_REPEATS) -> dict:
        from pyspark.sql import Observation
        from pyspark.sql import functions as F

        from repro.core import ParserModel, match_df, train_model

        span = tracer.span if tracer else (lambda *a, **k: nullcontext())
        sc = self.spark.sparkContext
        if group:
            sc.setJobGroup(f"{group}-train", "perfbench train_model")
        gc.collect()
        t = time.perf_counter()
        with span("train.train_model", phase="train"):
            model = self.checks.op(train_model, self.spark, self.df)
        t_train = time.perf_counter() - t
        with span("load", phase="load"):
            blob = model.to_json()
            live = ParserModel.from_json(blob)
        self.check_model(model, blob)
        if group:
            sc.setJobGroup(f"{group}-match", "perfbench match_df")
        n = len(self.inputs.stream)
        if cold:
            # Untimed: collect the matches once to check every id and
            # measure ga; warm passes compare against this checksum.
            out = self.checks.op(
                lambda: match_df(self.spark, self.df, live, threshold=THRESHOLD)
                .select("log_id", "template_id").toPandas().sort_values("log_id")
            )
            ids = [int(x) for x in out["template_id"]]
            self.check(out["log_id"].tolist() == list(range(n)), "match_df lost or duplicated logs")
            self.check_matches(live, ids, len(model.nodes))
            self.spark_ids = ids
            self.checksum = sum((i * 1000003 + nid) % 2147483647 for i, nid in enumerate(ids))
            # Untimed warm-up: without it the first warm match_df ran a
            # quarter slower than the ones after it (JVM code still being
            # compiled).
            warm_up = match_df(self.spark, self.df, live, threshold=THRESHOLD)
            self.checks.op(lambda: warm_up.write.format("noop").mode("overwrite").save())
            t_match = float("nan")
        else:
            obs = Observation(f"check-{time.perf_counter_ns()}")
            gc.collect()
            t = time.perf_counter()
            with span("match.match_df", phase="match"):
                out = match_df(self.spark, self.df, live, threshold=THRESHOLD).observe(
                    obs,
                    F.count(F.lit(1)).alias("n"),
                    F.min("template_id").alias("lo"),
                    F.max("template_id").alias("hi"),
                    F.sum((F.col("log_id") * 1000003 + F.col("template_id")) % 2147483647).alias("sum"),
                )
                self.checks.op(lambda: out.write.format("noop").mode("overwrite").save())
            t_match = time.perf_counter() - t
            got = obs.get
            self.check(got["n"] == n, f"match_df returned {got['n']} rows for {n} logs")
            self.check(0 <= got["lo"] and got["hi"] < len(live.nodes), "matched id is not a node id")
            self.check(got["sum"] == self.checksum, "match_df output differs from the first pass")
        with span("sweep", phase="sweep"):
            t_sweep = self.timed_sweep(live, self.spark_ids, sweeps)
        return {"train_s": t_train, "match_s": t_match, "batch_s": [t_match], "sweep_s": t_sweep,
                "model": model}

    def parity(self) -> None:
        """Spark set-up check: the sequential model of the same corpus is
        the reference every Spark model must equal byte for byte. Without
        labels, its matches are the grouping ``ga`` is measured against."""
        from repro.core import ParserModel, match_sequential, train_model_sequential

        t = time.perf_counter()
        model = self.checks.op(train_model_sequential, self.inputs.train)
        blob = model.to_json()
        self.ref_digest = digest(blob)
        self.info.update(model_digest=self.ref_digest, model_nodes=len(model.nodes), model_bytes=model.nbytes)
        if self.inputs.labels is None:
            self.reference = self.checks.op(
                match_sequential, self.inputs.stream, ParserModel.from_json(blob), threshold=THRESHOLD
            )
        self.info["parity_s"] = time.perf_counter() - t

    # -- the two kinds of run -------------------------------------------
    def measure(self) -> dict[str, float]:
        setup_s = self.set_up()
        if self.inputs.labels is not None:
            self.reference = self.inputs.labels
        if self.spark_path:
            self.parity()
        self.info["first_pass_s"] = time.perf_counter() - T_PROCESS
        times = ("train_s", "match_s", "batch_s", "sweep_s")  # all a pass keeps
        first = self.spark_pass(cold=True) if self.spark_path else self.seq_pass()
        passes = [{k: first[k] for k in times}]
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.seconds:
            p = self.spark_pass(cold=False) if self.spark_path else self.seq_pass()
            passes.append({k: p[k] for k in times})
        warm = passes[1:]
        self.info.update(
            passes=len(passes),
            cold_train_s=first["train_s"],
            pass_train_s=[p["train_s"] for p in passes],
            pass_match_s=[p["match_s"] for p in passes],
            pass_sweep_s=[p["sweep_s"] for p in passes],
            tail_percentile=TAIL_PERCENTILE,
            batches_per_warm_pass=len(warm[0]["batch_s"]),
            warm_passes=len(warm),
        )
        # The host's slowdowns come in spells that cover whole passes, so a
        # run's pass times mix a fast and a slow mode; a median jumps
        # between the modes as their shares cross a half, a total or mean
        # moves with the shares (see README.md). Hence totals and means
        # over the warm passes, and medians only for the tail.
        logs = len(self.inputs.stream) * len(warm)
        train_s = sum(p["train_s"] for p in warm)
        match_s = sum(p["match_s"] for p in warm)
        self.info["match_batch_p50_ms"] = 1e3 * statistics.median(b for p in warm for b in p["batch_s"])
        return {
            "setup_s": setup_s,
            "train_s": train_s / len(warm),
            "match_logs_per_s": logs / match_s,
            "logs_per_s": logs / (train_s + match_s),
            "match_batch_tail_ms": 1e3 * statistics.median(percentile(p["batch_s"], TAIL_PERCENTILE) for p in warm),
            "query_sweep_ms": 1e3 * statistics.mean(t for p in warm for t in p["sweep_s"]),
            "ga": self.ga_ref,
            "model_bytes": first["model"].nbytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (self.checks.attempted - self.checks.failed) / self.checks.attempted,
        }

    def measure_layers(self) -> dict[str, float]:
        from perfbench.tracing import Tracer, kernel_metrics, self_s

        self.set_up()
        if self.inputs.labels is not None:
            self.reference = self.inputs.labels
        self.info["first_pass_s"] = time.perf_counter() - T_PROCESS
        tracer = Tracer()
        t = time.perf_counter()
        plain = self.seq_pass(sweeps=1)  # the process's first training call
        untraced_s = time.perf_counter() - t
        cold_train_s = plain["train_s"]
        if self.reference is None:
            self.reference = plain["ids"]
        tracer.pass_id = 1
        t = time.perf_counter()
        with tracer.installed():
            traced = self.seq_pass(tracer, sweeps=1)
        traced_s = time.perf_counter() - t
        trained_nodes = len(traced["model"].nodes)
        m = kernel_metrics(tracer, 1, len(self.inputs.train), len(self.inputs.stream), trained_nodes)
        entry = ("train.train_model_sequential", "match.match_sequential")
        counts = {"train": (0, 0, 0, 0), "match": (0, 0, 0, 0)}
        if self.spark_path:
            cold_train_s = self.spark_pass(cold=True, sweeps=1)["train_s"]
            tracer.pass_id = 2
            group = f"perfbench-{time.perf_counter_ns()}"
            with tracer.installed():
                self.spark_pass(cold=False, tracer=tracer, group=group, sweeps=1)
            entry = ("train.train_model", "match.match_df")
            counts = {k: self.job_counts(f"{group}-{k}") for k in counts}
        m["train.cold_s"] = cold_train_s
        m["train.entry.self_s"] = self_s(tracer.select(entry[0], tracer.pass_id))
        m["match.entry.self_s"] = self_s(tracer.select(entry[1], tracer.pass_id))
        for layer, (jobs, stages, tasks, failed) in counts.items():
            m[f"{layer}.spark.jobs"] = jobs
            m[f"{layer}.spark.stages"] = stages
            m[f"{layer}.spark.tasks"] = tasks
            m[f"{layer}.spark.failed_tasks"] = failed
        m["model.nodes"] = trained_nodes
        m["model.max_depth"] = max(nd.depth for nd in traced["model"].nodes)
        m["trace.overhead_ratio"] = traced_s / untraced_s
        m["setup.first_pass_s"] = self.info["first_pass_s"]
        self.info.update(
            untraced_pass_s=untraced_s, traced_pass_s=traced_s, spans=len(tracer.spans),
            untraced_match_s=plain["match_s"], traced_match_s=traced["match_s"],
            untraced_train_s=plain["train_s"], traced_train_s=traced["train_s"],
        )
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{self.workload}-seed{self.seed}.json", m)
        return m

    def job_counts(self, group: str) -> tuple[int, int, int, int]:
        """(jobs, stages run, tasks run, failed tasks) of one job group."""
        st = self.spark.sparkContext.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        stages = tasks = failed = 0
        for j in jobs:
            info = st.getJobInfo(j)
            for sid in info.stageIds if info else []:
                si = st.getStageInfo(sid)
                if si is None or si.numCompletedTasks + si.numFailedTasks == 0:
                    continue  # skipped: its output was reused
                stages += 1
                tasks += si.numCompletedTasks + si.numFailedTasks
                failed += si.numFailedTasks
        return len(jobs), stages, tasks, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = run.measure_layers() if args.trace else run.measure()
    except OperationFailed as exc:
        print(f"perfbench: {exc} failed; no result", file=sys.stderr)
        return 1
    finally:
        run.stop_spark()
    OUT.mkdir(exist_ok=True)
    report = {"info": run.info, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    for k, v in run.info.items():
        if not isinstance(v, (list, dict)):
            print(f"# {k}: {v}")
    if set(metrics) != set(units):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    result = {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
