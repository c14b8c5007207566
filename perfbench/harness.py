"""One benchmark run: set up, warm up, measure, check, report.

The client is a single closed loop: it issues the next query only after the
previous one's hit stream is drained (or, on ``sharded-topk``, its merged
result returned).  Every query's hits are checked against the oracle after
the loop, outside the measured time.

``trace=0`` measures the end-to-end metrics.  ``trace=1`` runs the first
pass after warm-up under a :class:`~layers.LayerClock` and reports the
per-layer metrics: counts are that pass's totals, times are per query, and
the remaining passes run untraced, for ``obs.trace_overhead``.
"""

from __future__ import annotations

import contextlib
import gc
import os
from multiprocessing import resource_tracker
import random
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from perfbench.calibrate import probe, speed_factor
from perfbench.layers import LayerClock
from perfbench.workloads import WORKLOADS, Dataset, Oracle, Outcome, fresh_workdir, make_dataset

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: name -> unit, in print order.
END_TO_END = {
    "throughput_qps": "queries/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "first_hit_p50_ms": "ms",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}
PER_LAYER = {
    "suffixtree.build_s": "s",
    "storage.image_build_s": "s",
    "storage.open_s": "s",
    "storage.cursor_s": "s",
    "storage.cursor_calls": "count",
    "storage.page_requests": "count",
    "storage.page_misses": "count",
    "storage.evictions": "count",
    "storage.hit_ratio": "ratio",
    "storage.bytes_read": "B",
    "storage.index_bytes_per_residue": "B/residue",
    "kernel.self_s": "s",
    "kernel.calls": "count",
    "kernel.columns": "count",
    "kernel.columns_per_s": "columns/s",
    "driver.self_s": "s",
    "driver.nodes_expanded": "count",
    "driver.nodes_enqueued": "count",
    "driver.max_queue_size": "count",
    "driver.pruned_share": "ratio",
    "driver.columns_per_hit": "columns/hit",
    "sharding.worker_start_s": "s",
    "sharding.shard_busy_s": "s",
    "sharding.overhead_s": "s",
    "sharding.shard_skew": "ratio",
    "sharding.merge_keep_ratio": "ratio",
    "obs.trace_overhead": "ratio",
}


@dataclass
class Report:
    workload: str
    seed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    #: Context lines printed above the metrics (environment, input shares).
    notes: List[str] = field(default_factory=list)
    kernel: str = ""
    #: Mean query wall time of the traced pass (the per-layer times' whole).
    traced_query_seconds: float = 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Client:
    """Issues the pool in a seeded random order, drawn afresh for every pass."""

    def __init__(self, dataset: Dataset, session, workload, seed: int):
        self.dataset = dataset
        self.session = session
        self.workload = workload
        self.evalue = dataset.evalue * workload.evalue_factor
        self.thresholds = {query: session.min_score(query, self.evalue) for query in dataset.queries}
        self.rng = random.Random(seed)
        self.outcomes: List[Outcome] = []
        self.errors: List[str] = []
        # The probe that ended the last query starts the next one.
        self._probe: Optional[float] = None

    def order(self) -> List[str]:
        return self.rng.sample(self.dataset.queries, len(self.dataset.queries))

    def issue(self, queries: List[str]) -> List[Outcome]:
        done = []
        for query in queries:
            before = self._probe if self._probe is not None else probe()
            try:
                outcome = self.session.query(query, self.evalue, self.workload.max_results)
            except Exception as error:  # a raising query is a failed query
                self.errors.append(f"{query}: {type(error).__name__}: {error}")
                self._probe = None
                continue
            self._probe = probe()
            outcome.probes = (before, self._probe)
            done.append(outcome)
        self.outcomes.extend(done)
        return done

    def passes(self, count: int) -> List[Outcome]:
        return [outcome for _ in range(count) for outcome in self.issue(self.order())]

    def failures(self, oracle: Oracle) -> int:
        failed = len(self.errors)
        for outcome in self.outcomes:
            expected = oracle.expected(
                outcome.query, self.thresholds[outcome.query], self.workload.max_results
            )
            if outcome.timed_out or outcome.hits != expected:
                failed += 1
        return failed


def tail(values: List[float]):
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def _peak_rss_mb(include_children: bool) -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def _stop_resource_tracker() -> None:
    """Stop the helper process that spawned worker pools start, and reap it.

    Left alone it outlives the run: it exits only once it sees this process's
    end.  Each closed pool's semaphores must be collected first, or their
    finalizers would start a fresh tracker on the way out.
    """
    gc.collect()
    try:
        resource_tracker._resource_tracker._stop()
    except ChildProcessError:  # already reaped
        pass


def _sum(outcomes: List[Outcome], attribute: str) -> int:
    return sum(getattr(outcome.statistics, attribute) for outcome in outcomes)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _calibrated(outcome: Outcome) -> float:
    return outcome.seconds * speed_factor(*outcome.probes)


def _calibrated_first_hit(outcome: Outcome) -> Optional[float]:
    if outcome.first_hit_seconds is None:
        return None
    # A first hit arrives early in most queries: the probe before it saw the
    # speed it ran at.  One that arrives with the end (a merged result) spans
    # the query.
    ended = outcome.first_hit_seconds == outcome.seconds
    probes = outcome.probes if ended else outcome.probes[:1]
    return outcome.first_hit_seconds * speed_factor(*probes)


def _per_query_medians(loop: List[Outcome], value) -> List[float]:
    """The median of each query's ``value(outcome)`` over its executions (where it has one)."""
    values: Dict[str, List[float]] = {}
    for outcome in loop:
        sample = value(outcome)
        if sample is not None:
            values.setdefault(outcome.query, []).append(sample)
    return [statistics.median(samples) for samples in values.values()]


def throughput(loop: List[Outcome]) -> float:
    """Queries per calibrated second of the client's time in ``execute()``."""
    return len(loop) / sum(map(_calibrated, loop))


def end_to_end(loop: List[Outcome], setup: List[float], rss_mb: float) -> Dict[str, float]:
    # Timings are calibrated (perfbench.calibrate).  A first hit takes from
    # 1 ms to the whole query, so its median is over the pool's queries,
    # each at the median of its executions: which execution of which query
    # lands in the middle then does not decide it.
    first_hits = _per_query_medians(loop, _calibrated_first_hit)
    return {
        "throughput_qps": throughput(loop),
        "query_p50_ms": 1000.0 * statistics.median(map(_calibrated, loop)),
        "query_tail_ms": 1000.0 * tail(list(map(_calibrated, loop)))[0],
        "first_hit_p50_ms": 1000.0 * statistics.median(first_hits) if first_hits else 0.0,
        "setup_s": statistics.median(setup),
        "rss_peak_mb": rss_mb,
    }


def per_layer(session, dataset: Dataset, traced: List[Outcome], untraced: List[Outcome],
              clock_pass: LayerClock,
              setup_layers: List[Dict[str, float]], worker_start: List[float]) -> Dict[str, float]:
    queries = len(traced)
    kernel = clock_pass.self_seconds.get("kernel", 0.0)
    cursor = clock_pass.self_seconds.get("storage.cursor", 0.0)
    wall = sum(outcome.seconds for outcome in traced)
    columns = _sum(traced, "columns_expanded")
    hits = _sum(traced, "buffer_hits")
    misses = _sum(traced, "buffer_misses")
    enqueued = _sum(traced, "nodes_enqueued")
    pruned = _sum(traced, "nodes_pruned")
    hit_count = sum(len(outcome.hits) for outcome in traced)
    sharded = not session.in_process
    shard_times = [o.shard_seconds for o in traced if o.shard_seconds]

    def setup_median(layer: str) -> float:
        return statistics.median(layers.get(layer, 0.0) for layers in setup_layers)

    return {
        "suffixtree.build_s": setup_median("suffixtree.build"),
        "storage.image_build_s": setup_median("storage.image_build"),
        "storage.open_s": setup_median("storage.open"),
        "storage.cursor_s": cursor / queries,
        "storage.cursor_calls": clock_pass.calls.get("storage.cursor", 0),
        "storage.page_requests": hits + misses,
        "storage.page_misses": misses,
        "storage.evictions": _sum(traced, "buffer_evictions"),
        "storage.hit_ratio": _ratio(hits, hits + misses),
        "storage.bytes_read": misses * session.block_size,
        "storage.index_bytes_per_residue": session.index_bytes / dataset.database.total_symbols,
        "kernel.self_s": kernel / queries,
        # Process workers run the kernel out of the clock's sight; there the
        # driver's one expand_children call per expanded node is the count.
        "kernel.calls": _sum(traced, "nodes_expanded") if sharded else clock_pass.calls.get("kernel", 0),
        "kernel.columns": columns,
        "kernel.columns_per_s": _ratio(columns, kernel),
        "driver.self_s": 0.0 if sharded else (wall - kernel - cursor) / queries,
        "driver.nodes_expanded": _sum(traced, "nodes_expanded"),
        "driver.nodes_enqueued": enqueued,
        "driver.max_queue_size": max(outcome.statistics.max_queue_size for outcome in traced),
        "driver.pruned_share": _ratio(pruned, pruned + enqueued),
        "driver.columns_per_hit": _ratio(columns, hit_count),
        "sharding.worker_start_s": statistics.median(worker_start),
        "sharding.shard_busy_s": _ratio(sum(map(sum, shard_times)), sum(map(len, shard_times))),
        "sharding.overhead_s": _ratio(
            sum(o.seconds - max(o.shard_seconds) for o in traced if o.shard_seconds), len(shard_times)
        ),
        "sharding.shard_skew": statistics.median(
            max(times) / statistics.mean(times) for times in shard_times
        ) if shard_times and all(map(any, shard_times)) else 0.0,
        "sharding.merge_keep_ratio": _ratio(clock_pass.merge_kept, clock_pass.merge_shipped),
        "obs.trace_overhead": throughput(traced) / throughput(untraced),
    }


def _property_note(name: str, client: Client, oracle: Oracle, loop: List[Outcome]) -> str:
    pool = len(client.dataset.queries)
    if name == "mem-motif":
        empty = sum(1 for outcome in loop if not outcome.hits)
        return f"# property zero_hit_share {empty / len(loop):.4f} ({empty} of {len(loop)} queries)"
    if name == "disk-tight-pool":
        misses, hits = _sum(loop, "buffer_misses"), _sum(loop, "buffer_hits")
        return f"# property page_miss_ratio {_ratio(misses, hits + misses):.4f} ({misses} of {hits + misses} page requests)"
    truncated = sum(
        1 for query in client.dataset.queries
        if len(oracle.expected(query, client.thresholds[query])) > client.workload.max_results
    )
    return f"# property truncated_share {truncated / pool:.4f} ({truncated} of {pool} pool queries)"


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: str,
        scale: str = "small") -> Report:
    workload = WORKLOADS[workload_name]
    dataset = make_dataset(scale)
    oracle = Oracle.load(dataset, os.path.join(root, ".cache"))
    workdir = fresh_workdir(os.path.join(root, ".work"))
    clock = LayerClock()
    try:
        setup_seconds: List[float] = []  # calibrated
        setup_raw: List[float] = []
        setup_layers: List[Dict[str, float]] = []
        worker_start: List[float] = []
        session = None
        for repeat in range(SETUP_REPEATS):
            if session is not None:
                session.close()
            gc.collect()  # the previous engine's garbage is not this setup's cost
            directory = os.path.join(workdir, f"setup-{repeat}")
            os.makedirs(directory)
            before = dict(clock.self_seconds)
            with clock.installed() if trace else contextlib.nullcontext():
                before_probe = probe()
                start = perf_counter()
                session = workload.setup(dataset, directory)
                setup_raw.append(perf_counter() - start)
                factor = speed_factor(before_probe, probe())
            setup_seconds.append(setup_raw[-1] * factor)
            setup_layers.append({k: v - before.get(k, 0.0) for k, v in clock.self_seconds.items()})
            worker_start.append(session.worker_start_seconds)
        try:
            client = Client(dataset, session, workload, seed)
            client.issue(client.order()[: len(dataset.queries) // 2])  # warm-up
            passes = workload.passes(seconds)
            if trace:
                pass_clock = LayerClock()
                with pass_clock.installed():
                    traced = client.passes(1)
            start = perf_counter()
            loop = client.passes(max(passes - 1, 1) if trace else passes)
            loop_seconds = perf_counter() - start
        finally:
            session.close()
        rss_mb = _peak_rss_mb(include_children=not session.in_process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()

    if trace:
        metrics = per_layer(session, dataset, traced, loop, pass_clock, setup_layers, worker_start)
        units = PER_LAYER
    else:
        metrics = end_to_end(loop, setup_seconds, rss_mb)
        units = END_TO_END
    value, percentile, samples = tail(list(map(_calibrated, loop)))
    raw_seconds = [outcome.seconds for outcome in loop]
    first = client.outcomes[0].statistics if client.outcomes else None
    report = Report(
        workload=workload_name,
        seed=seed,
        metrics=metrics,
        units=units,
        attempted=len(client.outcomes) + len(client.errors),
        failed=client.failures(oracle),
        kernel=getattr(first, "kernel", "unknown"),
    )
    if trace:
        report.traced_query_seconds = statistics.mean(outcome.seconds for outcome in traced)
    report.notes.append(
        f"# inputs residues={dataset.database.total_symbols} pool={len(dataset.queries)} "
        f"evalue={client.evalue:.2f} max_results={workload.max_results}"
    )
    report.notes.append(
        f"# measured {len(loop)} queries ({len(loop) // len(dataset.queries)} passes"
        f"{' after 1 traced' if trace else ''}) "
        f"in {loop_seconds:.3f} s after {len(client.outcomes) - len(loop)} earlier queries"
    )
    report.notes.append(_property_note(workload_name, client, oracle, loop))
    report.notes.append(
        f"# query_tail_ms is p{percentile:.1f} of {samples} queries ({value * 1000.0:.3f} ms)"
    )
    report.notes.append(
        f"# uncalibrated throughput_qps={len(loop) / sum(raw_seconds):.4f} "
        f"query_p50_ms={1000.0 * statistics.median(raw_seconds):.3f} "
        f"setup_s={statistics.median(setup_raw):.4f} "
        f"speed_factor_median={statistics.median(speed_factor(*o.probes) for o in loop):.4f}"
    )
    report.notes.extend(f"# error {error}" for error in client.errors[:5])
    return report
