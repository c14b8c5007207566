"""Process-pool worker side of the sharded engine and builder.

Everything in this module runs (also) inside ``ProcessBackend`` worker
processes, so the ground rules are strict:

* tasks are plain picklable descriptions -- ``(catalog directory, shard id,
  query, parameters)`` -- never live engine objects;
* each worker process opens its shard image lazily, read-only, from the
  catalog, and caches the open engine for the life of the process (the
  expensive part -- catalog + FASTA parse + cursor open -- is paid once per
  (worker, shard), not once per query);
* results travel back as plain tuples of primitives.  Workers do **not**
  compute E-values: a shard knows only its slice of the database, and the
  parent holds the global :class:`~repro.core.evalue.SelectivityConverter`,
  so the parent remaps raw scores to global E-values and shard-local
  sequence indices to global ones.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.results import Alignment
from repro.obs.trace import TraceContext

#: Serialized hit: (shard-local sequence index, identifier, score, alignment).
HitTuple = Tuple[int, str, int, Optional[tuple]]


@dataclass(frozen=True)
class ShardSearchTask:
    """One shard's share of one query, shipped to a worker process.

    ``min_score`` is the already-resolved *global* threshold (the parent
    converts an E-value cutoff through the global converter; Equation 3
    must see the whole database, which the worker does not).
    ``deadline_epoch`` is the query's absolute deadline as ``time.time()``
    seconds: the wall clock is shared by every process on the machine
    (unlike the monotonic clock, whose origin is undefined across
    processes), so a task that waited in the pool queue sees only the time
    actually remaining instead of restarting a full budget -- the same
    no-over-grant guarantee the in-process path gets from its pinned
    monotonic deadline.

    ``fingerprint`` / ``database_digest`` are the parent's view of the
    catalog.  Workers load the catalog from disk *lazily*, so an index
    rebuilt in place between the parent's open and a worker's first task
    would otherwise be searched silently with mismatched scoring or
    sequences; the worker re-checks both against what it actually loaded
    and fails the query loudly instead.
    """

    directory: str
    shard_index: int
    query: str
    min_score: int
    max_results: Optional[int]
    compute_alignments: bool
    deadline_epoch: Optional[float]
    buffer_pool_bytes: int
    simulated_miss_latency: float
    sleep_on_miss: bool
    fingerprint: Optional[Dict[str, object]] = None
    database_digest: str = ""
    #: Telemetry seed: when set, the worker builds its own tracer continuing
    #: the parent's trace, records its shard span (parented under the
    #: parent's query span) plus buffer-pool metrics, and returns both in the
    #: payload for the parent to adopt/merge -- one coherent span tree per
    #: query regardless of which processes produced its pieces.
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class ShardBuildTask:
    """One shard's construction job (used by every backend kind).

    The sub-database is embedded: building happens before any FASTA exists
    on disk, and pickling a database slice is what lets the same task type
    drive serial, thread and process builds alike.
    """

    directory: str
    image_name: str
    sub_database: object  # SequenceDatabase; typed loosely to keep pickling honest
    block_size: int
    max_partition_size: int


# --------------------------------------------------------------------- #
# Per-process caches
# --------------------------------------------------------------------- #
#: directory -> (catalog, database, matrix, gap_model); shared by all shards.
_DIRECTORY_CACHE: Dict[str, tuple] = {}
#: (directory, shard, pool bytes, latency, sleep) -> OasisSearch over the shard.
_SHARD_CACHE: Dict[tuple, object] = {}


def _catalog_mismatch(catalog: "ShardCatalog", task: ShardSearchTask) -> Optional[str]:
    """What (if anything) differs between the task's and the loaded catalog."""
    if task.fingerprint is not None and catalog.fingerprint != task.fingerprint:
        return "configuration fingerprint"
    if task.database_digest and catalog.database_digest != task.database_digest:
        return "database digest"
    return None


def _evict_directory(directory: str) -> None:
    """Drop everything this worker cached for one index directory."""
    _DIRECTORY_CACHE.pop(directory, None)
    for key in [key for key in _SHARD_CACHE if key[0] == directory]:
        search = _SHARD_CACHE.pop(key)
        close = getattr(search.cursor, "close", None)
        if close is not None:
            close()


def _open_directory(directory: str) -> tuple:
    cached = _DIRECTORY_CACHE.get(directory)
    if cached is not None:
        return cached
    from repro.scoring.data import load_matrix
    from repro.scoring.gaps import FixedGapModel
    from repro.sequences.fasta import read_fasta
    from repro.sharding.catalog import ShardCatalog

    catalog = ShardCatalog.load(directory)
    matrix = load_matrix(catalog.matrix_name)
    gap_model = FixedGapModel(catalog.gap_penalty)
    database = read_fasta(catalog.database_path(directory), name=catalog.database_name)
    _DIRECTORY_CACHE[directory] = (catalog, database, matrix, gap_model)
    return _DIRECTORY_CACHE[directory]


def _open_shard_search(task: ShardSearchTask) -> "OasisSearch":
    """The worker's lazily opened, cached search over one shard image."""
    directory = os.path.abspath(task.directory)
    key = (
        directory,
        task.shard_index,
        task.buffer_pool_bytes,
        task.simulated_miss_latency,
        task.sleep_on_miss,
    )
    from repro.sharding.catalog import CatalogMismatchError

    # Checked on *every* task, not only on a cache miss: the comparison is a
    # dict/string equality, and it guarantees each answer was produced
    # against the catalog the parent opened.  A mismatch first evicts the
    # worker's caches and reloads once -- a long-lived worker serving a
    # *reopened* engine (shared caller-owned backend) would otherwise be
    # stuck comparing fresh tasks against a stale cached catalog forever.
    # (What none of this can guard is an image file overwritten in place
    # under an engine's open cursors -- that hazard is identical for the
    # in-process paths and for the monolithic engine.)
    catalog, database, matrix, gap_model = _open_directory(directory)
    mismatch = _catalog_mismatch(catalog, task)
    if mismatch is not None:
        _evict_directory(directory)
        catalog, database, matrix, gap_model = _open_directory(directory)
        mismatch = _catalog_mismatch(catalog, task)
        if mismatch is not None:
            raise CatalogMismatchError(
                f"sharded index at {directory} changed on disk: the worker "
                f"loaded a catalog whose {mismatch} differs from the engine "
                "that issued this query -- the index was rebuilt in place "
                "under a live engine; reopen the engine"
            )
    cached = _SHARD_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.core.oasis import OasisSearch
    from repro.sharding.planner import ShardSpec, slice_shard
    from repro.storage.disk_tree import DiskSuffixTree

    entry = catalog.shards[task.shard_index]
    sub_database = slice_shard(
        database,
        ShardSpec(
            index=entry.index,
            start_sequence=entry.start_sequence,
            stop_sequence=entry.stop_sequence,
            residues=entry.residues,
        ),
    )
    cursor = DiskSuffixTree(
        catalog.shard_image_path(directory, entry),
        sub_database,
        buffer_pool_bytes=task.buffer_pool_bytes,
        simulated_miss_latency=task.simulated_miss_latency,
        sleep_on_miss=task.sleep_on_miss,
    )
    # A bare OasisSearch, no SelectivityConverter: the threshold arrives
    # pre-resolved and E-values are the parent's job (they need the global
    # database size).
    search = OasisSearch(cursor, matrix, gap_model)
    _SHARD_CACHE[key] = search
    return search


def _expired(task: ShardSearchTask) -> bool:
    # Epoch comparison: the deadline was translated to wall clock to cross
    # the process boundary.
    return task.deadline_epoch is not None and task.deadline_epoch <= time.time()  # repro: allow[monotonic-time]


def _timed_out_payload() -> dict:
    """The payload of a shard task whose deadline passed before it searched."""
    return {
        "hits": [],
        "statistics": {},
        "timed_out": True,
        "aborted": False,
        "spans": [],
        "metrics": {},
    }


def _pack_alignment(alignment: Optional[Alignment]) -> Optional[tuple]:
    if alignment is None:
        return None
    return (
        alignment.score,
        alignment.query_start,
        alignment.query_end,
        alignment.target_start,
        alignment.target_end,
        alignment.aligned_query,
        alignment.aligned_target,
    )


def unpack_alignment(packed: Optional[tuple]) -> Optional[Alignment]:
    """Parent-side inverse of the worker's alignment packing."""
    if packed is None:
        return None
    return Alignment(*packed)


def run_shard_search(task: ShardSearchTask) -> dict:
    """Worker entry point: run one query over one shard, return plain data.

    The payload mirrors what the in-process path reads off a finished
    :class:`~repro.core.oasis.QueryExecution`: hit tuples (shard-local
    indices, raw scores), the full statistics counters, and the
    timed-out/aborted flags, so the parent can adopt it into the execution
    object it already created and every downstream consumer (shard stats,
    batch aggregates, merged flags) works unchanged.
    """
    # The deadline is re-derived twice: before the lazy shard open (skip
    # the expensive open when the task already expired in the pool queue)
    # and again after it (a cold worker's catalog/FASTA/cursor open must be
    # charged against the query's budget, not granted on top of it --
    # QueryExecution counts its budget from when the search starts).
    if _expired(task):
        return _timed_out_payload()
    search = _open_shard_search(task)
    time_budget: Optional[float] = None
    if task.deadline_epoch is not None:
        # Back from the epoch deadline to a relative budget (worker side).
        time_budget = task.deadline_epoch - time.time()  # repro: allow[monotonic-time]
        if time_budget <= 0:
            return _timed_out_payload()
    tracer = None
    if task.trace is not None:
        tracer = task.trace.tracer()
        instrument = getattr(search.cursor, "instrument", None)
        if instrument is not None:
            instrument(tracer)
    try:
        execution = search.execute(
            task.query,
            min_score=task.min_score,
            max_results=task.max_results,
            compute_alignments=task.compute_alignments,
            time_budget=time_budget,
            tracer=tracer,
        )
        if tracer is not None:
            # The shard span slots under the parent's query span: the ids it
            # was born with (pid-prefixed) stay valid when the parent adopts.
            execution.trace_name = "shard"
            execution.trace_parent = task.trace.parent_id
            execution.trace_attributes = {"shard": task.shard_index, "phase": "shard"}
        result = execution.result()
    finally:
        if tracer is not None:
            instrument = getattr(search.cursor, "instrument", None)
            if instrument is not None:
                instrument(None)
    hits: List[HitTuple] = [
        (
            hit.sequence_index,
            hit.sequence_identifier,
            hit.score,
            _pack_alignment(hit.alignment),
        )
        for hit in result.hits
    ]
    payload = {
        "hits": hits,
        "statistics": execution.statistics.as_dict(),
        "timed_out": execution.timed_out,
        "aborted": execution.aborted,
    }
    if tracer is not None:
        payload["spans"] = [record.to_dict() for record in tracer.records()]
        payload["metrics"] = tracer.metrics.snapshot()
    return payload


def run_shard_build(task: ShardBuildTask) -> str:
    """Worker entry point: build one shard's disk image; returns its name.

    Also the single implementation used by the serial and thread backends
    (the task is then executed in-process), so every backend builds
    byte-identical images through exactly the same code path.
    """
    from repro.storage.builder import build_disk_image
    from repro.suffixtree.partitioned import PartitionedTreeBuilder

    tree = PartitionedTreeBuilder(
        max_partition_size=task.max_partition_size
    ).build(task.sub_database)
    build_disk_image(
        tree,
        os.path.join(task.directory, task.image_name),
        block_size=task.block_size,
    )
    return task.image_name
