"""The benchmark's inputs, its Smith-Waterman oracle and its three workloads.

Inputs.  Every workload searches the ``small`` SWISS-PROT-like database of
the paper-figure experiments (generator seed 7, 84,484 residues) with a pool
of ProClass-like motif queries taken from that configuration's motif
workload, picked at evenly spaced length quantiles so the pool keeps the
workload's length profile (6-56 residues, mean ~16).  The database and the
pool are the same for every ``--seed``; the seed sets the order in which the
client issues the pool, drawn afresh for every pass.  Keeping the query set
fixed is what makes the latency medians repeatable: one query costs from
2 ms to 1.4 s here, and the median and first-hit median of different
24-48-query samples spread by 15-70% of their value, which no bound the
benchmark may set can absorb.  The order still matters where the system has
state: it decides which pages the tight buffer pool holds.

Oracle.  Brute-force Smith-Waterman (:mod:`repro.baselines.smith_waterman`)
gives every pool query's best score per sequence once, outside the timed
runs; it is cached per input digest under ``perfbench/.cache``.  A query
fails when its hits, as ``(sequence_index, score)`` in emission order, differ
from the oracle's hits at the query's threshold in canonical order
(decreasing score, then identifier) -- or their first ``max_results``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.baselines import smith_waterman
from repro.core.engine import OasisEngine
from repro.datagen.motifs import MotifWorkloadGenerator
from repro.datagen.protein import SwissProtLikeGenerator
from repro.exec import BackendSpec
from repro.experiments.common import ExperimentConfig, default_config
from repro.scoring.data import load_matrix
from repro.scoring.gaps import FixedGapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine, ShardedIndexBuilder
from repro.sharding.remote import unpack_alignment
from repro.storage import builder as storage_builder
from repro.storage.disk_tree import DiskSuffixTree
from repro.suffixtree.generalized import GeneralizedSuffixTree

#: Pool size per scale: a pass over the pool is the unit every counter is
#: reported per, so it must fit in one run's measuring window.
POOL_SIZE = {"tiny": 8, "small": 16}

Hit = Tuple[int, int]  # (sequence_index, score)


@dataclass
class Dataset:
    config: ExperimentConfig
    database: SequenceDatabase
    queries: List[str]
    matrix: SubstitutionMatrix
    gap_model: FixedGapModel

    @property
    def evalue(self) -> float:
        """The paper's E = 20,000 scaled to this database (Equation 3)."""
        return self.config.effective_evalue(self.database.total_symbols)

    def digest(self) -> str:
        text = "\n".join(
            [self.matrix.name, str(self.gap_model.per_symbol)]
            + [f"{record.identifier} {record.text}" for record in self.database]
            + ["#"]
            + self.queries
        )
        return hashlib.sha256(text.encode()).hexdigest()


def _length_profile(texts: List[str], size: int) -> List[str]:
    """``size`` texts at evenly spaced quantiles of length."""
    ordered = sorted(texts, key=lambda text: (len(text), text))
    if size >= len(ordered):
        return ordered
    return [ordered[(2 * index + 1) * len(ordered) // (2 * size)] for index in range(size)]


def make_dataset(scale: str = "small") -> Dataset:
    config = default_config(scale)
    preset = config.preset()
    generator = SwissProtLikeGenerator(
        seed=config.seed,
        family_count=preset["family_count"],
        members_per_family=(preset["members_low"], preset["members_high"]),
        ancestor_length=(preset["ancestor_low"], preset["ancestor_high"]),
        singleton_count=preset["singleton_count"],
        singleton_length=(preset["singleton_low"], preset["singleton_high"]),
    )
    database = generator.generate()
    motifs = MotifWorkloadGenerator(
        generator,
        seed=config.seed + 1,
        query_count=config.effective_query_count(),
        length_range=config.query_length_range,
        mean_length=config.query_mean_length,
    ).generate()
    # Keep the workload's share of random negative-control peptides.
    size = POOL_SIZE[scale]
    controls = [query.text for query in motifs if query.source_family is None]
    family = [query.text for query in motifs if query.source_family is not None]
    control_count = round(size * len(controls) / len(motifs))
    return Dataset(
        config=config,
        database=database,
        queries=_length_profile(family, size - control_count)
        + _length_profile(controls, control_count),
        matrix=load_matrix(config.matrix_name),
        gap_model=FixedGapModel(config.gap_penalty),
    )


class Oracle:
    """Every pool query's best Smith-Waterman score per sequence."""

    def __init__(self, database: SequenceDatabase, scores: Dict[str, List[Hit]]):
        identifiers = [record.identifier for record in database]
        self._ranked = {
            query: sorted(hits, key=lambda hit: (-hit[1], identifiers[hit[0]]))
            for query, hits in scores.items()
        }

    def expected(self, query: str, min_score: int, limit: Optional[int] = None) -> List[Hit]:
        hits = [hit for hit in self._ranked[query] if hit[1] >= min_score]
        return hits if limit is None else hits[:limit]

    @classmethod
    def load(cls, dataset: Dataset, cache_dir: str) -> "Oracle":
        source = inspect.getsource(smith_waterman).encode()
        key = hashlib.sha256(dataset.digest().encode() + source).hexdigest()[:20]
        path = os.path.join(cache_dir, f"oracle-{key}.json")
        if os.path.exists(path):
            with open(path) as handle:
                scores = {query: [tuple(hit) for hit in hits] for query, hits in json.load(handle).items()}
            return cls(dataset.database, scores)
        aligner = smith_waterman.SmithWatermanAligner(dataset.matrix, dataset.gap_model)
        scores = {}
        for query in dataset.queries:
            result = aligner.search(dataset.database, query, min_score=1)
            scores[query] = [(hit.sequence_index, hit.score) for hit in result.hits]
        os.makedirs(cache_dir, exist_ok=True)
        partial = f"{path}.{os.getpid()}"
        with open(partial, "w") as handle:
            json.dump(scores, handle)
        os.replace(partial, path)
        return cls(dataset.database, scores)


@dataclass
class Outcome:
    """One query as the client saw it."""

    query: str
    seconds: float
    first_hit_seconds: Optional[float]
    hits: List[Hit]
    statistics: object
    timed_out: bool = False
    #: Worker-reported busy seconds per shard (sharded workload only).
    shard_seconds: List[float] = field(default_factory=list)
    #: Calibration probes timed just before and just after the query
    #: (:mod:`perfbench.calibrate`); the client sets them.
    probes: Tuple[float, ...] = ()


class LocalSession:
    """A monolithic engine; the client drains each query's hit stream."""

    in_process = True

    def __init__(self, engine: OasisEngine, index_bytes: int = 0, block_size: int = 0):
        self.engine = engine
        self.index_bytes = index_bytes
        self.block_size = block_size
        self.worker_start_seconds = 0.0

    def min_score(self, query: str, evalue: float) -> int:
        return self.engine.min_score_for(query, evalue)

    def query(self, query: str, evalue: float, max_results: Optional[int]) -> Outcome:
        start = perf_counter()
        execution = self.engine.execute(query, evalue=evalue, max_results=max_results)
        first = None
        hits = []
        for hit in execution:
            if first is None:
                first = perf_counter() - start
            hits.append((hit.sequence_index, hit.score))
        seconds = perf_counter() - start
        return Outcome(query, seconds, first, hits, execution.statistics, execution.timed_out)

    def close(self) -> None:
        close = getattr(self.engine.cursor, "close", None)
        if close is not None:
            close()


class ShardedSession:
    """A persistent sharded index scattered over worker processes."""

    in_process = False

    def __init__(self, engine: ShardedEngine, backend, index_bytes: int, worker_start: float):
        self.engine = engine
        self.backend = backend
        self.index_bytes = index_bytes
        self.block_size = engine.catalog.block_size
        self.worker_start_seconds = worker_start

    def min_score(self, query: str, evalue: float) -> int:
        return self.engine.min_score_for(query, evalue)

    def query(self, query: str, evalue: float, max_results: Optional[int]) -> Outcome:
        start = perf_counter()
        result = self.engine.execute(query, evalue=evalue, max_results=max_results).result()
        seconds = perf_counter() - start
        hits = [(hit.sequence_index, hit.score) for hit in result.hits]
        return Outcome(
            query,
            seconds,
            seconds if hits else None,
            hits,
            result.statistics,
            bool(result.parameters.get("timed_out")),
            [shard["elapsed_seconds"] for shard in result.parameters["shard_stats"]],
        )

    def close(self) -> None:
        try:
            self.engine.close()
        finally:
            self.backend.close()


def _directory_bytes(directory: str, suffix: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.endswith(suffix)
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: Calibrated seconds (:mod:`perfbench.calibrate`) one pass over the
    #: ``small`` pool took at the commit that defined the benchmark.  It
    #: turns ``--seconds`` into a whole number of passes, so every run
    #: measures the same queries however fast the program has become.
    pass_seconds: float
    evalue_factor: float = 1.0
    max_results: Optional[int] = None

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    def setup(self, dataset: Dataset, workdir: str):
        """Generated inputs to a ready engine (the span ``setup_s`` times)."""
        raise NotImplementedError


class MemMotif(Workload):
    """In-memory tree: the kernel and the driver do all the work, storage and sharding none."""

    def setup(self, dataset: Dataset, workdir: str) -> LocalSession:
        return LocalSession(OasisEngine.build(dataset.database, dataset.matrix, dataset.gap_model))


class DiskTightPool(Workload):
    """The Section 3.4 disk image with a pool of 1/8 of it: mem-motif's search work plus misses."""

    #: The buffer pool is 1/POOL_SHARE of the image, so the storage layer
    #: misses and evicts on every pass.
    POOL_SHARE = 8

    def setup(self, dataset: Dataset, workdir: str) -> LocalSession:
        tree = GeneralizedSuffixTree.build(dataset.database)
        path = os.path.join(workdir, "index.oasis")
        layout = storage_builder.build_disk_image(tree, path)
        del tree
        image_bytes = os.path.getsize(path)
        cursor = DiskSuffixTree(
            path, dataset.database, buffer_pool_bytes=image_bytes // self.POOL_SHARE
        )
        engine = OasisEngine(cursor, dataset.matrix, dataset.gap_model)
        return LocalSession(engine, image_bytes, layout.block_size)


class ShardedTopK(Workload):
    """2-shard catalog on 2 worker processes, E x100, max_results=10: scatter, IPC, merge, early stop."""

    SHARDS = 2
    BACKEND = "processes:2"

    def setup(self, dataset: Dataset, workdir: str) -> ShardedSession:
        directory = os.path.join(workdir, "catalog")
        ShardedIndexBuilder(dataset.matrix, dataset.gap_model, shard_count=self.SHARDS).build(
            dataset.database, directory
        )
        backend = BackendSpec.parse(self.BACKEND).create()
        try:
            start = perf_counter()
            # Both workers spawn and import the program now, not inside the
            # first query; unpickling the task's function does the import.
            started = [backend.submit(unpack_alignment, None) for _ in range(backend.workers)]
            for future in started:
                future.result()
            worker_start = perf_counter() - start
            engine = ShardedEngine.open(
                directory,
                database=dataset.database,
                matrix=dataset.matrix,
                gap_model=dataset.gap_model,
                backend=backend,
            )
        except BaseException:
            backend.close()
            raise
        return ShardedSession(engine, backend, _directory_bytes(directory, ".oasis"), worker_start)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        MemMotif("mem-motif", pass_seconds=6.0),
        DiskTightPool("disk-tight-pool", pass_seconds=9.5),
        ShardedTopK(
            "sharded-topk",
            pass_seconds=5.4,
            evalue_factor=100.0,
            max_results=10,
        ),
    )
}


def fresh_workdir(root: str) -> str:
    path = os.path.join(root, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
