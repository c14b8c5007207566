"""Kernel parity: the production kernel is an exact drop-in for the reference.

The kernel layer's whole contract is "speed only": the production
(sibling-batched) kernel must produce byte-identical hits, identical node
states, and identical work counters versus the unmodified reference
implementation -- across randomized databases and workloads
(``repro.datagen``) and the mem/disk/sharded engine configurations.  The
pruning-rule ablations and per-rule tallies run on the reference, which
``OasisSearch`` picks for them from its configuration; they must return the
same hits.  These are property tests over seeds, not worked examples: a
kernel that diverges on *any* searched node fails here.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.core.oasis as oasis_module
from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.engine import OasisEngine
from repro.core.expand import ExpansionContext
from repro.core.kernels import BatchedKernel, ReferenceKernel, get_kernel
from repro.core.oasis import FRONTIER_NODES, OasisSearch, OasisSearchStatistics
from repro.core.results import hit_order_key
from repro.core.search_node import NodeState, SearchNode
from repro.datagen import MotifWorkloadGenerator, SwissProtLikeGenerator
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine, ShardedIndexBuilder
from repro.sharding.engine import ShardedQueryExecution
from repro.suffixtree.generalized import GeneralizedSuffixTree

#: The kernels held to the reference, named in the test ids by kernel name.
KERNELS = [get_kernel()]
SEEDS = [3, 11, 29]
#: Symbols (residues and the terminator) a sibling set can start with.
SYMBOL_COUNT = pam30().lookup.shape[0]
#: Every configuration the production kernel does not run: a rule off, or
#: per-rule tallies on.
GENERAL_SWITCHES = [
    {"prune_non_positive": False},
    {"prune_dominated": False},
    {"prune_threshold": False},
    {"prune_dominated": False, "prune_threshold": False},
    {
        "prune_non_positive": False,
        "prune_dominated": False,
        "prune_threshold": False,
    },
]


def kernel_id(kernel):
    return kernel.name


def small_dataset(seed):
    """A randomized database + workload pair, deterministic per seed."""
    generator = SwissProtLikeGenerator(
        seed=seed,
        family_count=4,
        members_per_family=(2, 4),
        ancestor_length=(40, 90),
        singleton_count=6,
        singleton_length=(10, 60),
    )
    database = generator.generate()
    workload = MotifWorkloadGenerator(
        generator, seed=seed + 1, query_count=6, length_range=(6, 20)
    ).generate()
    return database, [query.text for query in workload]


def run_searches(database, queries, kernel=None, min_score=35, **switches):
    """Hits, work counters and kernel names of one search configuration."""
    tree = GeneralizedSuffixTree.build(database)
    search = OasisSearch(
        tree, pam30(), FixedGapModel(-8), kernel=kernel, **switches
    )
    signatures = []
    counters = []
    kernels = set()
    for query in queries:
        result = search.search(query, min_score=min_score)
        signatures.append(
            [(hit.sequence_index, hit.sequence_identifier, hit.score) for hit in result]
        )
        statistics = result.statistics
        counters.append(
            {
                "columns_expanded": statistics.columns_expanded,
                "nodes_expanded": statistics.nodes_expanded,
                "nodes_enqueued": statistics.nodes_enqueued,
                "nodes_accepted": statistics.nodes_accepted,
                "nodes_pruned": statistics.nodes_pruned,
                "max_queue_size": statistics.max_queue_size,
                "pruned_non_positive": statistics.pruned_non_positive,
                "pruned_dominated": statistics.pruned_dominated,
                "pruned_threshold": statistics.pruned_threshold,
            }
        )
        kernels.add(statistics.kernel)
    return signatures, counters, kernels


class TestFuzzedSearchParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
    def test_hits_and_counters_match_reference(self, seed, kernel):
        database, queries = small_dataset(seed)
        expected, expected_counters, _ = run_searches(
            database, queries, ReferenceKernel()
        )
        actual, actual_counters, kernels = run_searches(database, queries, kernel)
        assert actual == expected
        assert actual_counters == expected_counters
        assert kernels == {kernel.name}

    @pytest.mark.parametrize("switches", GENERAL_SWITCHES)
    @pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
    def test_rule_ablations_match_reference(self, kernel, switches):
        # Each ablation runs on the kernel the configuration selects (the
        # reference) and must return exactly the hits of the all-rules run.
        database, queries = small_dataset(7)
        expected, _, _ = run_searches(database, queries, kernel)
        actual, _, kernels = run_searches(database, queries, **switches)
        assert actual == expected
        assert kernels == {"reference"}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tracked_pruning_matches_untracked_hits(self, seed):
        database, queries = small_dataset(seed)
        expected, expected_counters, _ = run_searches(database, queries)
        actual, actual_counters, kernels = run_searches(
            database, queries, track_pruning=True
        )
        assert actual == expected
        assert kernels == {"reference"}
        tallies = ("pruned_non_positive", "pruned_dominated", "pruned_threshold")
        for untracked, tracked in zip(expected_counters, actual_counters):
            assert {k: v for k, v in tracked.items() if k not in tallies} == {
                k: v for k, v in untracked.items() if k not in tallies
            }
        assert sum(counters["pruned_non_positive"] for counters in actual_counters) > 0


def node_signature(node: SearchNode):
    return (
        node.state,
        node.f,
        node.b,
        node.max_score,
        node.depth,
        None if node.column is None else node.column.tolist(),
    )


def root_node(cursor, execution):
    return SearchNode(
        tree_node=cursor.root,
        column=execution.context.make_root_column(),
        max_score=0,
        f=int(execution.heuristic.max()),
        b=0,
        state=NodeState.VIABLE,
        depth=0,
    )


def siblings_of(cursor, node):
    return [
        (child, cursor.arc_symbols(child), cursor.is_leaf(child))
        for child in cursor.children(node.tree_node)
    ]


def level_walk(cursor, query, kernel, min_score=30, track=False):
    """Expand whole BFS levels, each as one multi-parent frontier.

    Returns the largest row count of a frontier and of one parent in it;
    every level's children are compared signature by signature
    (column bytes included) against the reference, parent by parent in
    child order.
    """
    matrix = pam30()
    gap_model = FixedGapModel(-8)
    reference = OasisSearch(
        cursor, matrix, gap_model, kernel=ReferenceKernel(), track_pruning=track
    ).execute(query, min_score=min_score)
    subject = OasisSearch(cursor, matrix, gap_model, kernel=kernel).execute(
        query, min_score=min_score
    )
    level = [root_node(cursor, reference)]
    widest = widest_parent = 0
    depth = 0
    while level:
        frontier = [(node, siblings_of(cursor, node)) for node in level]
        widest = max(widest, sum(len(siblings) for _, siblings in frontier))
        widest_parent = max([widest_parent] + [len(siblings) for _, siblings in frontier])
        expected = ReferenceKernel().expand_children(
            [(node, iter(siblings)) for node, siblings in frontier], reference.context
        )
        actual = kernel.expand_children(
            [(node, iter(siblings)) for node, siblings in frontier], subject.context
        )
        assert [node_signature(child) for child in actual] == [
            node_signature(child) for child in expected
        ]
        level = [child for child in expected if child.is_viable]
        depth += 1
    assert depth > 1  # the walk went below the root
    assert subject.context.columns_expanded == reference.context.columns_expanded
    return widest, widest_parent


class TestNodeLevelParity:
    """BFS over the tree comparing every expanded node, kernel vs reference.

    Stronger than hit parity: the search only ever *visits* nodes the
    frontier reaches, while this walks the expansion of every VIABLE node
    encountered breadth-first, so a divergence in any field of any child --
    including UNVIABLE ones the driver would immediately drop -- fails.
    ``track`` switches the reference's per-rule tally on, which must not
    change a single node.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
    @pytest.mark.parametrize("track", [False, True])
    def test_expand_children_matches_reference(self, seed, kernel, track):
        # One node at a time: a one-parent frontier per expansion.
        database, queries = small_dataset(seed)
        cursor = GeneralizedSuffixTree.build(database)
        matrix = pam30()
        gap_model = FixedGapModel(-8)
        query = queries[0]
        reference_search = OasisSearch(
            cursor, matrix, gap_model, kernel=ReferenceKernel(), track_pruning=track
        )
        subject_search = OasisSearch(cursor, matrix, gap_model, kernel=kernel)
        reference_exec = reference_search.execute(query, min_score=30)
        subject_exec = subject_search.execute(query, min_score=30)

        frontier = [root_node(cursor, reference_exec)]
        expanded = 0
        while frontier and expanded < 200:
            node = frontier.pop(0)
            siblings = siblings_of(cursor, node)
            expected = reference_search.kernel.expand_children(
                [(node, iter(siblings))], reference_exec.context
            )
            actual = kernel.expand_children([(node, iter(siblings))], subject_exec.context)
            assert [node_signature(child) for child in actual] == [
                node_signature(child) for child in expected
            ]
            expanded += 1
            frontier.extend(child for child in expected if child.is_viable)
        assert expanded > 1  # the walk actually exercised expansions
        # The per-column work agrees exactly.
        assert (
            subject_exec.context.columns_expanded
            == reference_exec.context.columns_expanded
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
    @pytest.mark.parametrize("track", [False, True])
    def test_bfs_level_as_one_frontier_matches_reference(self, seed, kernel, track):
        database, queries = small_dataset(seed)
        cursor = GeneralizedSuffixTree.build(database)
        widest = max(
            level_walk(cursor, query, kernel, track=track)[0] for query in queries[:3]
        )
        # Whole levels are wider than any sibling set can be.
        assert widest > SYMBOL_COUNT

    @pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
    def test_many_terminator_children_in_one_frontier(self, kernel):
        # Forty copies of one sequence: the node spelling any of its
        # suffixes has forty terminator leaves, all starting with the same
        # symbol -- more rows from one parent than the alphabet has symbols.
        database = SequenceDatabase.from_texts(
            ["MKVLATWHG"] * 40 + ["MKVQATWHE", "PLKVLCCAG"]
        )
        cursor = GeneralizedSuffixTree.build(database)
        # The query runs past the repeat, so the nodes above the terminator
        # leaves stay VIABLE and are expanded.
        _, widest_parent = level_walk(cursor, "MKVLATWHGMKV", kernel, min_score=20)
        assert widest_parent > SYMBOL_COUNT

    @pytest.mark.parametrize("kernel", [get_kernel(), ReferenceKernel()], ids=kernel_id)
    def test_discarded_column_inside_a_frontier_is_rejected(self, kernel):
        database, queries = small_dataset(5)
        cursor = GeneralizedSuffixTree.build(database)
        execution = OasisSearch(cursor, pam30(), kernel=kernel).execute(
            queries[0], min_score=30
        )
        root = root_node(cursor, execution)
        dead = SearchNode(cursor.root, None, 0, 0, 0, NodeState.ACCEPTED, depth=0)
        frontier = [
            (root, iter(siblings_of(cursor, root))),
            (dead, iter(siblings_of(cursor, root))),
        ]
        with pytest.raises(ValueError, match="discarded"):
            kernel.expand_children(frontier, execution.context)


#: The work counters a full drain fixes regardless of expansion order.
WORK_COUNTERS = (
    "columns_expanded",
    "nodes_expanded",
    "nodes_enqueued",
    "nodes_pruned",
    "nodes_accepted",
)


def reachable_work(cursor, query, min_score):
    """Work counters of expanding every VIABLE node reachable from the root.

    A test-side walk with the reference kernel, one node at a time in
    depth-first order -- an order no search driver uses.  Pruning is local
    to a path, so a search that drains its queue must do exactly this work.
    """
    execution = OasisSearch(
        cursor, pam30(), FixedGapModel(-8), kernel=ReferenceKernel()
    ).execute(query, min_score=min_score)
    counters = dict.fromkeys(WORK_COUNTERS, 0)
    stack = [root_node(cursor, execution)]
    kernel = ReferenceKernel()
    while stack:
        node = stack.pop()
        counters["nodes_expanded"] += 1
        frontier = [(node, siblings_of(cursor, node))]
        for child in kernel.expand_children(frontier, execution.context):
            if child.is_unviable:
                counters["nodes_pruned"] += 1
                continue
            counters["nodes_enqueued"] += 1
            if child.is_accepted:
                counters["nodes_accepted"] += 1
            else:
                stack.append(child)
    counters["columns_expanded"] = execution.context.columns_expanded
    return counters


def hit_pairs(hits):
    return [(hit.sequence_index, hit.score) for hit in hits]


def assert_canonical_prefix(emitted, full):
    """Emitted in canonical order, and a canonical prefix of the full run."""
    assert sorted(emitted, key=hit_order_key) == emitted
    assert hit_pairs(emitted) == hit_pairs(full)[: len(emitted)]


class TestFrontierWorkCounters:
    """Where frontier batching may move the work counters, and where not."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", [get_kernel(), ReferenceKernel()], ids=kernel_id)
    def test_full_drain_does_exactly_the_reachable_work(self, seed, kernel):
        database, queries = small_dataset(seed)
        cursor = GeneralizedSuffixTree.build(database)
        search = OasisSearch(cursor, pam30(), FixedGapModel(-8), kernel=kernel)
        for query in queries:
            result = search.search(query, min_score=35)
            # Short of full coverage, so nothing stopped the drain early.
            assert len(result.hits) < len(database)
            statistics = result.statistics.as_dict()
            assert {name: statistics[name] for name in WORK_COUNTERS} == reachable_work(
                cursor, query, 35
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_frontier_makeup_depends_on_the_queue_only(self, seed):
        # Every frontier is a run of VIABLE nodes in decreasing f, never
        # below a buffered hit's score, and never wider than FRONTIER_NODES
        # nor than the nodes expanded before it.
        database, queries = small_dataset(seed)
        cursor = GeneralizedSuffixTree.build(database)
        kernel = RecordingKernel()
        search = OasisSearch(cursor, pam30(), FixedGapModel(-8), kernel=kernel)
        for query in queries:
            kernel.widths.clear()
            result = search.search(query, min_score=35)
            assert sum(kernel.widths) == result.statistics.nodes_expanded
            expanded = 0
            for width in kernel.widths:
                assert 1 <= width <= max(1, min(FRONTIER_NODES, expanded))
                expanded += width
        assert kernel.widest == FRONTIER_NODES
        assert kernel.all_viable and kernel.decreasing and kernel.above_pending
        assert kernel.held_back  # the buffered-score stop was exercised

    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_results_emits_the_canonical_prefix(self, seed):
        database, queries = small_dataset(seed)
        cursor = GeneralizedSuffixTree.build(database)
        search = OasisSearch(cursor, pam30(), FixedGapModel(-8))
        truncated = 0
        for query in queries:
            full = search.search(query, min_score=35)
            for limit in (1, 2, 5):
                execution = search.execute(query, min_score=35, max_results=limit)
                emitted = list(execution)
                assert len(emitted) == min(limit, len(full.hits))
                assert_canonical_prefix(emitted, full.hits)
                assert (
                    execution.statistics.columns_expanded
                    <= full.statistics.columns_expanded
                )
                truncated += len(full.hits) > limit
        assert truncated  # some run really stopped early

    def test_full_coverage_stops_with_every_hit(self):
        # A threshold every sequence reaches: the search stops as soon as the
        # last sequence is reported, before the queue drains.
        database, queries = small_dataset(3)
        cursor = GeneralizedSuffixTree.build(database)
        search = OasisSearch(cursor, pam30(), FixedGapModel(-8))
        brute_force = SmithWatermanAligner(pam30(), FixedGapModel(-8))
        for query in queries:
            execution = search.execute(query, min_score=8)
            emitted = list(execution)
            expected = brute_force.search(database, query, min_score=8).hits
            assert len(emitted) == len(database)
            assert hit_pairs(emitted) == hit_pairs(sorted(expected, key=hit_order_key))
            assert_canonical_prefix(emitted, emitted)
            full = reachable_work(cursor, query, 8)
            assert execution.statistics.columns_expanded <= full["columns_expanded"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_time_budget_emits_a_canonical_prefix(self, seed, monkeypatch):
        database, queries = small_dataset(seed)
        cursor = GeneralizedSuffixTree.build(database)
        search = OasisSearch(cursor, pam30(), FixedGapModel(-8))
        cut = 0
        for query in queries:
            full = search.search(query, min_score=35)
            for budget in (5, 20, 80, 320):
                # The driver's clock advances one second per reading, so the
                # budget expires after a fixed number of queue pops.
                monkeypatch.setattr(oasis_module, "time", TickingClock())
                execution = search.execute(query, min_score=35, time_budget=budget)
                emitted = list(execution)
                monkeypatch.undo()
                cut += execution.timed_out and 0 < len(emitted) < len(full.hits)
                assert sorted(emitted, key=hit_order_key) == emitted
                # Every score level above the last one emitted is complete;
                # the last level, cut by the clock, is a subset of the full
                # run's.
                if emitted:
                    last = emitted[-1].score
                    above = [hit for hit in emitted if hit.score > last]
                    assert_canonical_prefix(above, full.hits)
                    assert set(hit_pairs(emitted)) <= set(hit_pairs(full.hits))
                assert (
                    execution.statistics.columns_expanded
                    <= full.statistics.columns_expanded
                )
        assert cut  # some budget really cut a hit stream short


class RecordingKernel(BatchedKernel):
    """The production kernel, checking the makeup of every frontier it gets.

    It reads the driver's buffered hits (``pending``) and queue from the
    calling frame: no frontier member may fall below a buffered hit's
    score, and ``held_back`` counts the frontiers that stopped short
    because the queue's VIABLE head did.
    """

    def __init__(self):
        self.widths = []
        self.widest = 0
        self.held_back = 0
        self.all_viable = self.decreasing = self.above_pending = True

    def expand_children(self, frontier, context):
        driver = inspect.currentframe().f_back.f_locals
        parents = [parent for parent, _ in frontier]
        self.widths.append(len(parents))
        self.widest = max(self.widest, len(parents))
        self.all_viable &= all(parent.is_viable for parent in parents)
        bounds = [parent.f for parent in parents]
        self.decreasing &= bounds == sorted(bounds, reverse=True)
        if driver["pending"]:
            score = driver["pending"][0].score
            self.above_pending &= min(bounds) >= score
            queue = driver["queue"]
            self.held_back += bool(queue) and queue[0][-1].is_viable and (
                queue[0][-1].f < score and len(parents) < driver["width"]
            )
        return super().expand_children(frontier, context)


class TickingClock:
    """Stands in for the driver's ``time`` module: each reading is one tick."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


class TestEngineParity:
    @pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
    def test_disk_and_sharded_engines_match_memory(self, tmp_path, kernel):
        database, queries = small_dataset(17)
        matrix = pam30()
        gap_model = FixedGapModel(-8)
        memory = OasisEngine.build(database, matrix=matrix, gap_model=gap_model)
        reference = OasisSearch(
            memory.cursor, matrix, gap_model, kernel=ReferenceKernel()
        )
        disk = OasisEngine.build_on_disk(
            database,
            matrix,
            tmp_path / "image.oasis",
            gap_model=gap_model,
        )
        sharded = ShardedEngine.build(database, matrix, gap_model, shard_count=3)
        try:
            for query in queries[:3]:
                min_score = memory.converter.min_score_for_evalue(1_000.0, len(query))
                expected = [
                    (hit.sequence_index, hit.score)
                    for hit in reference.search(query, min_score=min_score)
                ]
                evalues = [hit.evalue for hit in memory.search(query, evalue=1_000.0)]
                for engine in (memory, disk, sharded):
                    result = engine.search(query, evalue=1_000.0)
                    assert [(hit.sequence_index, hit.score) for hit in result] == expected
                    assert [hit.evalue for hit in result] == evalues
                    assert result.statistics.kernel == kernel.name
        finally:
            disk.cursor.close()
            sharded.close()


class TestKernelSelection:
    """The kernel is derived from the search configuration, never selected by name."""

    def test_default_is_the_production_kernel(self):
        database, _ = small_dataset(5)
        search = OasisSearch(GeneralizedSuffixTree.build(database), pam30())
        assert isinstance(get_kernel(), BatchedKernel)
        assert type(search.kernel) is type(get_kernel())

    @pytest.mark.parametrize(
        "switches", GENERAL_SWITCHES + [{"track_pruning": True}]
    )
    def test_general_configuration_selects_the_reference(self, switches):
        database, _ = small_dataset(5)
        search = OasisSearch(GeneralizedSuffixTree.build(database), pam30(), **switches)
        assert isinstance(search.kernel, ReferenceKernel)

    @pytest.mark.parametrize(
        "switches", GENERAL_SWITCHES + [{"track_pruning": True}]
    )
    def test_production_kernel_rejects_a_general_configuration(self, switches):
        database, _ = small_dataset(5)
        with pytest.raises(ValueError, match="all-rules"):
            OasisSearch(
                GeneralizedSuffixTree.build(database),
                pam30(),
                kernel=get_kernel(),
                **switches,
            )

    def test_instance_passes_through(self):
        database, _ = small_dataset(5)
        tree = GeneralizedSuffixTree.build(database)
        for kernel in (get_kernel(), ReferenceKernel()):
            assert OasisSearch(tree, pam30(), kernel=kernel).kernel is kernel
        reference = ReferenceKernel()
        search = OasisSearch(tree, pam30(), kernel=reference, prune_dominated=False)
        assert search.kernel is reference

    def test_unknown_name_is_rejected(self):
        # Kernels are instances, not names: no string selects one.
        database, _ = small_dataset(5)
        with pytest.raises(TypeError, match="ExpansionKernel"):
            OasisSearch(GeneralizedSuffixTree.build(database), pam30(), kernel="batched")

    def test_statistics_record_the_kernel(self):
        database, queries = small_dataset(5)
        engine = OasisEngine.build(database, matrix=pam30())
        result = engine.search(queries[0], evalue=1_000.0)
        assert result.statistics.kernel == "batched"
        assert result.statistics.as_dict()["kernel"] == "batched"
        ablated = OasisSearch(engine.cursor, pam30(), prune_threshold=False)
        result = ablated.search(queries[0], min_score=35)
        assert result.statistics.kernel == "reference"

    def test_statistics_default_names_the_production_kernel(self):
        database, _ = small_dataset(5)
        production = get_kernel().name
        assert OasisSearchStatistics().kernel == production
        # Before any query, a search reports the kernel it will run.
        tree = GeneralizedSuffixTree.build(database)
        assert OasisSearch(tree, pam30()).statistics.kernel == production
        ablated = OasisSearch(tree, pam30(), prune_dominated=False)
        assert ablated.statistics.kernel == "reference"
        # A sharded merge over no shard executions falls back to it too.
        merged = ShardedQueryExecution(None, [], "MKV", max_results=None)
        assert merged.statistics.kernel == production

    def test_every_engine_and_backend_reports_the_production_kernel(self, tmp_path):
        database, queries = small_dataset(5)
        matrix = pam30()
        gap_model = FixedGapModel(-8)
        ShardedIndexBuilder(matrix, gap_model, shard_count=2).build(
            database, tmp_path / "index"
        )
        memory = OasisEngine.build(database, matrix=matrix, gap_model=gap_model)
        disk = OasisEngine.build_on_disk(
            database, matrix, tmp_path / "image.oasis", gap_model=gap_model
        )
        threads = ShardedEngine.build(
            database, matrix, gap_model, shard_count=2, backend="threads:2"
        )
        processes = ShardedEngine.open(tmp_path / "index", backend="processes:2")
        try:
            for engine in (memory, disk, threads, processes):
                result = engine.search(queries[0], evalue=1_000.0)
                assert result.statistics.kernel == "batched"
        finally:
            disk.cursor.close()
            threads.close()
            processes.close()

    def test_expanding_a_discarded_column_is_rejected(self):
        database, _ = small_dataset(5)
        cursor = GeneralizedSuffixTree.build(database)
        context = ExpansionContext(
            query_codes=np.array([0, 1, 2], dtype=np.int64),
            score_lookup=pam30().lookup,
            gap_penalty=-8,
            heuristic=np.zeros(4, dtype=np.int64),
            min_score=10,
        )
        dead = SearchNode(
            tree_node=cursor.root,
            column=None,
            max_score=0,
            f=0,
            b=0,
            state=NodeState.UNVIABLE,
            depth=0,
        )
        children = [
            (child, cursor.arc_symbols(child), cursor.is_leaf(child))
            for child in cursor.children(cursor.root)
        ]
        for kernel in (get_kernel(), ReferenceKernel()):
            with pytest.raises(ValueError, match="discarded"):
                kernel.expand_arc(dead, *children[0], context)
            with pytest.raises(ValueError, match="discarded"):
                kernel.expand_children([(dead, iter(children))], context)
