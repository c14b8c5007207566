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

import numpy as np
import pytest

from repro.core.engine import OasisEngine
from repro.core.expand import ExpansionContext
from repro.core.kernels import BatchedKernel, ReferenceKernel, get_kernel
from repro.core.oasis import OasisSearch, OasisSearchStatistics
from repro.core.search_node import NodeState, SearchNode
from repro.datagen import MotifWorkloadGenerator, SwissProtLikeGenerator
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sharding import ShardedEngine, ShardedIndexBuilder
from repro.sharding.engine import ShardedQueryExecution
from repro.suffixtree.generalized import GeneralizedSuffixTree

#: The kernels held to the reference, named in the test ids by kernel name.
KERNELS = [get_kernel()]
SEEDS = [3, 11, 29]
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

        root = SearchNode(
            tree_node=cursor.root,
            column=reference_exec.context.make_root_column(),
            max_score=0,
            f=int(reference_exec.heuristic.max()),
            b=0,
            state=NodeState.VIABLE,
            depth=0,
        )
        frontier = [root]
        expanded = 0
        while frontier and expanded < 200:
            node = frontier.pop(0)
            siblings = [
                (child, cursor.arc_symbols(child), cursor.is_leaf(child))
                for child in cursor.children(node.tree_node)
            ]
            expected = reference_search.kernel.expand_children(
                node, iter(siblings), reference_exec.context
            )
            actual = kernel.expand_children(node, iter(siblings), subject_exec.context)
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
                kernel.expand_children(dead, iter(children), context)
