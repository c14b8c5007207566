"""Benchmark: expansion-kernel A/B -- the production kernel vs the reference.

The kernel layer (``repro.core.kernels``) exists for exactly one number:
CPU-bound search time.  This benchmark runs the same workload over the same
in-memory suffix tree under both kernels and records the speedup:

* ``reference`` -- the original per-column implementation (per-column
  ``np.empty_like``, double ``.max()`` reduction, unconditional mask
  writes), the parity oracle the speedup is measured against;
* ``batched`` -- the production kernel: sibling-batched first columns over
  preallocated scratch, survivors through an allocation-free column loop.

Parity is asserted *always*, even in smoke mode: byte-identical hits and
identical ``columns_expanded`` across kernels -- the speedup is only
meaningful if the kernels did the same work.  The speedup floor is
asserted only on real (non-smoke) runs on a quiet machine.
"""

from __future__ import annotations

import statistics
import time

from repro.core.kernels import ReferenceKernel
from repro.core.oasis import OasisSearch
from repro.experiments.common import build_protein_dataset
from repro.testing import smoke_mode

#: Queries per timed pass (CPU-bound: in-memory tree, serial engine).
QUERY_COUNT = 12
#: Timed passes per kernel; the reported statistic is their median.
REPEATS = 5
#: Acceptance floor for the production kernel vs the reference.
BATCHED_SPEEDUP_FLOOR = 1.3
#: Below this the medians are timer noise, not signal; skip the asserts.
MIN_COMPARABLE_SECONDS = 0.05

KERNELS = ("reference", "batched")


def _hit_signature(result):
    return [(hit.sequence_index, hit.sequence_identifier, hit.score) for hit in result]


def _time_workload(search, workload) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for query, min_score in workload:
            search.search(query, min_score=min_score)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_bench_expand_kernel_ab(config, bench_record):
    dataset = build_protein_dataset(config)
    queries = [query.text for query in dataset.workload][:QUERY_COUNT]
    evalue = config.effective_evalue(dataset.database_symbols)
    base = dataset.engine
    workload = [
        (query, base.converter.min_score_for_evalue(evalue, len(query)))
        for query in queries
    ]

    # Two searches over ONE shared tree: the A/B isolates the kernel, not
    # index construction or cache state.
    searches = {
        "reference": OasisSearch(
            base.cursor, base.matrix, base.gap_model, kernel=ReferenceKernel()
        ),
        "batched": OasisSearch(base.cursor, base.matrix, base.gap_model),
    }

    # Parity first (always, smoke included): byte-identical hits and
    # identical DP work under both kernels.
    signatures = {}
    columns = {}
    for name, search in searches.items():
        signatures[name] = []
        columns[name] = 0
        for query, min_score in workload:
            result = search.search(query, min_score=min_score)
            signatures[name].append(_hit_signature(result))
            columns[name] += result.statistics.columns_expanded
            assert result.statistics.kernel == name
    assert signatures["batched"] == signatures["reference"], (
        "the production kernel diverged from the reference hits"
    )
    assert columns["batched"] == columns["reference"], (
        f"the production kernel expanded {columns['batched']} columns vs the "
        f"reference's {columns['reference']}"
    )

    # The parity pass doubles as warm-up; now the timed passes.
    seconds = {
        name: _time_workload(search, workload) for name, search in searches.items()
    }
    speedup = seconds["reference"] / seconds["batched"] if seconds["batched"] else 1.0

    print()
    print(f"{'kernel':12s} {'median_s':>10s} {'vs reference':>14s}")
    for name in KERNELS:
        ratio = seconds["reference"] / seconds[name] if seconds[name] else 1.0
        print(f"{name:12s} {seconds[name]:10.3f} {ratio:13.2f}x")
    print(
        f"({QUERY_COUNT} queries x {REPEATS} passes, "
        f"{columns['reference']} DP columns per pass)"
    )

    bench_record(
        "expand_kernel",
        {
            "queries": len(queries),
            "repeats": REPEATS,
            "columns_expanded": columns["reference"],
            "hits_identical": True,
            "reference_seconds": seconds["reference"],
            "batched_seconds": seconds["batched"],
            # Tracked by the regression sentry (higher is better).
            "batched_speedup": speedup,
        },
    )

    if smoke_mode() or seconds["reference"] < MIN_COMPARABLE_SECONDS:
        return
    assert speedup >= BATCHED_SPEEDUP_FLOOR, (
        f"batched kernel speedup x{speedup:.2f} is below the "
        f"x{BATCHED_SPEEDUP_FLOOR} floor vs the reference path"
    )
