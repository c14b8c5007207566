"""The benchmark's own checks, at the ``tiny`` scale over two seeds.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run as entry
from perfbench.calibrate import REFERENCE_SECONDS
from perfbench.harness import END_TO_END, PER_LAYER, Client, end_to_end, run
from perfbench.workloads import WORKLOADS, Oracle, Outcome, make_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEEDS = (1, 2)


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    """A scratch stand-in for ``perfbench/``: oracle cache and work files."""
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.fixture(scope="module")
def traced(bench_root):
    """One traced tiny run per (workload, seed), shared by the tests below."""
    return {
        (name, seed): run(name, seed, 0.1, True, bench_root, scale="tiny")
        for name in WORKLOADS
        for seed in SEEDS
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_prints_with_its_unit(name, trace, bench_root):
    report = run(name, SEEDS[0], 0.1, bool(trace), bench_root, scale="tiny")
    lines = entry.report_lines(report, {"cpu_count": os.cpu_count()}, 0.1, trace)
    expected = PER_LAYER if trace else END_TO_END
    assert set(report.metrics) == set(expected)
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_ratio 0 ratio") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", ["mem-motif", "sharded-topk"])
def test_an_altered_hit_list_trips_the_gate(name, tmp_path):
    dataset = make_dataset("tiny")
    oracle = Oracle.load(dataset, str(tmp_path))
    session = WORKLOADS[name].setup(dataset, str(tmp_path))
    try:
        client = Client(dataset, session, WORKLOADS[name], SEEDS[0])
        client.passes(1)
    finally:
        session.close()
    assert client.failures(oracle) == 0
    outcome = next(outcome for outcome in client.outcomes if len(outcome.hits) > 1)
    index, score = outcome.hits[0]
    outcome.hits[0] = (index, score - 1)
    assert client.failures(oracle) == 1
    outcome.hits[0] = (index, score)
    outcome.hits.reverse()
    assert client.failures(oracle) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_deterministic_counters_repeat_exactly(seed, traced, bench_root):
    again = run("disk-tight-pool", seed, 0.1, True, bench_root, scale="tiny")
    first = traced[("disk-tight-pool", seed)]
    for metric in ("kernel.columns", "driver.nodes_expanded", "storage.page_misses"):
        assert again.metrics[metric] == first.metrics[metric], metric
    assert first.metrics["storage.page_misses"] > 0
    # The search work does not depend on storage or on the issue order.
    for name, other_seed in [("mem-motif", seed), ("disk-tight-pool", SEEDS[0])]:
        other = traced[(name, other_seed)]
        for metric in ("kernel.columns", "driver.nodes_expanded", "kernel.calls"):
            assert other.metrics[metric] == first.metrics[metric], (name, metric)


@pytest.mark.parametrize("name", ["mem-motif", "disk-tight-pool"])
@pytest.mark.parametrize("seed", SEEDS)
def test_layer_self_times_fit_in_the_query_wall_time(name, seed, traced):
    report = traced[(name, seed)]
    kernel = report.metrics["kernel.self_s"]
    cursor = report.metrics["storage.cursor_s"]
    driver = report.metrics["driver.self_s"]
    assert kernel > 0 and cursor > 0 and driver >= 0
    assert kernel + cursor <= report.traced_query_seconds
    assert kernel + cursor + driver == pytest.approx(report.traced_query_seconds)


def test_timings_are_scaled_by_each_query_speed_factor():
    # Two queries measured while the machine ran at half the reference
    # speed; the first sped up to the reference speed by its end.
    slow = 2 * REFERENCE_SECONDS
    loop = [
        Outcome("a", 0.2, 0.1, [(0, 9)], None, probes=(slow, REFERENCE_SECONDS)),
        Outcome("b", 0.6, None, [], None, probes=(slow, slow)),
    ]
    metrics = end_to_end(loop, [2.0], 50.0)
    assert metrics["throughput_qps"] == pytest.approx(2 / (0.2 / 1.5 + 0.3))
    assert metrics["query_p50_ms"] == pytest.approx((0.2 / 1.5 + 0.3) / 2 * 1000.0)
    assert metrics["first_hit_p50_ms"] == pytest.approx(50.0)
    assert metrics["setup_s"] == 2.0 and metrics["rss_peak_mb"] == 50.0


def test_refuses_to_run_under_a_kernel_override(monkeypatch, capsys):
    monkeypatch.setenv(entry.KERNEL_VARIABLE, "batched")
    code = entry.main(["--workload", "mem-motif", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


def _command(*args):
    return [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0.1", *args]


def test_process_workers_can_import_the_entry_point():
    """Spawned scatter workers re-import ``run.py``; it must not re-run the benchmark."""
    completed = subprocess.run(
        _command("--workload", "sharded-topk", "--trace", "0", "--scale", "tiny"),
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout.splitlines()[-1])["correct"] is True


def test_a_sharded_run_leaves_no_helper_process(bench_root):
    """The resource tracker the spawned worker pool starts ends with the run."""
    from multiprocessing import resource_tracker

    assert run("sharded-topk", SEEDS[0], 0.1, False, bench_root, scale="tiny").correct
    assert resource_tracker._resource_tracker._pid is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"),
    )
    completed = subprocess.run(
        _command("--workload", "mem-motif", "--trace", "0"),
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
