"""Tests for the benchmark's own code: span arithmetic, the traced run's
wrappers and the exactness checks.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from policylock import inference, splitsearch, trainer

import layers
from checks import Checks, check_scores, check_splits, check_witnesses
from spans import Patches, Span, Tracer, covered_time, self_time, traced_executor
from workloads import STEPS, Samples, ScoreBatch, SplitWide, TrainLocked, run_rounds


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_time_merges_overlaps_and_clips():
    assert covered_time(0, 10, []) == 0
    assert covered_time(0, 10, [(1, 4), (2, 6), (8, 9)]) == 6
    assert covered_time(2, 5, [(0, 3), (4, 9)]) == 2
    assert covered_time(0, 10, [(5, 6), (5, 6)]) == 1


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("outer")
    clock.now = 1
    mid = tracer.open("mid")
    clock.now = 2
    inner = tracer.open("inner")
    clock.now = 5
    tracer.close(inner)
    clock.now = 7
    tracer.close(mid)
    clock.now = 8
    second = tracer.open("inner")
    clock.now = 9
    tracer.close(second)
    clock.now = 10
    tracer.close(outer)

    assert inner.parent is mid and mid.parent is outer and second.parent is outer
    assert self_time(inner) == 3
    assert self_time(mid) == 3          # 6 long, 3 covered by inner
    assert self_time(outer) == 3        # 10 long, mid covers 6, second 1
    totals = tracer.totals()
    assert totals["inner"].calls == 2
    assert totals["inner"].busy_s == 4
    assert totals["outer"].self_s == 3


def test_self_time_counts_parallel_children_once():
    parent = Span("score", 0.0, end=10.0)
    parent.children = [Span("a", 1.0, parent, 4.0), Span("b", 2.0, parent, 6.0),
                       Span("c", 8.0, parent, 9.0)]
    assert self_time(parent) == 4.0


def test_pool_workers_run_under_the_submitting_span():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(_):
        barrier.wait()      # both workers are inside their spans at once
        time.sleep(0.01)

    child = tracer.wrap(work, "child")
    parent = tracer.open("parent")
    with traced_executor(tracer)(max_workers=2) as pool:
        list(pool.map(child, range(2)))
    tracer.close(parent)

    children = [s for s in tracer.spans if s.name == "child"]
    assert len(children) == 2
    assert all(s.parent is parent for s in children)
    assert len(parent.children) == 2
    covered = covered_time(parent.start, parent.end,
                           [(s.start, s.end) for s in children])
    assert covered < sum(s.duration for s in children)   # they overlapped
    assert self_time(parent) == pytest.approx(parent.duration - covered)
    assert tracer.counters["pool_busy:parent"] >= sum(s.duration for s in children)


def test_spans_closed_out_of_order_are_rejected():
    tracer = Tracer()
    a = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(a)


def test_install_restores_every_site():
    before = {(id(owner), attr): owner.__dict__[attr]
              for owners, attr, _, _ in layers._SITES for owner in owners}
    executors = (inference.ThreadPoolExecutor, splitsearch.ThreadPoolExecutor)
    with layers.install(Tracer()):
        assert trainer.best_split.__wrapped__ is before[(id(trainer), "best_split")]
        assert inference.ThreadPoolExecutor is not executors[0]
    after = {(id(owner), attr): owner.__dict__[attr]
             for owners, attr, _, _ in layers._SITES for owner in owners}
    assert after == before
    assert (inference.ThreadPoolExecutor, splitsearch.ThreadPoolExecutor) == executors


def test_patches_undo_in_reverse_order():
    class Owner:
        x = 1
    with Patches() as p:
        p.set(Owner, "x", 2)
        p.set(Owner, "x", 3)
        assert Owner.x == 3
    assert Owner.x == 1


@pytest.fixture(scope="module")
def small_runs():
    """One traced round of each workload at a small size."""
    out = {}
    for workload in (ScoreBatch(n_rows=600, n_features=6, n_trees=3, depth=3,
                                rowwise_rows=100, batch_size=128),
                     SplitWide(n_rows=2000, n_features=5, n_bins=8, min_leaf_size=20),
                     TrainLocked(n_rows=3000, n_bins=8, depth=2, min_leaf_size=20)):
        setup_trace, round_trace = Tracer(), Tracer()
        with layers.install(setup_trace):
            inputs = workload.setup(3, 2)
        with layers.install(round_trace):
            samples, checks, rounds = run_rounds(workload, inputs, 0)
        out[workload.name] = (inputs, samples, checks,
                              layers.layer_metrics(setup_trace, round_trace, rounds))
    return out


def test_small_workloads_pass_their_checks(small_runs):
    for name, (_, samples, checks, _) in small_runs.items():
        assert checks.attempted > 0 and checks.failures == [], name
        assert all(samples.calls(s) for s in STEPS), name


def test_layer_counters_on_small_workloads(small_runs):
    _, _, _, score = small_runs["score_batch"]
    assert score["inference.rows_scored"] == 600 + 600 + 100
    assert score["inference.model_inits"] == 3 * 4      # once per backend and partition
    assert score["harness.fixture_s"] > 0 and score["frame.partition_s"] > 0
    assert 0 < score["inference.score_self_s"] < score["inference.score_s"]
    assert score["splitsearch.best_split_calls"] == 0

    _, _, _, split = small_runs["split_wide"]
    assert split["splitsearch.best_split_calls"] == 3
    assert split["splitsearch.bucketize_calls"] == 3 * 5 * 4      # paths x F x parts
    assert split["splitsearch.bucketize_rows"] == 3 * 5 * 2000
    assert split["splitsearch.candidates_scored"] == 3 * 5 * 2 * 7
    rejected = sum(v for k, v in split.items() if k.startswith("splitsearch.rejected."))
    assert split["splitsearch.candidates_valid"] + rejected == \
        split["splitsearch.candidates_scored"]
    assert split["splitsearch.pool_busy_s"] > 0
    assert split["frame.take_calls"] == 0

    inputs, _, _, train = small_runs["train_locked"]
    trees = 2 * len(inputs["datasets"])
    assert train["trainer.nodes_expanded"] > 0
    assert train["trainer.leaves"] == train["trainer.nodes_expanded"] + trees
    assert train["frame.take_calls"] == train["splitsearch.best_split_calls"]
    assert train["frame.perturb_s"] > 0 and train["synth.generate_s"] > 0
    assert train["trainer.assign_s"] > 0 and train["trainer.signature_s"] > 0


def test_step_time_weighs_every_group_the_same():
    samples = Samples()
    for step in STEPS:
        samples.seconds[step, 0] = [1.0, 2.0, 9.0]
        samples.seconds[step, 1] = [4.0]
    assert samples.step_seconds() == [3.0, 3.0, 3.0]      # mean of medians 2 and 4
    assert samples.calls(STEPS[0]) == 4


def test_train_rounds_cover_every_layout_of_every_dataset(small_runs):
    inputs = small_runs["train_locked"][0]
    trained = []

    class Spy(Samples):
        def call(self, step, fn, *args, group=0, **kwargs):
            if fn is trainer.train:
                trained.append((group, step, id(args[0])))
            return super().call(step, fn, *args, group=group, **kwargs)

    state, checks = None, Checks()
    for _ in range(3):
        state = TrainLocked().round(inputs, Spy(), checks, state)
    assert checks.attempted == 3 * 3 * len(inputs["datasets"]) and checks.failed == 0
    assert sorted(trained) == sorted(
        (k, step, id(layout)) for k, dataset in enumerate(inputs["datasets"])
        for step in STEPS[:2] for layout in dataset["layouts"])


def _flip_bit(col):
    vectors = col.vectors.copy()
    vectors.view(np.uint64)[0, 0] ^= np.uint64(1)
    return inference.ScoreColumn(col.row_ids, vectors)


def test_score_checks_count_a_flipped_bit(small_runs):
    inputs = small_runs["score_batch"][0]
    workload = ScoreBatch()
    cols = [inference.score(data, inputs["forest"], backend, pool_size=2)
            for backend, data in zip(workload.backends,
                                     (inputs["data"], inputs["data"], inputs["lead"]))]
    checks = Checks()
    first = check_scores(checks, *cols, None)
    assert (checks.attempted, checks.failed) == (3, 0)
    for i in range(3):
        altered = list(cols)
        altered[i] = _flip_bit(cols[i])
        checks = Checks()
        check_scores(checks, *altered, first)
        assert checks.failed >= 1, i


def test_split_checks_count_a_different_winner(small_runs):
    inputs = small_runs["split_wide"][0]
    results = [splitsearch.best_split(inputs["data"], inputs["features"], inputs["bounds"],
                                      inputs["labels"], inputs["config"].with_path(p))
               for p in splitsearch.EXECUTION_PATHS]
    checks = Checks()
    first = check_splits(checks, results, None)
    assert (checks.attempted, checks.failed) == (6, 0)

    moved = dataclasses.replace(results[2], best=dataclasses.replace(
        results[2].best, score=np.nextafter(results[2].best.score, 0)))
    checks = Checks()
    check_splits(checks, [results[0], results[1], moved], first)
    assert checks.failures == ["best splits agree across paths"]

    skipped = dataclasses.replace(results[0], status=splitsearch.STATUS_SKIPPED_TOO_LARGE,
                                  best=None)
    checks = Checks()
    check_splits(checks, [skipped, results[1], results[2]], first)
    assert checks.failed >= 2


def test_witness_checks_count_a_different_signature_text(small_runs):
    inputs = small_runs["train_locked"][0]["datasets"][0]
    witnesses = [trainer.make_witness(trainer.train(d, inputs["manifest"]),
                                      inputs["holdout"]) for d in inputs["layouts"]]
    checks = Checks()
    first = check_witnesses(checks, witnesses, None)
    assert (checks.attempted, checks.failed) == (5, 0)

    sig = witnesses[1].signature
    altered = dataclasses.replace(witnesses[1], signature=dataclasses.replace(
        sig, text=sig.text.replace("leaf", "leaf ", 1)))
    checks = Checks()
    check_witnesses(checks, [witnesses[0], altered, witnesses[2]], first)
    assert checks.failures == ["signatures equal"]

    a = witnesses[2].assignments
    leaf_paths = a.leaf_paths.copy()
    leaf_paths[0] = leaf_paths[0] + "X"
    moved = dataclasses.replace(witnesses[2], assignments=dataclasses.replace(
        a, leaf_paths=leaf_paths))
    checks = Checks()
    check_witnesses(checks, [witnesses[0], witnesses[1], moved], first)
    assert checks.failures == ["witnesses match"]


def test_run_without_engine_sources_fails(tmp_path):
    shutil.copytree(Path(layers.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "split_wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
