"""The benchmark's workloads.

Each workload builds its inputs from a seed (``setup``) and then runs
rounds.  A round makes timed calls into the engine's public functions,
grouped into three *steps*, and checks every output for exactness.  The
engine is always reached through module attributes (``inference.score``,
``trainer.train``, ...), so the traced run's wrappers see these calls.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Optional

import numpy as np

from policylock import frame, harness, inference, splitsearch, synth, trainer

from checks import Checks, check_scores, check_splits, check_witnesses

STEPS = ("step1_s", "step2_s", "step3_s")


class Samples:
    """Wall seconds per timed call, keyed by step and by input group.

    A workload whose inputs come in groups (``train_locked`` trains on
    several datasets) tags each call with its group; a step's time is the
    median call time of each group, averaged over the groups, so that every
    group weighs the same however many calls it got."""

    def __init__(self):
        self.seconds: dict[tuple[str, int], list[float]] = defaultdict(list)

    def call(self, step: str, fn, *args, group: int = 0, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[step, group].append(time.perf_counter() - t0)
        return result

    def calls(self, step: str) -> int:
        return sum(len(v) for (s, _), v in self.seconds.items() if s == step)

    def step_seconds(self) -> list[float]:
        return [statistics.fmean(statistics.median(v) for (s, _), v in self.seconds.items()
                                 if s == step) for step in STEPS]


class ScoreBatch:
    """Scores a 200k x 32 fixture with 4 integer-coded columns routed by
    categorical nodes and 5% missing cells (NULL and NaN) against 50 trees
    of depth 7 over T=4, 4 partitions, batch size 10,000."""

    name = "score_batch"
    aggregate = "median"
    step_names = ("score_rows_per_s.vectorized_columnar",
                  "score_rows_per_s.vectorized_rowmajor",
                  "score_rows_per_s.broadcast_rowwise")

    def __init__(self, n_rows=200_000, n_features=32, n_trees=50, depth=7,
                 rowwise_rows=20_000, partitions=4, batch_size=10_000):
        self.n_rows, self.n_features = n_rows, n_features
        self.n_trees, self.depth = n_trees, depth
        self.rowwise_rows, self.partitions = rowwise_rows, partitions
        self.backends = [inference.InferenceBackend(kind, batch_size) for kind in
                         ("vectorized_columnar", "vectorized_rowmajor",
                          "broadcast_rowwise")]

    def setup(self, seed: int, pool: int) -> dict:
        whole, forest = harness.inference_fixture(self.n_rows, self.n_features, 4,
                                                  self.n_trees, self.depth, seed)
        # the row-wise backend's per-row cost is constant, so it scores only
        # the leading rows
        lead = whole.take(np.arange(min(self.rowwise_rows, self.n_rows)))
        return {"pool": pool, "forest": forest,
                "data": frame.partition(whole, self.partitions),
                "lead": frame.partition(lead, self.partitions)}

    def report(self, inputs: dict, step_s: list[float]) -> list[tuple]:
        rows = (inputs["data"].n_rows, inputs["data"].n_rows, inputs["lead"].n_rows)
        return [(name, n / s, "rows/s") for name, n, s in zip(self.step_names, rows, step_s)]

    def round(self, inputs: dict, samples: Samples, checks: Checks,
              first: Optional[str]) -> str:
        cols = []
        for step, backend, data in zip(STEPS, self.backends,
                                       (inputs["data"], inputs["data"], inputs["lead"])):
            cols.append(samples.call(step, inference.score, data, inputs["forest"],
                                     backend, pool_size=inputs["pool"]))
        return check_scores(checks, *cols, first)


class _SecondsPerCall:
    step_names: tuple[str, ...]

    def report(self, inputs: dict, step_s: list[float]) -> list[tuple]:
        return [(name, s, "s") for name, s in zip(self.step_names, step_s)]


class SplitWide(_SecondsPerCall):
    """One best_split per execution path on a 4-partition frame of
    generic(250) features, N=100k, B=32, T=4, min_leaf_size=100: 31,000
    candidate rows, under the reference path's 100k safety threshold."""

    name = "split_wide"
    aggregate = "median"
    step_names = tuple(f"best_split_s.{p}" for p in splitsearch.EXECUTION_PATHS)

    def __init__(self, n_rows=100_000, n_features=250, n_bins=32, partitions=4,
                 min_leaf_size=100):
        self.n_rows, self.n_features, self.n_bins = n_rows, n_features, n_bins
        self.partitions, self.min_leaf_size = partitions, min_leaf_size

    def setup(self, seed: int, pool: int) -> dict:
        spec = synth.SynthSpec(n_rows=self.n_rows, n_treatments=4, seed=seed,
                               families=(f"generic({self.n_features})",))
        whole = synth.generate(spec)
        names = whole.feature_names
        return {"data": frame.partition(whole, self.partitions), "features": names,
                "bounds": {n: splitsearch.uniform_boundaries(n, self.n_bins)
                           for n in names},
                "labels": spec.treatment_labels(),
                "config": splitsearch.SplitConfig(min_leaf_size=self.min_leaf_size,
                                                  pool_size=pool)}

    def round(self, inputs: dict, samples: Samples, checks: Checks,
              first: Optional[tuple]) -> Optional[tuple]:
        results = [samples.call(step, splitsearch.best_split, inputs["data"],
                                inputs["features"], inputs["bounds"], inputs["labels"],
                                inputs["config"].with_path(path))
                   for step, path in zip(STEPS, splitsearch.EXECUTION_PATHS)]
        return check_splits(checks, results, first)


class TrainLocked(_SecondsPerCall):
    """Locked training on 100k-row synth frames (x_boundary, x_miss, x_tie,
    generic(2); p_miss 0.1; B=32; depth 6; min_leaf_size=100), each split
    80/20 into train and holdout and laid out three ways (4 partitions,
    repartitioned to 8, shuffled rows).

    The learned tree's size, and with it the train time, varies with the
    data, so the inputs are ``datasets`` frames with seeds derived from the
    run's seed, and each step's time is averaged over them.  A round trains
    every dataset through the reference and relational paths on one of its
    layouts, the next one in each round, and witnesses every tree on the
    holdout; three rounds cover every layout of every dataset."""

    name = "train_locked"
    step_names = ("train_s.reference_driver_collect", "train_s.relational_windowed",
                  "witness_s")
    paths = (splitsearch.PATH_REFERENCE, splitsearch.PATH_RELATIONAL)

    def __init__(self, n_rows=100_000, n_bins=32, depth=6, min_leaf_size=100,
                 partitions=4, datasets=4):
        self.n_rows, self.n_bins, self.depth = n_rows, n_bins, depth
        self.min_leaf_size, self.partitions = min_leaf_size, partitions
        self.datasets = datasets
        self.aggregate = f"mean over {datasets} datasets of each one's median"

    def setup(self, seed: int, pool: int) -> dict:
        return {"datasets": [self._dataset(seed * self.datasets + k)
                             for k in range(self.datasets)]}

    def _dataset(self, seed: int) -> dict:
        spec = synth.SynthSpec(n_rows=self.n_rows, n_treatments=4, seed=seed, p_miss=0.1,
                               families=("x_boundary", "x_miss", "x_tie", "generic(2)"))
        train_frame, holdout = synth.split_train_holdout(synth.generate(spec), 0.2, seed)
        bounds = {n: splitsearch.uniform_boundaries(n, self.n_bins)
                  for n in train_frame.feature_names}
        manifest = trainer.build_manifest(train_frame, tuple(bounds),
                                          spec.treatment_labels(), bounds, seed,
                                          self.depth, self.min_leaf_size).lock()
        base = frame.partition(train_frame, self.partitions)
        kind = frame.PerturbationKind
        layouts = [base,
                   frame.apply_perturbation(base, frame.PerturbationSpec(
                       kind.REPARTITION, target_partitions=2 * self.partitions)),
                   frame.apply_perturbation(base, frame.PerturbationSpec(
                       kind.SHUFFLE_ROWS, seed=seed))]
        return {"manifest": manifest, "layouts": layouts, "holdout": holdout}

    def round(self, inputs: dict, samples: Samples, checks: Checks,
              state: Optional[tuple[int, list]]) -> tuple[int, list]:
        """``state`` is the number of rounds made and each dataset's first
        tree signature."""
        done, firsts = state or (0, [None] * len(inputs["datasets"]))
        signatures = []
        for k, (dataset, first) in enumerate(zip(inputs["datasets"], firsts)):
            data = dataset["layouts"][(done + k) % len(dataset["layouts"])]
            witnesses = []
            for step, path in zip(STEPS, self.paths):
                tree = samples.call(step, trainer.train, data, dataset["manifest"], path,
                                    group=k)
                witnesses.append(samples.call(STEPS[2], trainer.make_witness, tree,
                                              dataset["holdout"], group=k))
            signature = check_witnesses(checks, witnesses, first)
            signatures.append(signature if first is None else first)
        return done + 1, signatures


WORKLOADS = {w.name: w for w in (ScoreBatch, SplitWide, TrainLocked)}


def run_rounds(workload, inputs: dict, seconds: float) -> tuple[Samples, Checks, int]:
    """At least one round; another starts only while more than half of the
    last round's time remains of ``seconds``."""
    samples, checks = Samples(), Checks()
    state = None
    rounds = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        state = workload.round(inputs, samples, checks, state)
        rounds += 1
        now = time.perf_counter()
        if now + (now - t0) / 2 >= start + seconds:
            return samples, checks, rounds
