"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps engine
functions at the module attributes where they are looked up.  Every such
site must still exist, or the traced run dies with a KeyError."""

import importlib
from pathlib import Path

import numpy as np

import policylock as pl
from policylock import inference, splitsearch, trainer

from conftest import build_frame

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def _patched_sites(layers):
    sites = [(owner, attr) for owners, attr, _, _ in layers._SITES for owner in owners]
    sites += [(module, "ThreadPoolExecutor") for module in (inference, splitsearch)]
    return [owner.__dict__[attr] for owner, attr in sites]


def test_trace_install_resolves_every_site_and_restores_it(monkeypatch):
    layers, spans = _perfbench_modules(monkeypatch)
    originals = (pl.ColumnFrame.take, trainer.best_split, splitsearch.bucketize,
                 splitsearch.expand_and_score, splitsearch.ThreadPoolExecutor)

    tracer = spans.Tracer()
    spec = pl.SynthSpec(n_rows=600, seed=3, families=("x_boundary",))
    frame, labels = pl.generate(spec), spec.treatment_labels()
    bmap = {n: pl.uniform_boundaries(n, 8) for n in frame.feature_names}
    manifest = pl.build_manifest(frame, frame.feature_names, labels, bmap, 3, 2,
                                 50).lock()
    with layers.install(tracer):
        assert trainer.best_split is not originals[1]
        trainer.train(frame, manifest)
        trained = {span.name for span in tracer.spans}
        splitsearch.best_split(frame, frame.feature_names, bmap, labels,
                               splitsearch.SplitConfig())
        splitsearch.build_prefix_sums(frame, "x_boundary", bmap["x_boundary"], labels)

    assert (pl.ColumnFrame.take, trainer.best_split, splitsearch.bucketize,
            splitsearch.expand_and_score, splitsearch.ThreadPoolExecutor) == originals
    # training counts and searches its tables itself; the public search and
    # prefix functions are traced where callers reach them
    assert {"trainer.train", "splitsearch.bucketize", "splitsearch.codes"} <= trained
    assert {"splitsearch.best_split", "splitsearch.prefix"} <= \
        {span.name for span in tracer.spans}


def test_traced_score_sees_the_kernel_callers(monkeypatch):
    """A traced ``inference.score`` counts one model init per partition and
    vectorized call and records the forest text and validation spans."""
    layers, spans = _perfbench_modules(monkeypatch)
    names = [f"f{i}" for i in range(3)]
    forest = pl.random_forest(4, 3, names, ("a", "b"), seed=2, full=False)
    values = np.random.default_rng(0).random((len(names), 40))
    pf = pl.partition(build_frame(dict(zip(names, values.tolist()))), 3)
    backends = [pl.InferenceBackend(kind, batch_size=7)
                for kind in ("vectorized_columnar", "vectorized_rowmajor")]
    originals = _patched_sites(layers)

    tracer = spans.Tracer()
    with layers.install(tracer):
        for backend in backends:
            inference.score(pf, forest, backend)

    assert _patched_sites(layers) == originals
    assert tracer.counters["inference.model_inits"] == pf.partition_count * len(backends)
    assert tracer.counters["inference.rows_scored"] == 40 * len(backends)
    recorded = {span.name for span in tracer.spans}
    assert {"inference.score", "forest.from_text", "forest.validate",
            "forest.to_text"} <= recorded
