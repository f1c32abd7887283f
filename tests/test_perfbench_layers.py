"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps engine
functions at the module attributes where they are looked up.  Every such
site must still exist, or the traced run dies with a KeyError."""

import importlib
from pathlib import Path

import policylock as pl
from policylock import splitsearch, trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_install_resolves_every_site_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
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

    assert (pl.ColumnFrame.take, trainer.best_split, splitsearch.bucketize,
            splitsearch.expand_and_score, splitsearch.ThreadPoolExecutor) == originals
    names = {span.name for span in tracer.spans}
    assert {"trainer.train", "splitsearch.best_split", "splitsearch.bucketize",
            "splitsearch.codes", "splitsearch.prefix"} <= names
