"""Every exported entry point refuses bad input with a typed error.

``errors.py`` promises that every package error is an ``EngineError``: a
bad argument must raise one of its subclasses, never a bare ``TypeError``,
``ValueError``, ``KeyError``, ``IndexError`` or ``AttributeError``, and must
never be accepted.  ``TABLE`` holds one row per bad call: the callable, its
arguments (built from the module's small fixtures) and the ``EngineError``
subclass it must raise.  The meta-test checks that every callable
``policylock`` exports has a row, or is listed in ``TAKES_NO_BAD_INPUT``
with the reason, so that a new export cannot skip the table.
"""

import inspect
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import policylock as pl

IAE, SE, CVE = pl.InvalidArgumentError, pl.SchemaError, pl.ContractViolationError


@pytest.fixture(scope="module")
def x():
    spec = pl.SynthSpec(n_rows=300, n_treatments=3, seed=3, p_miss=0.1,
                        families=("x_boundary", "generic(2)"))
    frame = pl.generate(spec)
    labels = spec.treatment_labels()
    names = frame.feature_names
    bmap = {n: pl.uniform_boundaries(n, 4) for n in names}
    manifest = pl.build_manifest(frame, names, labels, bmap, 7, 2, 20).lock()
    tree = pl.train(frame, manifest)
    witness = pl.make_witness(tree, frame)
    table = pl.build_prefix_sums(frame, names[0], bmap[names[0]], labels)
    cand = pl.expand_and_score(table, pl.SplitConfig())[0]
    return SimpleNamespace(
        spec=spec, frame=frame, pf=pl.partition(frame, 2), labels=labels, names=names,
        bmap=bmap, manifest=manifest, tree=tree, witness=witness, table=table, cand=cand,
        forest=pl.random_forest(2, 2, names, labels, seed=1),
        backend=pl.InferenceBackend("vectorized_columnar"),
        assignments=witness.assignments, config=pl.SplitConfig(min_leaf_size=20))


def call(*args, **kwargs):
    return args, kwargs


def _row(fn, args, expected, note):
    """``fn(*a, **k)`` with ``(a, k) = args(x)``, ``x`` the module's
    fixtures, must raise ``expected``."""
    return pytest.param(fn, args, expected, id=f"{fn.__name__}: {note}")


def _csv(data):
    """A CSV file of ``data``, text or raw bytes, in the current directory."""
    with open("in.csv", "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
    return "in.csv"


def _no_trees(x):
    return pl.ForestArrays([], x.names, x.labels)


# the 13 calls of the entry-point probe come first, in its order
PROBE = [
    _row(pl.partition, lambda x: call(x.frame, 1.5), IAE, "partition count 1.5"),
    _row(pl.partition, lambda x: call(x.frame, None), IAE, "partition count None"),
    _row(pl.uniform_boundaries, lambda x: call("x", 2.5), IAE, "bin count 2.5"),
    _row(pl.score, lambda x: call(x.frame, x.forest, x.backend), IAE,
         "a ColumnFrame, not partitioned"),
    _row(pl.train, lambda x: call("x", x.manifest), IAE, "data of text"),
    _row(pl.SynthSpec, lambda x: call(n_rows="5"), IAE, "n_rows of text"),
    _row(pl.SynthSpec, lambda x: call(n_rows=1.5), IAE, "n_rows 1.5"),
    _row(pl.SynthSpec, lambda x: call(n_rows=5, n_treatments=2.5), IAE, "n_treatments 2.5"),
    _row(pl.apply_perturbation, lambda x: call(x.pf, None), IAE, "spec None"),
    _row(pl.ColumnFrame, lambda x: call([0, 1], ["a"], [["u", "v"]]), IAE,
         "feature values of text"),
    _row(pl.auuc_qini, lambda x: call(np.zeros(3), np.array(["a", "b"]), np.zeros(3),
                                      "a", np.arange(3)), IAE, "arrays of unequal length"),
    _row(pl.build_manifest, lambda x: call(x.frame, ("nope",), x.labels,
                                           {"nope": pl.uniform_boundaries("nope", 4)},
                                           7, 2, 20), SE, "a feature the frame lacks"),
    _row(pl.approx_quantile_boundaries, lambda x: call(x.frame, "x", 1), IAE,
         "one bin of a feature the frame lacks"),
]

TABLE = PROBE + [
    # synth
    _row(pl.SynthSpec, lambda x: call(n_rows=5, p_miss="x"), IAE, "p_miss of text"),
    _row(pl.SynthSpec, lambda x: call(n_rows=5, p_miss=1.5), IAE, "p_miss above 1"),
    _row(pl.SynthSpec, lambda x: call(n_rows=5, families=("x_nope",)), IAE,
         "unknown family"),
    _row(pl.generate, lambda x: call("spec"), IAE, "spec of text"),
    _row(pl.split_train_holdout, lambda x: call(x.frame, "x", 1), IAE,
         "holdout fraction of text"),
    _row(pl.split_train_holdout, lambda x: call(x.frame, 0.2, 1.5), IAE, "seed 1.5"),
    _row(pl.split_train_holdout, lambda x: call(x.frame, 1.0, 1), IAE,
         "holdout fraction 1"),
    _row(pl.split_train_holdout, lambda x: call("frame", 0.2, 1), IAE, "frame of text"),
    # frames
    _row(pl.ColumnFrame, lambda x: call(["a", "b"], ["a"], [[1.0, 2.0]]), IAE,
         "row ids of text"),
    _row(pl.ColumnFrame, lambda x: call([1.5, 2.0], ["a"], [[1.0, 2.0]]), IAE,
         "a fractional row id"),
    _row(pl.ColumnFrame, lambda x: call([1, 1], ["a"], [[1.0, 2.0]]), SE, "a repeated row id"),
    _row(pl.PartitionedFrame, lambda x: call(("frame",)), IAE, "a partition of text"),
    _row(pl.apply_perturbation, lambda x: call(x.pf, pl.PerturbationSpec("shuffle")), IAE,
         "unknown kind"),
    _row(pl.apply_perturbation, lambda x: call(x.pf, pl.PerturbationSpec(
        pl.PerturbationKind.SHUFFLE_ROWS, seed="x")), IAE, "shuffle seed of text"),
    _row(pl.apply_perturbation, lambda x: call(x.pf, pl.PerturbationSpec(
        pl.PerturbationKind.REPARTITION, target_partitions=1.5)), IAE,
         "repartition into 1.5"),
    _row(pl.concat_frames, lambda x: call([x.frame, x.frame]), SE, "a row held twice"),
    _row(pl.frame_checksum, lambda x: call(x.pf), IAE, "a partitioned frame"),
    _row(pl.read_csv, lambda x: call(None, pl.CsvRoles(("a",), "t", "y")), IAE,
         "path None"),
    _row(pl.write_csv, lambda x: call("frame", "out.csv"), IAE, "frame of text"),
    _row(pl.read_csv, lambda x: call(_csv("row_id,a,t\n1,0.5,c\n"),
                                     pl.CsvRoles(("a",), "t", "y", "row_id")), SE,
         "no outcome column"),
    _row(pl.read_csv, lambda x: call("missing.csv", pl.CsvRoles(("a",), "t", "y")), IAE,
         "a path that does not exist"),
    _row(pl.read_csv, lambda x: call(".", pl.CsvRoles(("a",), "t", "y")), IAE,
         "a directory"),
    _row(pl.read_csv, lambda x: call(_csv(b"a,t,y\n\xff,c,1\n"),
                                     pl.CsvRoles(("a",), "t", "y")), SE, "bytes not UTF-8"),
    # forests and scoring
    _row(pl.TreeArrays, lambda x: call(["leaf"], [-1], [0.0], [-1], [-1], [False],
                                       [[1.0]]), IAE, "node type of text"),
    _row(pl.ForestArrays, lambda x: call("trees", x.names, x.labels), IAE, "trees of text"),
    _row(pl.ForestArrays, lambda x: call(x.forest.trees, None, x.labels), IAE,
         "feature names None"),
    _row(pl.validate_forest, lambda x: call("forest"), IAE, "forest of text"),
    _row(pl.traverse_batch, lambda x: call("tree", np.zeros((1, 4))), IAE, "tree of text"),
    _row(pl.traverse_batch, lambda x: call(x.forest.trees[0], np.zeros((0, 4))),
         pl.MalformedTreeError, "a batch without the tree's features"),
    _row(pl.score_forest, lambda x: call(_no_trees(x), np.zeros((3, 1))), IAE, "no trees"),
    _row(pl.score_forest, lambda x: call(x.forest, [["a"]] * 3), IAE, "a batch of text"),
    _row(pl.forest_to_text, lambda x: call("forest"), IAE, "forest of text"),
    _row(pl.forest_from_text, lambda x: call("forestarrays v2\n"), SE, "version 2"),
    _row(pl.random_forest, lambda x: call(0, 2, x.names, x.labels, 1), IAE, "no trees"),
    _row(pl.random_forest, lambda x: call(2, "2", x.names, x.labels, 1), IAE, "depth of text"),
    _row(pl.InferenceBackend, lambda x: call("gpu"), IAE, "unknown kind"),
    _row(pl.score, lambda x: call(x.pf, _no_trees(x), x.backend), IAE, "forest without trees"),
    _row(pl.check_parity, lambda x: call(x.pf, x.forest, "columnar", x.backend), IAE,
         "backend of text"),
    _row(pl.measure_throughput, lambda x: call(x.pf, x.forest, x.backend, repeats=0), IAE,
         "zero repeats"),
    # split search
    _row(pl.Boundaries, lambda x: call("f", ("a",)), IAE, "cuts of text"),
    _row(pl.uniform_boundaries, lambda x: call("f", 1), IAE, "one bin"),
    _row(pl.approx_quantile_boundaries, lambda x: call(x.frame, x.names[0], 1.5), IAE,
         "bin count 1.5"),
    _row(pl.bucketize, lambda x: call(np.zeros(3), "cuts"), IAE, "boundaries of text"),
    _row(pl.bucketize, lambda x: call(np.zeros(3), x.bmap[x.names[0]],
                                      out=np.zeros(2, np.uint8)), IAE, "out of another shape"),
    _row(pl.candidate_row_count, lambda x: call(2.5, 4, 2), IAE, "feature count 2.5"),
    _row(pl.select_control, lambda x: call(("a", "b"), "c"), IAE, "override outside labels"),
    _row(pl.treatment_codes, lambda x: call(x.frame, ("a", "b")), CVE,
         "a label outside the vocabulary"),
    _row(pl.bin_rows, lambda x: call(x.frame, x.names, {}, x.labels), IAE,
         "no boundaries"),
    _row(pl.build_prefix_sums, lambda x: call(x.frame, "nope", x.bmap[x.names[0]],
                                              x.labels), SE, "a feature the frame lacks"),
    _row(pl.windowed_prefix_table, lambda x: call(x.frame, "nope", x.bmap[x.names[0]],
                                                  x.labels), SE, "a feature the frame lacks"),
    _row(pl.ddp_max, lambda x: call([], [0.1]), IAE, "an empty side"),
    _row(pl.ddp_max, lambda x: call(["a"], [0.1]), IAE, "an uplift of text"),
    _row(pl.expand_and_score, lambda x: call("table", x.config), IAE, "table of text"),
    _row(pl.compare_candidates, lambda x: call(x.cand, "b"), IAE, "candidate of text"),
    _row(pl.candidate_order_key, lambda x: call("cand"), IAE, "candidate of text"),
    _row(pl.SplitConfig, lambda x: call(min_leaf_size=0), IAE, "min leaf 0"),
    _row(pl.SplitConfig, lambda x: call(min_leaf_size="3"), IAE, "min leaf of text"),
    _row(pl.SplitConfig, lambda x: call(pool_size=1.5), IAE, "pool size 1.5"),
    _row(pl.SplitConfig, lambda x: call(safety_skip_threshold=None), IAE,
         "safety threshold None"),
    _row(pl.best_split, lambda x: call(x.frame, x.names, x.bmap, x.labels, "config"), IAE,
         "config of text"),
    _row(pl.naive_variant_best_split, lambda x: call("nope", x.frame, x.names, x.bmap,
                                                     x.labels, x.config), IAE,
         "unknown variant"),
    # training and witness
    _row(pl.Manifest, lambda x: call("digest", ("two words",), x.labels, (), 7, 2, 20,
                                     "digest"), IAE, "a feature name of two words"),
    _row(pl.build_manifest, lambda x: call(x.frame, x.names, x.labels, x.bmap, 7, 2, 0),
         IAE, "min leaf 0"),
    _row(pl.manifest_to_text, lambda x: call("manifest"), IAE, "manifest of text"),
    _row(pl.manifest_from_text, lambda x: call("manifest v9\n"), SE,
         "unknown version"),
    _row(pl.train, lambda x: call(x.frame, x.manifest, "nope"), IAE, "unknown path"),
    _row(pl.train, lambda x: call(x.frame, replace(x.manifest, locked=False)), CVE, "an unlocked manifest"),
    _row(pl.train_unlocked_naive, lambda x: call(x.frame, x.bmap, 2, 0), IAE, "min leaf 0"),
    _row(pl.signature, lambda x: call("tree"), IAE, "tree of text"),
    _row(pl.assign, lambda x: call(x.tree, "frame"), IAE, "frame of text"),
    _row(pl.policy_value, lambda x: call("assignments", x.frame), IAE,
         "assignments of text"),
    _row(pl.uplift_proxy, lambda x: call(x.assignments, "nope"), IAE,
         "control outside the labels"),
    _row(pl.make_witness, lambda x: call(x.tree, x.pf), IAE, "a partitioned holdout"),
    _row(pl.witness_compare, lambda x: call(x.witness, "witness"), IAE, "witness of text"),
    _row(pl.row_id_set_digest, lambda x: call([1, 1]), SE, "an id held twice"),
    _row(pl.row_id_set_digest, lambda x: call(["a"]), IAE, "an id of text"),
]


@pytest.mark.parametrize("fn,args,expected", TABLE)
def test_bad_call_raises_its_typed_error(fn, args, expected, x, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # CSV rows write here, and so would a wrong success
    a, k = args(x)
    with pytest.raises(expected):
        fn(*a, **k)


# exported callables that take no input a caller can get wrong, each with why
TAKES_NO_BAD_INPUT = {
    pl.EngineError: "exception class: any message",
    pl.InvalidArgumentError: "exception class: any message",
    pl.UnsupportedConfigurationError: "exception class: any message",
    pl.SchemaError: "exception class: any message",
    pl.ContractViolationError: "exception class: any message",
    pl.AlignmentError: "exception class: any message",
    pl.MalformedTreeError: "exception class: any message",
    pl.PerturbationKind: "enumeration: callers use its members",
    pl.PerturbationSpec: "record of a perturbation's fields; apply_perturbation checks them",
    pl.CsvRoles: "record of column roles; read_csv checks them against the header",
    pl.ScoreColumn: "record of engine output",
    pl.ParityReport: "record of engine output",
    pl.CandidateScore: "record of engine output",
    pl.BestSplit: "record of engine output",
    pl.SplitSearchResult: "record of engine output",
    pl.PrefixTable: "record of engine output",
    pl.PolicyTree: "record of engine output",
    pl.TreeSignature: "record of engine output",
    pl.Assignments: "record of engine output",
    pl.Witness: "record of engine output",
    pl.WitnessReport: "record of engine output",
}


def test_every_export_has_a_row_or_a_reason():
    exported = {name: obj for name, obj in vars(pl).items()
                if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)}
    rowed = {p.values[0] for p in TABLE}
    missing = sorted(name for name, obj in exported.items()
                     if obj not in rowed and obj not in TAKES_NO_BAD_INPUT)
    assert missing == []
    assert not rowed & set(TAKES_NO_BAD_INPUT)
    assert set(TAKES_NO_BAD_INPUT) <= set(exported.values())
