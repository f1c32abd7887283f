"""Golden byte digests of split search and training, one per component.

Each component turns a fixed set of seeded inputs into bytes and hashes
them with BLAKE2b; ``tests/test_golden.py`` pins the digests, so a change
that moves any bin, count, score bit, record field, tree or witness value
fails there.  Records are written as canonical JSON with every float as
``float.hex``, so a score that moves by one ulp changes its digest.

Print a fresh digest table (the pins are edited by hand, never rewritten
by this script):

    PYTHONPATH=src python tests/_golden.py
"""

import hashlib
import json

import numpy as np

import policylock as pl
from policylock.harness import random_small_instance


def _canon(value):
    """``value`` as JSON-ready data: floats as ``float.hex``, arrays as lists."""
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, (np.floating, float)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _digest(chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        if not isinstance(chunk, bytes):
            chunk = json.dumps(_canon(chunk), sort_keys=True).encode()
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _uint8_instance():
    """Four synth features of B = 32 over 3000 rows in 4 partitions."""
    spec = pl.SynthSpec(n_rows=3000, n_treatments=4, seed=41, p_miss=0.1,
                        families=("x_boundary", "x_miss", "x_tie", "generic(1)"))
    frame = pl.generate(spec)
    names = list(frame.feature_names)
    bmap = {n: pl.uniform_boundaries(n, 32) for n in names}
    return pl.partition(frame, 4), names, bmap, spec.treatment_labels()


def _uint16_instance():
    """Six partitions (three empty) of 600 rows over features of B 2, 32,
    255, 256 and 300, each with NULL and NaN cells and values on its cuts."""
    gen = np.random.default_rng(11)
    n, labels = 600, ("control", "t1", "t2")
    bmap = {f"b{B}": pl.uniform_boundaries(f"b{B}", B) for B in (2, 32, 255, 256, 300)}
    values, valid = [], []
    for b in bmap.values():
        column = gen.random(n)
        on_cut = gen.random(n) < 0.2
        column[on_cut] = gen.choice(b.cuts, int(on_cut.sum()))
        column[gen.random(n) < 0.05] = np.nan
        ok = gen.random(n) >= 0.05
        values.append(np.where(ok, column, 0.0))
        valid.append(ok)
    frame = pl.ColumnFrame(np.arange(n), list(bmap), values, valid,
                           np.array(labels, dtype=object)[gen.integers(0, 3, n)],
                           (gen.random(n) < 0.4).astype(np.int64))
    a, b, c = pl.partition(frame, 3).partitions
    empty = frame.take(np.arange(0))
    return pl.PartitionedFrame((a, empty, b, empty, c, empty)), list(bmap), bmap, labels


def mixed_instance(n=600, seed=5):
    """Eight features of B = 40, 2, 300, 5 (twice each, interleaved and
    named out of sorted order), T = 3, 10% NULL and NaN cells."""
    gen = np.random.default_rng(seed)
    sizes = [40, 2, 300, 5, 2, 40, 5, 300]
    names = [f"m{i}" for i in (6, 3, 7, 0, 5, 1, 4, 2)]
    values = [np.where(gen.random(n) < 0.1, np.nan, gen.random(n)) for _ in names]
    valid = [gen.random(n) >= 0.05 for _ in names]
    labels = ("control", "t1", "t2")
    frame = pl.ColumnFrame(np.arange(n), names, values, valid,
                           np.array(labels, dtype=object)[gen.integers(0, 3, n)],
                           (gen.random(n) < 0.4).astype(np.int64))
    bmap = {name: pl.uniform_boundaries(name, b) for name, b in zip(names, sizes)}
    return frame, names, bmap, labels


def _wide_instance():
    """F = 250 synth features of B = 32 over 4000 rows in 4 partitions."""
    spec = pl.SynthSpec(n_rows=4000, n_treatments=4, seed=3, families=("generic(250)",))
    frame = pl.generate(spec)
    names = list(frame.feature_names)
    return (pl.partition(frame, 4), names, {n: pl.uniform_boundaries(n, 32) for n in names},
            spec.treatment_labels())


def _bin_rows_chunks(instance):
    data, names, bmap, labels = instance
    view = pl.bin_rows(data, names, bmap, labels)
    return [str(view.bins.dtype).encode(), view.bins.tobytes(), view.tails.tobytes(),
            list(view.bounds)]


def _table_records(build):
    small = [random_small_instance(seed) for seed in range(6)]
    cases = [(pl.partition(frame, 3), names, bmap, labels)
             for frame, names, bmap, labels, _ in small]
    cases += [_uint8_instance(), _uint16_instance()]
    return [build(data, name, bmap[name], labels).to_record()
            for data, names, bmap, labels in cases for name in names]


def _split_records(cases):
    return [pl.best_split(data, names, bmap, labels, config.with_path(path)).to_record()
            for data, names, bmap, labels, config in cases for path in pl.EXECUTION_PATHS]


def _small_splits():
    cases = []
    for seed in range(20):
        frame, names, bmap, labels, config = random_small_instance(seed)
        cases += [(frame, names, bmap, labels, config),
                  (pl.partition(frame, 4), names, bmap, labels, config)]
        cases.append((frame, names, bmap, labels,
                      pl.SplitConfig(min_leaf_size=frame.n_rows)))
    return _split_records(cases)


def _mixed_splits():
    frame, names, bmap, labels = mixed_instance()
    return _split_records([(data, names, bmap, labels, pl.SplitConfig(min_leaf_size=leaf))
                           for data in (frame, pl.partition(frame, 3))
                           for leaf in (10, 600)])


def _wide_splits():
    data, names, bmap, labels = _wide_instance()
    return _split_records([(data, names, bmap, labels, pl.SplitConfig(min_leaf_size=40))])


def _trained():
    """Each (path, layout) of one locked dataset: its tree and its witness
    on the holdout."""
    spec = pl.SynthSpec(n_rows=5000, n_treatments=4, seed=17, p_miss=0.1,
                        families=("x_boundary", "x_miss", "x_tie", "generic(2)"))
    train_frame, holdout = pl.split_train_holdout(pl.generate(spec), 0.2, 17)
    bmap = {n: pl.uniform_boundaries(n, 16) for n in train_frame.feature_names}
    manifest = pl.build_manifest(train_frame, tuple(bmap), spec.treatment_labels(), bmap,
                                 17, 5, 60).lock()
    base = pl.partition(train_frame, 4)
    kind = pl.PerturbationKind
    layouts = (base,
               pl.apply_perturbation(base, pl.PerturbationSpec(kind.REPARTITION,
                                                               target_partitions=7)),
               pl.apply_perturbation(base, pl.PerturbationSpec(kind.SHUFFLE_ROWS, seed=17)))
    for path in pl.EXECUTION_PATHS:
        for data in layouts:
            tree = pl.train(data, manifest, path)
            yield tree, pl.make_witness(tree, holdout)


def _train_signatures():
    return [pl.signature(tree).text.encode() for tree, _ in _trained()]


def _train_witnesses():
    chunks = []
    for _, witness in _trained():
        a = witness.assignments
        chunks += [witness.signature.digest, a.row_ids.tobytes(), list(a.treatment_labels),
                   a.vectors, a.top_index.tobytes(), a.leaf_paths.tolist(),
                   a.leaf_index.tobytes(), witness.metrics]
    return chunks


COMPONENTS = {
    "bin_rows.uint8": lambda: _bin_rows_chunks(_uint8_instance()),
    "bin_rows.uint16": lambda: _bin_rows_chunks(_uint16_instance()),
    "build_prefix_sums": lambda: _table_records(pl.build_prefix_sums),
    "windowed_prefix_table": lambda: _table_records(pl.windowed_prefix_table),
    "best_split.small": _small_splits,
    "best_split.mixed_b": _mixed_splits,
    "best_split.wide": _wide_splits,
    "train.signature": _train_signatures,
    "train.witness": _train_witnesses,
}


def digest(component: str) -> str:
    """The BLAKE2b digest of one component's bytes."""
    return _digest(COMPONENTS[component]())


if __name__ == "__main__":
    for name in COMPONENTS:
        print(f"{name:24s} {digest(name)}")
