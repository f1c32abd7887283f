"""Experiment driver: desk-scale analogs of the validation blocks, with
machine-readable result bundles and deterministic semantic fields.

Blocks: P1 inference ladder, P2 split-search feature scale, C1/C2 backend
parity, E1 end-to-end preservation, F1 failure catalog, F2 boundary
sensitivity, F3 missingness stress, S1 partition/order robustness, S2
batch-size x model-shape backend ablation.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AlignmentError, InvalidArgumentError
from .frame import (ColumnFrame, PerturbationKind, PerturbationSpec,
                    apply_perturbation, partition)
from .forest import ForestArrays, random_forest
from .inference import (InferenceBackend, measure_throughput, score,
                        parity_from_columns)
from .splitsearch import (Boundaries, SplitConfig, best_split, candidate_row_count,
                          naive_variant_best_split, uniform_boundaries,
                          approx_quantile_boundaries,
                          EXECUTION_PATHS, NAIVE_VARIANTS, PATH_REFERENCE,
                          PATH_RELATIONAL, PATH_PARTITIONED,
                          STATUS_OK, STATUS_NO_VALID, STATUS_SKIPPED_TOO_LARGE)
from .synth import SynthSpec, generate, split_train_holdout
from .trainer import (build_manifest, train, train_unlocked_naive, signature,
                      make_witness, witness_compare)
from . import rng

BLOCKS = ("P1", "P2", "C1", "C2", "E1", "F1", "F2", "F3", "S1", "S2")

STATUS_SKIPPED_TOO_SLOW = "skipped_too_slow"

# fields excluded from determinism comparisons (timings, not semantics)
TIMING_FIELDS = frozenset({"wall_seconds", "rows_per_second", "samples",
                           "runtime_seconds", "winner_rows_per_second",
                           "loser_rows_per_second"})

CONTRACT_RULES = {
    "no_total_order": "deterministic total candidate order",
    "first_seen_control": "explicit control priority",
    "sparse_omit": "zero-fill plus full validity checks",
    "implicit_missing": "evaluate both missing directions explicitly",
    "recomputed_quantiles": "shared fixed boundaries",
}

_DEFAULT_KNOBS: dict[str, dict] = {
    "P1": {"n_rows_grid": [100000, 1000000], "n_features": 32, "n_treatments": 4,
           "n_trees": 50, "depth": 7, "batch_size": 10000, "repeats": 3,
           "rowwise_cap": 20000, "anti_cap": 200, "wall_cap_seconds": 120.0},
    "P2": {"feature_grid": [10, 50, 250, 1000], "n_rows": 100000, "n_treatments": 4,
           "n_bins": 32, "safety_skip_threshold": 100000, "min_leaf_size": 100},
    "C1": {"n_rows": 100000, "n_features": 32, "n_treatments": 4, "n_trees": 50,
           "depth": 7, "batch_size": 10000, "tolerance": 1e-9, "anti_slice_rows": 600,
           "partitions": 4},
    "C2": {"n_rows": 50000, "n_treatments": 4, "n_bins": 32, "min_leaf_size": 1000,
           "p_miss": 0.1, "random_instances": 100},
    "E1": {"n_rows": 16000, "depth_grid": [1, 2, 3, 4], "partition_grid": [1, 4, 16],
           "extended_treatments": [4, 8], "extended_p_miss": [0.0, 0.3],
           "extended_depth": 2, "min_leaf_size": 400, "holdout_fraction": 0.2,
           "n_bins": 32},
    "F1": {"n_rows": 100000, "treatment_grid": [4, 8], "p_miss_grid": [0.0, 0.3],
           "skew_grid": ["balanced", "severe"], "n_bins": 32, "min_leaf_size": 100},
    "F2": {"n_rows": 50000, "n_bins": 32, "min_leaf_size": 2000, "depth": 2,
           "holdout_fraction": 0.2, "p_miss": 0.1},
    "F3": {"n_rows": 6000, "p_miss_grid": [0.0, 0.1, 0.3, 0.5],
           "encodings": ["null", "nan"],
           "focuses": ["control_arm", "treated_arms", "positive_outcome"],
           "e2e_p_miss": [0.1, 0.3, 0.5], "n_bins": 32, "min_leaf_size": 200,
           "depth": 2, "holdout_fraction": 0.2, "partitions": 4},
    "S1": {"n_rows": 20000, "n_bins": 32, "min_leaf_size": 400, "depth": 2,
           "holdout_fraction": 0.2, "partitions": 4, "shuffle_seed": 13},
    "S2": {"n_rows": 200000, "batch_grid": [1000, 10000, 50000],
           "depth_grid": [5, 7], "tree_grid": [20, 50], "treatment_grid": [4, 8],
           "repeats": 3, "wall_cap_seconds": 120.0},
}


@dataclass(frozen=True)
class ExperimentSpec:
    block: str
    seed: int = 7
    out_dir: Optional[str] = None
    knobs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.block not in BLOCKS:
            raise InvalidArgumentError(f"unknown block {self.block!r}")
        defaults = _DEFAULT_KNOBS[self.block]
        unknown = set(self.knobs) - set(defaults)
        if unknown:
            raise InvalidArgumentError(
                f"unknown knobs for block {self.block}: {sorted(unknown)}")

    def knob(self, name: str):
        return self.knobs.get(name, _DEFAULT_KNOBS[self.block][name])


@dataclass
class ResultBundle:
    block: str
    seed: int
    knobs: dict
    cases: list[dict] = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.get("pass", True) for c in self.cases
                   if not str(c.get("status", "")).startswith("skipped"))

    def to_record(self) -> dict:
        return {"block": self.block, "seed": self.seed, "knobs": self.knobs,
                "cases": self.cases, "environment": self.environment,
                "passed": self.passed}

    def semantic_view(self) -> dict:
        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items() if k not in TIMING_FIELDS}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj
        return strip(self.to_record())


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpus": os.cpu_count()}


def inference_fixture(n_rows: int, n_features: int, n_treatments: int, n_trees: int,
                      depth: int, seed: int, p_miss: float = 0.05,
                      n_coded: int = 4) -> tuple[ColumnFrame, ForestArrays]:
    """Deterministic scoring fixture: mixed continuous and integer-coded
    columns, missing cells split between NULL and NaN encodings, and a random
    valid forest with categorical nodes on the coded columns."""
    names = tuple(f"f{i:02d}" for i in range(n_features))
    labels = ("control",) + tuple(f"treat_{chr(ord('a') + i)}"
                                  for i in range(n_treatments - 1))
    values, valid = [], []
    for i, name in enumerate(names):
        u = rng.uniform_stream(seed, f"fixture:{name}", n_rows)
        vals = np.floor(u * 4.0) if i < n_coded else u
        ok = np.ones(n_rows, dtype=bool)
        if p_miss > 0.0:
            miss = rng.uniform_stream(seed, f"fixture-miss:{name}", n_rows) < p_miss
            vals = vals.copy()
            if i % 2 == 0:
                ok = ~miss
                vals[miss] = 0.0
            else:
                vals[miss] = np.nan
        values.append(vals)
        valid.append(ok)
    codes = rng.choice_from_probs(seed, "fixture-treatment", n_rows,
                                  [1.0 / n_treatments] * n_treatments)
    treatments = np.array(labels, dtype=object)[codes]
    outcomes = (rng.uniform_stream(seed, "fixture-outcome", n_rows) < 0.3).astype(np.int64)
    frame = ColumnFrame(np.arange(n_rows, dtype=np.int64), names, values, valid,
                        treatments, outcomes)
    forest = random_forest(n_trees, depth, names, labels, seed=seed + 1,
                           categorical_features=range(n_coded))
    return frame, forest


def random_small_instance(seed: int):
    """Random small split-search instance for oracle and parity sweeps:
    N <= 1000, B <= 8, T <= 4."""
    words = rng.u64_stream(seed, "small-instance", 8)
    n = 20 + int(words[0] % 981)
    T = 2 + int(words[1] % 3)
    B = 2 + int(words[2] % 7)
    p_miss = float((words[3] % 5)) / 10.0
    n_features = 1 + int(words[4] % 3)
    min_leaf = 1 + int(words[5] % 20)
    names = tuple(f"g{i}" for i in range(n_features))
    labels = tuple(str(i) for i in range(T))
    values, valid = [], []
    for i, name in enumerate(names):
        vals = rng.uniform_stream(seed, f"vals:{name}", n)
        ok = np.ones(n, dtype=bool)
        if p_miss > 0:
            miss = rng.uniform_stream(seed, f"miss:{name}", n) < p_miss
            vals = vals.copy()
            if i % 2:
                vals[miss] = np.nan
            else:
                ok = ~miss
                vals[miss] = 0.0
        values.append(vals)
        valid.append(ok)
    codes = rng.choice_from_probs(seed, "codes", n, [1.0 / T] * T)
    outcomes = (rng.uniform_stream(seed, "out", n) < 0.4).astype(np.int64)
    frame = ColumnFrame(np.arange(n, dtype=np.int64), names, values, valid,
                        np.array(labels, dtype=object)[codes], outcomes)
    cut_draws = np.sort(rng.uniform_stream(seed, "cuts", 64))
    bmap = {}
    for i, name in enumerate(names):
        cuts = np.unique(np.round(cut_draws[i * (B - 1):(i + 1) * (B - 1)], 6))
        bmap[name] = Boundaries(name, tuple(cuts)) if len(cuts) else \
            uniform_boundaries(name, B)
    config = SplitConfig(min_leaf_size=min_leaf)
    return frame, names, bmap, labels, config


def _adversarial_spec(seed: int, n_rows: int, n_treatments: int = 4,
                      p_miss: float = 0.1, skew: str = "balanced",
                      focus: str = "uniform", encoding: str = "null") -> SynthSpec:
    return SynthSpec(n_rows=n_rows, n_treatments=n_treatments, seed=seed, skew=skew,
                     p_miss=p_miss, missing_encoding=encoding, missing_focus=focus,
                     families=("x_tie", "x_sparse", "x_miss", "x_control", "x_boundary"))


def _witness_spec(seed: int, n_rows: int, n_treatments: int = 4, p_miss: float = 0.1,
                  encoding: str = "null", focus: str = "uniform") -> SynthSpec:
    return SynthSpec(n_rows=n_rows, n_treatments=n_treatments, seed=seed,
                     p_miss=p_miss, missing_encoding=encoding, missing_focus=focus,
                     families=("x_boundary", "x_miss", "generic(2)"))


def run_block(spec: ExperimentSpec) -> ResultBundle:
    bundle = ResultBundle(spec.block, spec.seed, dict(spec.knobs),
                          environment=_environment())
    runner: Callable[[ExperimentSpec, ResultBundle], None] = _RUNNERS[spec.block]
    runner(spec, bundle)
    return bundle


# ---------------------------------------------------------------------------
# block runners
# ---------------------------------------------------------------------------


def _run_p1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    caps = {"anti_pattern": spec.knob("anti_cap"),
            "broadcast_rowwise": spec.knob("rowwise_cap"),
            "vectorized_columnar": None, "vectorized_rowmajor": None}
    wall_cap = spec.knob("wall_cap_seconds")
    repeats = spec.knob("repeats")
    rates: dict[tuple[str, int], float] = {}
    too_slow: dict[str, float] = {}
    for n_rows in spec.knob("n_rows_grid"):
        frame, forest = inference_fixture(
            n_rows, spec.knob("n_features"), spec.knob("n_treatments"),
            spec.knob("n_trees"), spec.knob("depth"), spec.seed,
            p_miss=0.0, n_coded=0)
        pf = partition(frame, 4)
        for kind in ("anti_pattern", "broadcast_rowwise", "vectorized_columnar",
                     "vectorized_rowmajor"):
            if kind in too_slow:
                bundle.cases.append({"case": "throughput", "method": kind,
                                     "n_rows": n_rows,
                                     "status": STATUS_SKIPPED_TOO_SLOW,
                                     "reason": "earlier size exceeded wall cap",
                                     "wall_cap_seconds": wall_cap,
                                     "triggering_wall_seconds": too_slow[kind]})
                continue
            backend = InferenceBackend(kind, spec.knob("batch_size"))
            report = measure_throughput(pf, forest, backend, repeats=repeats,
                                        max_rows=caps[kind])
            rates[(kind, n_rows)] = report.rows_per_second
            rec = report.to_record()
            rec.update({"case": "throughput", "method": kind, "status": "ok",
                        "requested_rows": n_rows, "pass": True})
            bundle.cases.append(rec)
            if report.wall_seconds > wall_cap:
                too_slow[kind] = report.wall_seconds
    top_n = max(spec.knob("n_rows_grid"))
    vec = rates.get(("vectorized_columnar", top_n))
    row = rates.get(("broadcast_rowwise", top_n))
    anti = rates.get(("anti_pattern", top_n))
    if vec is not None and row is not None:
        bundle.cases.append({"case": "ladder", "comparison": "vectorized_vs_rowwise",
                             "n_rows": top_n, "ratio": vec / row,
                             "threshold": 10.0, "pass": vec >= 10.0 * row})
    if row is not None and anti is not None:
        bundle.cases.append({"case": "ladder", "comparison": "rowwise_vs_anti",
                             "n_rows": top_n, "ratio": row / anti,
                             "threshold": 2.0, "pass": row >= 2.0 * anti})


def _run_p2(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    n_rows = spec.knob("n_rows")
    T = spec.knob("n_treatments")
    B = spec.knob("n_bins")
    threshold = spec.knob("safety_skip_threshold")
    for F in spec.knob("feature_grid"):
        synth = SynthSpec(n_rows=n_rows, n_treatments=T, seed=spec.seed,
                          families=(f"generic({F})",))
        frame = generate(synth)
        labels = synth.treatment_labels()
        bmap = {name: uniform_boundaries(name, B) for name in frame.feature_names}
        expected_rows = candidate_row_count(F, B, T)
        cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"),
                          safety_skip_threshold=threshold)
        results = {}
        for path in EXECUTION_PATHS:
            t0 = time.perf_counter()
            res = best_split(frame, frame.feature_names, bmap, labels,
                             cfg.with_path(path))
            elapsed = time.perf_counter() - t0
            results[path] = res
            expect_skip = path == PATH_REFERENCE and expected_rows > threshold
            ok = (res.status == STATUS_SKIPPED_TOO_LARGE) if expect_skip \
                else (res.status == STATUS_OK)
            bundle.cases.append({
                "case": "split_scale", "path": path, "n_features": F,
                "candidate_rows": res.candidate_rows,
                "expected_candidate_rows": expected_rows,
                "status": res.status, "runtime_seconds": elapsed,
                "best": res.best.as_tuple() if res.best else None,
                "pass": ok and res.candidate_rows == expected_rows})
        ok_paths = [p for p in EXECUTION_PATHS if results[p].status == STATUS_OK]
        tuples = {results[p].best.as_tuple() for p in ok_paths}
        bundle.cases.append({"case": "path_agreement", "n_features": F,
                             "paths_ok": ok_paths, "distinct_tuples": len(tuples),
                             "pass": len(tuples) <= 1})
        del frame


def _run_c1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    frame, forest = inference_fixture(
        spec.knob("n_rows"), spec.knob("n_features"), spec.knob("n_treatments"),
        spec.knob("n_trees"), spec.knob("depth"), spec.seed)
    pf = partition(frame, spec.knob("partitions"))
    tol = spec.knob("tolerance")
    batch = spec.knob("batch_size")
    full = ("broadcast_rowwise", "vectorized_columnar", "vectorized_rowmajor")
    columns = {k: score(pf, forest, InferenceBackend(k, batch)) for k in full}
    for i, a in enumerate(full):
        for b in full[i + 1:]:
            rep = parity_from_columns(columns[a], columns[b], a, b, tol)
            rec = rep.to_record()
            rec.update({"case": "parity", "scope": "full",
                        "pass": rep.mismatch_rows == 0 and rep.max_abs_delta == 0.0})
            bundle.cases.append(rec)
    # anti_pattern re-parses the model per row; parity is checked on a
    # deterministic leading slice where that cost stays practical
    slice_rows = min(spec.knob("anti_slice_rows"), frame.n_rows)
    sliced = partition(frame.take(np.arange(slice_rows)), 2)
    anti_col = score(sliced, forest, InferenceBackend("anti_pattern", batch))
    for b in full:
        ref = score(sliced, forest, InferenceBackend(b, batch))
        rep = parity_from_columns(anti_col, ref, "anti_pattern", b, tol)
        rec = rep.to_record()
        rec.update({"case": "parity", "scope": f"slice:{slice_rows}",
                    "pass": rep.mismatch_rows == 0 and rep.max_abs_delta == 0.0})
        bundle.cases.append(rec)


def _run_c2(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    synth = _witness_spec(spec.seed, spec.knob("n_rows"), spec.knob("n_treatments"),
                          spec.knob("p_miss"))
    frame = generate(synth)
    labels = synth.treatment_labels()
    bmap = {n: uniform_boundaries(n, spec.knob("n_bins")) for n in frame.feature_names}
    cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"))
    results = {p: best_split(frame, frame.feature_names, bmap, labels, cfg.with_path(p))
               for p in EXECUTION_PATHS}
    tuples = {p: r.best.as_tuple() if r.best else None for p, r in results.items()}
    ref_tuple = tuples[PATH_REFERENCE]
    bundle.cases.append({
        "case": "fixture_parity", "tuples": {p: list(t) if t else None
                                             for p, t in tuples.items()},
        "best": list(ref_tuple) if ref_tuple else None,
        "pass": all(t == ref_tuple for t in tuples.values()) and ref_tuple is not None})

    adv = _adversarial_spec(spec.seed, max(spec.knob("n_rows") // 2, 1000))
    adv_frame = generate(adv)
    adv_labels = adv.treatment_labels()
    adv_bmap = {n: uniform_boundaries(n, spec.knob("n_bins"))
                for n in adv_frame.feature_names}
    adv_results = {p: best_split(adv_frame, adv_frame.feature_names, adv_bmap,
                                 adv_labels, cfg.with_path(p))
                   for p in EXECUTION_PATHS}
    adv_tuples = {p: r.best.as_tuple() if r.best else None for p, r in adv_results.items()}
    ref_adv = adv_tuples[PATH_REFERENCE]
    bundle.cases.append({
        "case": "adversarial_fixture_parity",
        "tuples": {p: list(t) if t else None for p, t in adv_tuples.items()},
        "pass": all(t == ref_adv for t in adv_tuples.values())})

    mismatches = 0
    for i in range(spec.knob("random_instances")):
        inst_frame, names, inst_bmap, inst_labels, inst_cfg = \
            random_small_instance(spec.seed * 1000 + i)
        outs = [best_split(inst_frame, names, inst_bmap, inst_labels,
                           inst_cfg.with_path(p)) for p in EXECUTION_PATHS]
        ts = {(o.status, o.best.as_tuple() if o.best else None) for o in outs}
        if len(ts) != 1:
            mismatches += 1
    bundle.cases.append({"case": "random_instance_parity",
                         "instances": spec.knob("random_instances"),
                         "mismatching_instances": mismatches, "pass": mismatches == 0})


def _preservation_case(frame, holdout, labels, bmap, depth, min_leaf, partitions,
                       seed) -> dict:
    manifest = build_manifest(frame, tuple(bmap), labels, bmap, seed, depth,
                              min_leaf).lock()
    witnesses = []
    for path in EXECUTION_PATHS:
        for P in partitions:
            data = partition(frame, P) if P > 1 else frame
            tree = train(data, manifest, path)
            witnesses.append(make_witness(tree, holdout))
    base = witnesses[0]
    sig_equal = all(w.signature.digest == base.signature.digest for w in witnesses)
    max_mismatch = max_leaf = 0
    for w in witnesses[1:]:
        rep = witness_compare(base, w)
        max_mismatch = max(max_mismatch, rep.policy_vector_mismatches)
        max_leaf = max(max_leaf, rep.leaf_mismatches)
    return {"backends": len(witnesses), "same_signature": sig_equal,
            "max_policy_mismatches": max_mismatch, "max_leaf_mismatches": max_leaf,
            "policy_value": base.metrics["policy_value"],
            "auuc": base.metrics["auuc"], "qini": base.metrics["qini"],
            "pass": sig_equal and max_mismatch == 0 and max_leaf == 0}


def _run_e1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    B = spec.knob("n_bins")
    min_leaf = spec.knob("min_leaf_size")
    partitions = spec.knob("partition_grid")
    base_spec = _witness_spec(spec.seed, spec.knob("n_rows"))
    frame = generate(base_spec)
    train_fr, hold_fr = split_train_holdout(frame, spec.knob("holdout_fraction"),
                                            spec.seed)
    labels = base_spec.treatment_labels()
    bmap = {n: uniform_boundaries(n, B) for n in frame.feature_names}
    for depth in spec.knob("depth_grid"):
        rec = _preservation_case(train_fr, hold_fr, labels, bmap, depth, min_leaf,
                                 partitions, spec.seed)
        rec.update({"case": "depth_preservation", "depth": depth})
        bundle.cases.append(rec)
    for T in spec.knob("extended_treatments"):
        for p_miss in spec.knob("extended_p_miss"):
            ext = _witness_spec(spec.seed, spec.knob("n_rows"), T, p_miss)
            ext_frame = generate(ext)
            tr, ho = split_train_holdout(ext_frame, spec.knob("holdout_fraction"),
                                         spec.seed)
            rec = _preservation_case(tr, ho, ext.treatment_labels(),
                                     {n: uniform_boundaries(n, B)
                                      for n in ext_frame.feature_names},
                                     spec.knob("extended_depth"), min_leaf,
                                     partitions, spec.seed)
            rec.update({"case": "extended_grid", "n_treatments": T, "p_miss": p_miss})
            bundle.cases.append(rec)


def _run_f1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    B = spec.knob("n_bins")
    cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"))
    drift_stats: dict[str, dict] = {v: {"drift": 0, "accepted_invalid": 0,
                                        "features": set(), "max_score_delta": 0.0,
                                        "zero_delta_drifts": 0}
                                    for v in NAIVE_VARIANTS}
    for T in spec.knob("treatment_grid"):
        for p_miss in spec.knob("p_miss_grid"):
            for skew in spec.knob("skew_grid"):
                synth = _adversarial_spec(spec.seed, spec.knob("n_rows"), T,
                                          p_miss, skew)
                frame = generate(synth)
                labels = synth.treatment_labels()
                shuffled = apply_perturbation(
                    partition(frame, 4),
                    PerturbationSpec(PerturbationKind.SHUFFLE_ROWS, seed=spec.seed + 99))
                bmap_all = {n: uniform_boundaries(n, B) for n in frame.feature_names}
                for feat in frame.feature_names:
                    bmap = {feat: bmap_all[feat]}
                    contract = best_split(frame, [feat], bmap, labels, cfg)
                    c_tuple = contract.best.as_tuple() if contract.best else None
                    for variant in NAIVE_VARIANTS:
                        stats = drift_stats[variant]
                        for order_name, data in (("original", frame),
                                                 ("shuffled", shuffled)):
                            naive = naive_variant_best_split(variant, data, [feat],
                                                             bmap, labels, cfg)
                            n_tuple = naive.best.as_tuple() if naive.best else None
                            drifted = False
                            accepted_invalid = False
                            score_delta = None
                            if contract.status != STATUS_OK and naive.status == STATUS_OK:
                                accepted_invalid = True
                                drifted = True
                            elif contract.status == STATUS_OK and naive.status == STATUS_OK:
                                if n_tuple[:4] != c_tuple[:4]:
                                    drifted = True
                                score_delta = abs(n_tuple[4] - c_tuple[4])
                            elif contract.status != naive.status:
                                drifted = True
                            if drifted:
                                stats["drift"] += 1
                                stats["features"].add(feat)
                                if accepted_invalid:
                                    stats["accepted_invalid"] += 1
                                if score_delta is not None:
                                    stats["max_score_delta"] = max(
                                        stats["max_score_delta"], score_delta)
                                    if score_delta == 0.0:
                                        stats["zero_delta_drifts"] += 1
                                bundle.cases.append({
                                    "case": "drift_observation", "variant": variant,
                                    "feature": feat, "n_treatments": T,
                                    "p_miss": p_miss, "skew": skew,
                                    "order": order_name,
                                    "accepted_invalid": accepted_invalid,
                                    "score_delta": score_delta,
                                    "contract": list(c_tuple) if c_tuple else None,
                                    "naive": list(n_tuple) if n_tuple else None})
    for variant in NAIVE_VARIANTS:
        stats = drift_stats[variant]
        ok = stats["drift"] >= 1
        if variant == "sparse_omit":
            ok = ok and stats["accepted_invalid"] >= 1
        if variant == "no_total_order":
            ok = ok and stats["zero_delta_drifts"] >= 1
        bundle.cases.append({
            "case": "catalog_row", "failure_mode": variant,
            "drift_cases": stats["drift"],
            "accepted_invalid_cases": stats["accepted_invalid"],
            "affected_features": sorted(stats["features"]),
            "largest_score_delta": stats["max_score_delta"],
            "contract_rule": CONTRACT_RULES[variant], "pass": ok})


def _run_f2(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    B = spec.knob("n_bins")
    synth = SynthSpec(n_rows=spec.knob("n_rows"), n_treatments=4, seed=spec.seed,
                      p_miss=spec.knob("p_miss"),
                      families=("x_boundary", "generic(2)"))
    frame = generate(synth)
    labels = synth.treatment_labels()
    train_fr, hold_fr = split_train_holdout(frame, spec.knob("holdout_fraction"),
                                            spec.seed)
    # the witness isolates one planted cut, as in the frozen-vs-nudged story
    bmap = {n: uniform_boundaries(n, B) for n in frame.feature_names}
    bmap["x_boundary"] = Boundaries("x_boundary", (0.5,))
    nudged = dict(bmap)
    nudged["x_boundary"] = Boundaries("x_boundary", (0.4999999999,))

    depth = spec.knob("depth")
    min_leaf = spec.knob("min_leaf_size")
    man_a = build_manifest(train_fr, tuple(bmap), labels, bmap, spec.seed, depth,
                           min_leaf).lock()
    man_b = build_manifest(train_fr, tuple(nudged), labels, nudged, spec.seed, depth,
                           min_leaf).lock()
    wa = make_witness(train(train_fr, man_a), hold_fr)
    wb = make_witness(train(train_fr, man_b), hold_fr)
    rep = witness_compare(wa, wb)
    bundle.cases.append({
        "case": "boundary_witness", "fixed": "b=[0.5]",
        "recomputed": "b=[0.4999999999]",
        "signature_drift": not rep.signature_equal,
        "assignment_agreement": rep.top_agreement,
        "policy_mismatches": rep.policy_vector_mismatches,
        "leaf_mismatches": rep.leaf_mismatches,
        "max_delta": rep.max_vector_delta,
        "auuc_abs_delta": rep.metric_deltas["auuc"],
        "qini_abs_delta": rep.metric_deltas["qini"],
        "pass": not rep.signature_equal})

    # shared fixed grid versus an independently recomputed approximate grid
    cfg = SplitConfig(min_leaf_size=min_leaf)
    grid = {"x_boundary": uniform_boundaries("x_boundary", B)}
    fixed_res = best_split(train_fr, ["x_boundary"], grid, labels, cfg)
    recomputed = approx_quantile_boundaries(partition(train_fr, 4), "x_boundary", B)
    recomputed_differs = recomputed is None or \
        recomputed.cuts != grid["x_boundary"].cuts
    rec_res = None
    if recomputed is not None:
        rec_res = best_split(train_fr, ["x_boundary"], {"x_boundary": recomputed},
                             labels, cfg)
    bundle.cases.append({
        "case": "recomputed_quantiles",
        "fixed_status": fixed_res.status,
        "fixed_best": list(fixed_res.best.as_tuple()) if fixed_res.best else None,
        "recomputed_cuts_differ": recomputed_differs,
        "recomputed_status": rec_res.status if rec_res else "no_boundaries",
        "recomputed_best": list(rec_res.best.as_tuple())
            if rec_res and rec_res.best else None,
        "pass": fixed_res.status == STATUS_OK and recomputed_differs})


def _run_f3(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    B = spec.knob("n_bins")
    cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"))
    backends = ("broadcast_rowwise", "vectorized_columnar", "vectorized_rowmajor")
    for p_miss in spec.knob("p_miss_grid"):
        for encoding in spec.knob("encodings"):
            for focus in spec.knob("focuses"):
                synth = _witness_spec(spec.seed, spec.knob("n_rows"),
                                      p_miss=p_miss, encoding=encoding, focus=focus)
                frame = generate(synth)
                labels = synth.treatment_labels()
                pf = partition(frame, spec.knob("partitions"))
                forest = random_forest(10, 4, frame.feature_names, labels,
                                       seed=spec.seed + 5)
                cols = {k: score(pf, forest, InferenceBackend(k)) for k in backends}
                for i, a in enumerate(backends):
                    for b in backends[i + 1:]:
                        rep = parity_from_columns(cols[a], cols[b], a, b)
                        bundle.cases.append({
                            "case": "d1_parity", "p_miss": p_miss,
                            "encoding": encoding, "focus": focus,
                            "pair": f"{a}|{b}",
                            "mismatch_rows": rep.mismatch_rows,
                            "max_abs_delta": rep.max_abs_delta,
                            "pass": rep.mismatch_rows == 0 and rep.max_abs_delta == 0.0})
                bmap = {n: uniform_boundaries(n, B) for n in frame.feature_names}
                outs = {p: best_split(pf, frame.feature_names, bmap, labels,
                                      cfg.with_path(p)) for p in EXECUTION_PATHS}
                tuples = {(o.status, o.best.as_tuple() if o.best else None)
                          for o in outs.values()}
                for p in EXECUTION_PATHS:
                    bundle.cases.append({
                        "case": "d2_parity", "p_miss": p_miss, "encoding": encoding,
                        "focus": focus, "path": p, "status": outs[p].status,
                        "best": list(outs[p].best.as_tuple()) if outs[p].best else None,
                        "pass": len(tuples) == 1})
                if p_miss in spec.knob("e2e_p_miss"):
                    tr, ho = split_train_holdout(frame, spec.knob("holdout_fraction"),
                                                 spec.seed)
                    manifest = build_manifest(tr, tuple(bmap), labels, bmap, spec.seed,
                                              spec.knob("depth"),
                                              spec.knob("min_leaf_size")).lock()
                    wits = [make_witness(train(tr, manifest, p), ho)
                            for p in EXECUTION_PATHS]
                    for i, p in enumerate(EXECUTION_PATHS):
                        rep = witness_compare(wits[0], wits[i])
                        bundle.cases.append({
                            "case": "e2e_witness", "p_miss": p_miss,
                            "encoding": encoding, "focus": focus, "path": p,
                            "signature_equal": rep.signature_equal,
                            "policy_mismatches": rep.policy_vector_mismatches,
                            "leaf_mismatches": rep.leaf_mismatches,
                            "pass": rep.signature_equal
                                    and rep.policy_vector_mismatches == 0
                                    and rep.leaf_mismatches == 0})


def _s1_variants(base_partitions: int, shuffle_seed: int) -> list[tuple[str, Optional[PerturbationSpec]]]:
    return [
        ("repartition_2", PerturbationSpec(PerturbationKind.REPARTITION, target_partitions=2)),
        ("repartition_8", PerturbationSpec(PerturbationKind.REPARTITION, target_partitions=8)),
        ("coalesce_2", PerturbationSpec(PerturbationKind.COALESCE, target_partitions=2)),
        ("shuffle", PerturbationSpec(PerturbationKind.SHUFFLE_ROWS, seed=shuffle_seed,
                                     applied_before_lock=True)),
        ("sort_on", PerturbationSpec(PerturbationKind.SORT_WITHIN_PARTITION,
                                     key="row_id", ascending=False)),
        ("sort_off", None),
    ]


def _run_s1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    synth = SynthSpec(n_rows=spec.knob("n_rows"), n_treatments=4, seed=spec.seed,
                      p_miss=0.1, families=("x_boundary", "x_miss", "x_tie",
                                            "generic(1)"))
    frame = generate(synth)
    labels = synth.treatment_labels()
    train_fr, hold_fr = split_train_holdout(frame, spec.knob("holdout_fraction"),
                                            spec.seed)
    B = spec.knob("n_bins")
    bmap = {n: uniform_boundaries(n, B) for n in train_fr.feature_names}
    depth = spec.knob("depth")
    min_leaf = spec.knob("min_leaf_size")
    manifest = build_manifest(train_fr, tuple(bmap), labels, bmap, spec.seed, depth,
                              min_leaf).lock()
    base_pf = partition(train_fr, spec.knob("partitions"))
    variants = _s1_variants(spec.knob("partitions"), spec.knob("shuffle_seed"))

    locked_base = make_witness(train(base_pf, manifest), hold_fr)
    preserved = 0
    for name, pert in variants:
        data = apply_perturbation(base_pf, pert) if pert else base_pf
        wit = make_witness(train(data, manifest), hold_fr)
        rep = witness_compare(locked_base, wit)
        ok = rep.signature_equal and rep.policy_vector_mismatches == 0 \
            and rep.leaf_mismatches == 0
        preserved += ok
        bundle.cases.append({"case": "after_lock", "variant": name,
                             "same_signature": rep.signature_equal,
                             "policy_mismatches": rep.policy_vector_mismatches,
                             "leaf_mismatches": rep.leaf_mismatches,
                             "max_vector_delta": rep.max_vector_delta, "pass": ok})
    bundle.cases.append({"case": "after_lock_summary", "preserved": preserved,
                         "variants": len(variants), "pass": preserved == len(variants)})

    naive_base = make_witness(
        train_unlocked_naive(base_pf, bmap, depth, min_leaf), hold_fr)
    drifted = 0
    for name, pert in variants:
        data = apply_perturbation(base_pf, pert) if pert else base_pf
        tree = train_unlocked_naive(data, bmap, depth, min_leaf)
        wit = make_witness(tree, hold_fr)
        try:
            rep = witness_compare(naive_base, wit)
            drift = (not rep.signature_equal) or rep.policy_vector_mismatches > 0 \
                or rep.leaf_mismatches > 0
            sig_equal = rep.signature_equal
        except AlignmentError:
            drift, sig_equal = True, False
        drifted += drift
        bundle.cases.append({"case": "before_lock", "variant": name,
                             "same_signature": sig_equal, "drift": drift})
    bundle.cases.append({"case": "before_lock_summary", "drifted": drifted,
                         "variants": len(variants), "pass": drifted >= 1})


def _run_s2(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    repeats = spec.knob("repeats")
    n_rows = spec.knob("n_rows")
    wins = {"vectorized_columnar": 0, "vectorized_rowmajor": 0}
    for T in spec.knob("treatment_grid"):
        for depth in spec.knob("depth_grid"):
            for n_trees in spec.knob("tree_grid"):
                frame, forest = inference_fixture(n_rows, 32, T, n_trees, depth,
                                                  spec.seed)
                pf = partition(frame, 4)
                for batch in spec.knob("batch_grid"):
                    rates = {}
                    for kind in ("vectorized_columnar", "vectorized_rowmajor"):
                        rep = measure_throughput(pf, forest,
                                                 InferenceBackend(kind, batch),
                                                 repeats=repeats)
                        rates[kind] = rep.rows_per_second
                    winner = max(rates, key=lambda k: rates[k])
                    wins[winner] += 1
                    bundle.cases.append({
                        "case": "backend_cell", "batch_size": batch, "depth": depth,
                        "n_trees": n_trees, "n_treatments": T, "winner": winner,
                        "winner_rows_per_second": rates[winner],
                        "loser_rows_per_second": min(rates.values()), "pass": True})
    bundle.cases.append({"case": "crossover_summary", "wins": wins,
                         "cells": sum(wins.values()), "pass": True})


_RUNNERS = {"P1": _run_p1, "P2": _run_p2, "C1": _run_c1, "C2": _run_c2,
            "E1": _run_e1, "F1": _run_f1, "F2": _run_f2, "F3": _run_f3,
            "S1": _run_s1, "S2": _run_s2}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _flatten(value) -> str:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return "" if value is None else str(value)


def emit_report(bundle: ResultBundle, fmt: str, out_dir: str) -> list[str]:
    """Write the bundle in json, csv, or markdown-summary form; emission is
    byte-deterministic for a given bundle."""
    if fmt == "markdown":
        fmt = "markdown-summary"
    os.makedirs(out_dir, exist_ok=True)
    written = []
    base = os.path.join(out_dir, f"{bundle.block.lower()}_report")
    if fmt == "json":
        path = base + ".json"
        with open(path, "w") as fh:
            json.dump(bundle.to_record(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    elif fmt == "csv":
        path = base + ".csv"
        keys: list[str] = []
        for case in bundle.cases:
            for k in case:
                if k not in keys:
                    keys.append(k)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for case in bundle.cases:
            writer.writerow([_flatten(case.get(k)) for k in keys])
        with open(path, "w") as fh:
            fh.write(buf.getvalue())
        written.append(path)
    elif fmt == "markdown-summary":
        path = base + ".md"
        with open(path, "w") as fh:
            fh.write(_markdown_summary(bundle))
        written.append(path)
    else:
        raise InvalidArgumentError(f"unknown report format {fmt!r}")
    return written


def _md_table(rows: list[dict], columns: list[str]) -> str:
    out = ["| " + " | ".join(columns) + " |",
           "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        out.append("| " + " | ".join(_flatten(row.get(c)) for c in columns) + " |")
    return "\n".join(out) + "\n"


def _markdown_summary(bundle: ResultBundle) -> str:
    lines = [f"# Block {bundle.block} (seed {bundle.seed})", "",
             f"overall: {'PASS' if bundle.passed else 'FAIL'}", ""]
    if bundle.block == "F1":
        rows = [c for c in bundle.cases if c.get("case") == "catalog_row"]
        lines.append(_md_table(rows, ["failure_mode", "drift_cases",
                                      "accepted_invalid_cases", "affected_features",
                                      "largest_score_delta", "contract_rule"]))
    elif bundle.block == "C1":
        rows = [c for c in bundle.cases if c.get("case") == "parity"]
        lines.append(_md_table(rows, ["reference_backend", "candidate_backend",
                                      "mismatch_rows", "max_abs_delta", "pass"]))
    elif bundle.block == "S1":
        rows = [c for c in bundle.cases if c.get("case") in ("after_lock_summary",
                                                             "before_lock_summary")]
        lines.append(_md_table(rows, ["case", "preserved", "drifted", "variants",
                                      "pass"]))
    else:
        lines.append(_md_table(bundle.cases[:40],
                               sorted({k for c in bundle.cases[:40] for k in c})))
    return "\n".join(lines)
