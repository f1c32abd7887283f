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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import AlignmentError, InvalidArgumentError
from .frame import (ColumnFrame, PartitionedFrame, PerturbationKind,
                    PerturbationSpec, apply_perturbation, partition, plant_missing)
from .forest import ForestArrays, random_forest
from .inference import (InferenceBackend, ParityReport, measure_throughput, score,
                        parity_from_columns)
from .splitsearch import (Boundaries, SplitConfig, best_split, candidate_row_count,
                          naive_variant_best_split, uniform_boundaries,
                          approx_quantile_boundaries,
                          EXECUTION_PATHS, NAIVE_VARIANTS, PATH_REFERENCE,
                          STATUS_OK, STATUS_SKIPPED_TOO_LARGE)
from .synth import SynthSpec, generate, split_train_holdout
from .trainer import (Manifest, WitnessReport, build_manifest, train,
                      train_unlocked_naive, make_witness, witness_compare)
from . import rng

BLOCKS = ("P1", "P2", "C1", "C2", "E1", "F1", "F2", "F3", "S1", "S2")

STATUS_SKIPPED_TOO_SLOW = "skipped_too_slow"

# fields excluded from determinism comparisons: timings and the values
# derived from them (P1's ladder ratios, S2's fastest backend per cell)
TIMING_FIELDS = frozenset({"wall_seconds", "rows_per_second", "samples",
                           "runtime_seconds", "winner_rows_per_second",
                           "loser_rows_per_second", "triggering_wall_seconds",
                           "ratio", "winner", "wins"})

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


def _knob_type_ok(value, default) -> bool:
    """``value`` has ``default``'s type: an int for an int (never a bool), an
    int or a float for a float, a str for a str, and for a list a list whose
    items pass this rule against the default's first item."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_knob_type_ok(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


@dataclass(frozen=True)
class ExperimentSpec:
    block: str
    seed: int = 7
    knobs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.block not in BLOCKS:
            raise InvalidArgumentError(f"unknown block {self.block!r}")
        defaults = _DEFAULT_KNOBS[self.block]
        unknown = set(self.knobs) - set(defaults)
        if unknown:
            raise InvalidArgumentError(
                f"unknown knobs for block {self.block}: {sorted(unknown)}")
        for name, value in self.knobs.items():
            if not _knob_type_ok(value, defaults[name]):
                raise InvalidArgumentError(
                    f"knob {name}={value!r} of block {self.block} does not have "
                    f"the type of its default {defaults[name]!r}")

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
        # P1 asks for 1M-row columns with no missing cells; skip their draws
        miss = rng.uniform_stream(seed, f"fixture-miss:{name}", n_rows) < p_miss \
            if p_miss > 0.0 else np.zeros(n_rows, dtype=bool)
        vals, ok = plant_missing(np.floor(u * 4.0) if i < n_coded else u, miss,
                                 null=i % 2 == 0)
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
        miss = rng.uniform_stream(seed, f"miss:{name}", n) < p_miss
        vals, ok = plant_missing(rng.uniform_stream(seed, f"vals:{name}", n), miss,
                                 null=i % 2 == 0)
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
    _RUNNERS[spec.block](spec, bundle)
    return bundle


# ---------------------------------------------------------------------------
# shared block scaffolding: locked fixtures, witnesses, path parity
# ---------------------------------------------------------------------------


class _LockedSplit(NamedTuple):
    frame: ColumnFrame
    train: ColumnFrame
    holdout: ColumnFrame
    labels: tuple[str, ...]
    bmap: dict
    manifest: Manifest


def _locked_split(synth: SynthSpec, spec: ExperimentSpec, depth: int,
                  cuts: Optional[dict] = None) -> _LockedSplit:
    """Generate, split off the holdout, fix uniform boundaries (``cuts``
    overrides single features) and lock the training manifest."""
    frame = generate(synth)
    labels = synth.treatment_labels()
    train_fr, hold_fr = split_train_holdout(frame, spec.knob("holdout_fraction"),
                                            spec.seed)
    bmap = {n: uniform_boundaries(n, spec.knob("n_bins")) for n in frame.feature_names}
    for name, feature_cuts in (cuts or {}).items():
        bmap[name] = Boundaries(name, feature_cuts)
    manifest = build_manifest(train_fr, tuple(bmap), labels, bmap, spec.seed, depth,
                              spec.knob("min_leaf_size")).lock()
    return _LockedSplit(frame, train_fr, hold_fr, labels, bmap, manifest)


def _witness_reports(fit: Callable, inputs, holdout: ColumnFrame):
    """Train each input, witness it on the holdout and compare it with the
    first.  Returns the first witness and one report per input; a comparison
    whose holdout rows do not align is ``None``."""
    base = None
    reports: list[Optional[WitnessReport]] = []
    for item in inputs:
        wit = make_witness(fit(item), holdout)
        if base is None:
            base = wit
        try:
            reports.append(witness_compare(base, wit))
        except AlignmentError:
            reports.append(None)
    return base, reports


def _exact_witness(rep: WitnessReport) -> bool:
    return rep.signature_equal and rep.policy_vector_mismatches == 0 \
        and rep.leaf_mismatches == 0


def _pairwise_parity(pf: PartitionedFrame, forest: ForestArrays, kinds,
                     batch_size: int = 10000, tol: float = 1e-9) -> list[ParityReport]:
    """Score with every backend kind once and compare each pair in order."""
    cols = {k: score(pf, forest, InferenceBackend(k, batch_size)) for k in kinds}
    return [parity_from_columns(cols[a], cols[b], a, b, tol)
            for i, a in enumerate(kinds) for b in kinds[i + 1:]]


def _exact_parity(rep: ParityReport) -> bool:
    return rep.mismatch_rows == 0 and rep.max_abs_delta == 0.0


def _path_results(data, features, bmap, labels, cfg: SplitConfig):
    """One ``best_split`` per execution path, and its wall time in seconds."""
    results, seconds = {}, {}
    for path in EXECUTION_PATHS:
        t0 = time.perf_counter()
        results[path] = best_split(data, features, bmap, labels, cfg.with_path(path))
        seconds[path] = time.perf_counter() - t0
    return results, seconds


def _best_tuple(res):
    return res.best.as_tuple() if res.best else None


def _best_list(res):
    return list(res.best.as_tuple()) if res.best else None


def _paths_agree(results: dict) -> bool:
    return len({(r.status, _best_tuple(r)) for r in results.values()}) == 1


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
            bundle.cases.append({**report.to_record(), "case": "throughput",
                                 "method": kind, "status": "ok",
                                 "requested_rows": n_rows, "pass": True})
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
        bmap = {name: uniform_boundaries(name, B) for name in frame.feature_names}
        expected_rows = candidate_row_count(F, B, T)
        cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"),
                          safety_skip_threshold=threshold)
        results, seconds = _path_results(frame, frame.feature_names, bmap,
                                         synth.treatment_labels(), cfg)
        del frame
        for path, res in results.items():
            expect_skip = path == PATH_REFERENCE and expected_rows > threshold
            ok = res.status == (STATUS_SKIPPED_TOO_LARGE if expect_skip else STATUS_OK)
            bundle.cases.append({
                "case": "split_scale", "path": path, "n_features": F,
                "candidate_rows": res.candidate_rows,
                "expected_candidate_rows": expected_rows,
                "status": res.status, "runtime_seconds": seconds[path],
                "best": _best_tuple(res),
                "pass": ok and res.candidate_rows == expected_rows})
        ok_paths = [p for p, res in results.items() if res.status == STATUS_OK]
        tuples = {_best_tuple(results[p]) for p in ok_paths}
        bundle.cases.append({"case": "path_agreement", "n_features": F,
                             "paths_ok": ok_paths, "distinct_tuples": len(tuples),
                             "pass": len(tuples) <= 1})


def _run_c1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    frame, forest = inference_fixture(
        spec.knob("n_rows"), spec.knob("n_features"), spec.knob("n_treatments"),
        spec.knob("n_trees"), spec.knob("depth"), spec.seed)
    pf = partition(frame, spec.knob("partitions"))
    tol = spec.knob("tolerance")
    batch = spec.knob("batch_size")
    full = ("broadcast_rowwise", "vectorized_columnar", "vectorized_rowmajor")
    for rep in _pairwise_parity(pf, forest, full, batch, tol):
        bundle.cases.append({**rep.to_record(), "case": "parity", "scope": "full",
                             "pass": _exact_parity(rep)})
    # anti_pattern re-parses the model per row; parity is checked on a
    # deterministic leading slice where that cost stays practical
    slice_rows = min(spec.knob("anti_slice_rows"), frame.n_rows)
    sliced = partition(frame.take(np.arange(slice_rows)), 2)
    # the first pairs put anti_pattern against each full-scope backend
    anti_pairs = _pairwise_parity(sliced, forest, ("anti_pattern",) + full, batch, tol)
    for rep in anti_pairs[:len(full)]:
        bundle.cases.append({**rep.to_record(), "case": "parity",
                             "scope": f"slice:{slice_rows}", "pass": _exact_parity(rep)})


def _run_c2(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"))
    fixtures = (("fixture_parity", _witness_spec(spec.seed, spec.knob("n_rows"),
                                                 spec.knob("n_treatments"),
                                                 spec.knob("p_miss"))),
                ("adversarial_fixture_parity",
                 _adversarial_spec(spec.seed, max(spec.knob("n_rows") // 2, 1000))))
    for case, synth in fixtures:
        frame = generate(synth)
        bmap = {n: uniform_boundaries(n, spec.knob("n_bins"))
                for n in frame.feature_names}
        results, _ = _path_results(frame, frame.feature_names, bmap,
                                   synth.treatment_labels(), cfg)
        ref_tuple = _best_tuple(results[PATH_REFERENCE])
        agree = all(_best_tuple(r) == ref_tuple for r in results.values())
        rec = {"case": case, "tuples": {p: _best_list(r) for p, r in results.items()}}
        if case == "fixture_parity":
            # the clean fixture must also find a split, the adversarial one need not
            rec["best"] = _best_list(results[PATH_REFERENCE])
            agree = agree and ref_tuple is not None
        bundle.cases.append({**rec, "pass": agree})

    mismatches = 0
    for i in range(spec.knob("random_instances")):
        results, _ = _path_results(*random_small_instance(spec.seed * 1000 + i))
        mismatches += not _paths_agree(results)
    bundle.cases.append({"case": "random_instance_parity",
                         "instances": spec.knob("random_instances"),
                         "mismatching_instances": mismatches, "pass": mismatches == 0})


def _run_e1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    n_rows = spec.knob("n_rows")
    grid = [(_witness_spec(spec.seed, n_rows), depth,
             {"case": "depth_preservation", "depth": depth})
            for depth in spec.knob("depth_grid")]
    grid += [(_witness_spec(spec.seed, n_rows, T, p_miss), spec.knob("extended_depth"),
              {"case": "extended_grid", "n_treatments": T, "p_miss": p_miss})
             for T in spec.knob("extended_treatments")
             for p_miss in spec.knob("extended_p_miss")]
    for synth, depth, tags in grid:
        split = _locked_split(synth, spec, depth)
        inputs = [(path, partition(split.train, P) if P > 1 else split.train)
                  for path in EXECUTION_PATHS for P in spec.knob("partition_grid")]
        base, reports = _witness_reports(
            lambda item: train(item[1], split.manifest, item[0]), inputs, split.holdout)
        bundle.cases.append({
            "backends": len(reports),
            "same_signature": all(r.signature_equal for r in reports),
            "max_policy_mismatches": max(r.policy_vector_mismatches for r in reports),
            "max_leaf_mismatches": max(r.leaf_mismatches for r in reports),
            "policy_value": base.metrics["policy_value"],
            "auuc": base.metrics["auuc"], "qini": base.metrics["qini"],
            "pass": all(_exact_witness(r) for r in reports), **tags})


def _run_f1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    B = spec.knob("n_bins")
    cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"))
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
                    c_tuple = _best_tuple(contract)
                    for variant in NAIVE_VARIANTS:
                        for order_name, data in (("original", frame),
                                                 ("shuffled", shuffled)):
                            naive = naive_variant_best_split(variant, data, [feat],
                                                             bmap, labels, cfg)
                            n_tuple = _best_tuple(naive)
                            both_ok = contract.status == naive.status == STATUS_OK
                            accepted_invalid = contract.status != STATUS_OK \
                                and naive.status == STATUS_OK
                            score_delta = abs(n_tuple[4] - c_tuple[4]) if both_ok else None
                            drifted = n_tuple[:4] != c_tuple[:4] if both_ok \
                                else contract.status != naive.status
                            if drifted:
                                bundle.cases.append({
                                    "case": "drift_observation", "variant": variant,
                                    "feature": feat, "n_treatments": T,
                                    "p_miss": p_miss, "skew": skew,
                                    "order": order_name,
                                    "accepted_invalid": accepted_invalid,
                                    "score_delta": score_delta,
                                    "contract": _best_list(contract),
                                    "naive": _best_list(naive)})
    observed = [c for c in bundle.cases if c["case"] == "drift_observation"]
    for variant in NAIVE_VARIANTS:
        drifts = [c for c in observed if c["variant"] == variant]
        deltas = [c["score_delta"] for c in drifts if c["score_delta"] is not None]
        accepted_invalid = sum(c["accepted_invalid"] for c in drifts)
        ok = len(drifts) >= 1
        if variant == "sparse_omit":
            ok = ok and accepted_invalid >= 1
        if variant == "no_total_order":
            ok = ok and 0.0 in deltas
        bundle.cases.append({
            "case": "catalog_row", "failure_mode": variant,
            "drift_cases": len(drifts),
            "accepted_invalid_cases": accepted_invalid,
            "affected_features": sorted({c["feature"] for c in drifts}),
            "largest_score_delta": max([0.0] + deltas),
            "contract_rule": CONTRACT_RULES[variant], "pass": ok})


def _run_f2(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    synth = SynthSpec(n_rows=spec.knob("n_rows"), n_treatments=4, seed=spec.seed,
                      p_miss=spec.knob("p_miss"),
                      families=("x_boundary", "generic(2)"))
    depth = spec.knob("depth")
    # the witness isolates one planted cut, as in the frozen-vs-nudged story
    fixed = _locked_split(synth, spec, depth, {"x_boundary": (0.5,)})
    nudged = _locked_split(synth, spec, depth, {"x_boundary": (0.4999999999,)})
    _, reports = _witness_reports(lambda split: train(split.train, split.manifest),
                                  (fixed, nudged), fixed.holdout)
    rep = reports[1]
    bundle.cases.append({
        "case": "boundary_witness", "fixed": "b=[0.5]",
        "recomputed": "b=[0.4999999999]",
        "signature_drift": not rep.signature_equal,
        "assignment_agreement": rep.top_agreement,
        "policy_mismatches": rep.policy_vector_mismatches,
        "leaf_mismatches": rep.leaf_mismatches, "max_delta": rep.max_vector_delta,
        "auuc_abs_delta": rep.metric_deltas["auuc"],
        "qini_abs_delta": rep.metric_deltas["qini"], "pass": not rep.signature_equal})

    # shared fixed grid versus an independently recomputed approximate grid
    B = spec.knob("n_bins")
    cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"))
    grid = {"x_boundary": uniform_boundaries("x_boundary", B)}
    fixed_res = best_split(fixed.train, ["x_boundary"], grid, fixed.labels, cfg)
    recomputed = approx_quantile_boundaries(partition(fixed.train, 4), "x_boundary", B)
    recomputed_differs = recomputed is None or \
        recomputed.cuts != grid["x_boundary"].cuts
    rec_res = None if recomputed is None else best_split(
        fixed.train, ["x_boundary"], {"x_boundary": recomputed}, fixed.labels, cfg)
    bundle.cases.append({
        "case": "recomputed_quantiles",
        "fixed_status": fixed_res.status,
        "fixed_best": _best_list(fixed_res),
        "recomputed_cuts_differ": recomputed_differs,
        "recomputed_status": rec_res.status if rec_res else "no_boundaries",
        "recomputed_best": _best_list(rec_res) if rec_res else None,
        "pass": fixed_res.status == STATUS_OK and recomputed_differs})


def _run_f3(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    cfg = SplitConfig(min_leaf_size=spec.knob("min_leaf_size"))
    backends = ("broadcast_rowwise", "vectorized_columnar", "vectorized_rowmajor")
    for p_miss in spec.knob("p_miss_grid"):
        for encoding in spec.knob("encodings"):
            for focus in spec.knob("focuses"):
                cell = {"p_miss": p_miss, "encoding": encoding, "focus": focus}
                split = _locked_split(
                    _witness_spec(spec.seed, spec.knob("n_rows"), p_miss=p_miss,
                                  encoding=encoding, focus=focus),
                    spec, spec.knob("depth"))
                frame, labels = split.frame, split.labels
                pf = partition(frame, spec.knob("partitions"))
                forest = random_forest(10, 4, frame.feature_names, labels,
                                       seed=spec.seed + 5)
                for rep in _pairwise_parity(pf, forest, backends):
                    bundle.cases.append({
                        "case": "d1_parity", **cell,
                        "pair": f"{rep.reference_backend}|{rep.candidate_backend}",
                        "mismatch_rows": rep.mismatch_rows,
                        "max_abs_delta": rep.max_abs_delta, "pass": _exact_parity(rep)})
                outs, _ = _path_results(pf, frame.feature_names, split.bmap, labels, cfg)
                agree = _paths_agree(outs)
                for p, out in outs.items():
                    bundle.cases.append({
                        "case": "d2_parity", **cell, "path": p, "status": out.status,
                        "best": _best_list(out), "pass": agree})
                if p_miss in spec.knob("e2e_p_miss"):
                    _, reports = _witness_reports(
                        lambda p: train(split.train, split.manifest, p),
                        EXECUTION_PATHS, split.holdout)
                    for p, rep in zip(EXECUTION_PATHS, reports):
                        bundle.cases.append({
                            "case": "e2e_witness", **cell, "path": p,
                            "signature_equal": rep.signature_equal,
                            "policy_mismatches": rep.policy_vector_mismatches,
                            "leaf_mismatches": rep.leaf_mismatches,
                            "pass": _exact_witness(rep)})


def _s1_variants(shuffle_seed: int) -> list[tuple[str, Optional[PerturbationSpec]]]:
    return [
        ("repartition_2", PerturbationSpec(PerturbationKind.REPARTITION, target_partitions=2)),
        ("repartition_8", PerturbationSpec(PerturbationKind.REPARTITION, target_partitions=8)),
        ("coalesce_2", PerturbationSpec(PerturbationKind.COALESCE, target_partitions=2)),
        ("shuffle", PerturbationSpec(PerturbationKind.SHUFFLE_ROWS, seed=shuffle_seed)),
        ("sort_on", PerturbationSpec(PerturbationKind.SORT_WITHIN_PARTITION,
                                     key="row_id", ascending=False)),
        ("sort_off", None),
    ]


def _run_s1(spec: ExperimentSpec, bundle: ResultBundle) -> None:
    synth = SynthSpec(n_rows=spec.knob("n_rows"), n_treatments=4, seed=spec.seed,
                      p_miss=0.1, families=("x_boundary", "x_miss", "x_tie",
                                            "generic(1)"))
    depth = spec.knob("depth")
    split = _locked_split(synth, spec, depth)
    base_pf = partition(split.train, spec.knob("partitions"))
    variants = _s1_variants(spec.knob("shuffle_seed"))
    inputs = [base_pf] + [apply_perturbation(base_pf, pert) if pert else base_pf
                          for _, pert in variants]

    _, reports = _witness_reports(lambda data: train(data, split.manifest), inputs,
                                  split.holdout)
    preserved = 0
    for (name, _), rep in zip(variants, reports[1:]):
        ok = _exact_witness(rep)
        preserved += ok
        bundle.cases.append({"case": "after_lock", "variant": name,
                             "same_signature": rep.signature_equal,
                             "policy_mismatches": rep.policy_vector_mismatches,
                             "leaf_mismatches": rep.leaf_mismatches,
                             "max_vector_delta": rep.max_vector_delta, "pass": ok})
    bundle.cases.append({"case": "after_lock_summary", "preserved": preserved,
                         "variants": len(variants), "pass": preserved == len(variants)})

    _, reports = _witness_reports(
        lambda data: train_unlocked_naive(data, split.bmap, depth,
                                          spec.knob("min_leaf_size")),
        inputs, split.holdout)
    drifted = 0
    for (name, _), rep in zip(variants, reports[1:]):
        drift = rep is None or not _exact_witness(rep)
        drifted += drift
        bundle.cases.append({"case": "before_lock", "variant": name,
                             "same_signature": rep is not None and rep.signature_equal,
                             "drift": drift})
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
