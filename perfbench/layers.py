"""Per-layer instrumentation of policylock from outside the package.

``install`` wraps each layer's public functions at the place they are looked
up: a name imported with ``from .x import y`` is replaced in the consumer
module (``trainer.best_split``, ``inference.forest_from_text``, ...), and
methods are replaced on the class (``ColumnFrame.take``).  The pools in
``inference.score`` and the partitioned split path get an executor that
carries the submitting span into the workers.

``layer_metrics`` turns the spans and counters into the per-layer metrics.
Which end-to-end metric each should move is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

from collections import Counter

from policylock import frame, harness, inference, splitsearch, synth, trainer

from spans import Patches, Tracer, traced_executor

# CandidateScore.invalid_reason prefixes -> rejection counter suffix
REJECTION_REASONS = (("needs a control", "no_control"),
                     ("zero support", "zero_support"),
                     ("branch total below", "min_leaf"),
                     ("score is not finite", "not_finite"))


def _count_take(tracer, result, *args, **kwargs):
    tracer.count("frame.take_rows", result.n_rows)


def _count_model_init(tracer, result, *args, **kwargs):
    tracer.count("inference.model_inits")


def _count_scored_rows(tracer, result, *args, **kwargs):
    tracer.count("inference.rows_scored", result.n_rows)


def _count_bucketized(tracer, result, *args, **kwargs):
    tracer.count("splitsearch.bucketize_rows", result.size)


def _count_candidates(tracer, result, *args, **kwargs):
    tally = Counter(
        "candidates_valid" if cand.valid else "rejected." + next(
            (key for prefix, key in REJECTION_REASONS
             if (cand.invalid_reason or "").startswith(prefix)), "other")
        for cand in result)
    tally["candidates_scored"] = len(result)
    for key, n in tally.items():
        tracer.count(f"splitsearch.{key}", n)


def _count_tree(tracer, result, *args, **kwargs):
    leaves = sum(node.is_leaf for node in result.nodes.values())
    tracer.count("trainer.leaves", leaves)
    tracer.count("trainer.nodes_expanded", len(result.nodes) - leaves)


# (owners, attribute, span name, counter hook); every owner gets its own
# wrapper around the function it holds
_SITES = (
    ((frame.ColumnFrame,), "take", "frame.take", _count_take),
    ((frame.ColumnFrame,), "feature_matrix_effective", "frame.matrix", None),
    ((frame,), "concat_frames", "frame.concat", None),
    ((frame, inference), "partition", "frame.partition", None),
    ((frame,), "apply_perturbation", "frame.perturb", None),
    ((synth,), "generate", "synth.generate", None),
    ((harness,), "inference_fixture", "harness.fixture", None),
    ((inference,), "validate_forest", "forest.validate", None),
    ((inference,), "forest_to_text", "forest.to_text", None),
    ((inference,), "forest_from_text", "forest.from_text", _count_model_init),
    ((inference,), "score", "inference.score", _count_scored_rows),
    ((splitsearch, trainer), "best_split", "splitsearch.best_split", None),
    ((splitsearch,), "bucketize", "splitsearch.bucketize", _count_bucketized),
    ((splitsearch, trainer), "treatment_codes", "splitsearch.codes", None),
    ((splitsearch,), "build_prefix_sums", "splitsearch.prefix", None),
    ((splitsearch,), "windowed_prefix_table", "splitsearch.window", None),
    ((splitsearch,), "expand_and_score", "splitsearch.expand_and_score",
     _count_candidates),
    ((trainer,), "train", "trainer.train", _count_tree),
    ((trainer,), "make_witness", "trainer.make_witness", None),
    ((trainer,), "assign", "trainer.assign", None),
    ((trainer,), "policy_value", "trainer.metrics", None),
    ((trainer,), "auuc_qini", "trainer.metrics", None),
    ((trainer,), "signature", "trainer.signature", None),
)


def install(tracer: Tracer) -> Patches:
    """Patch every site; use as a context manager to restore them."""
    patches = Patches()
    try:
        for owners, attr, name, hook in _SITES:
            for owner in owners:
                patches.set(owner, attr, tracer.wrap(owner.__dict__[attr], name, hook))
        executor = traced_executor(tracer)
        for module in (inference, splitsearch):
            patches.set(module, "ThreadPoolExecutor", executor)
    except BaseException:
        patches.__exit__(None, None, None)
        raise
    return patches


# metric -> (span name, field) with field in calls | busy_s | self_s
_ROUND_SPANS = {
    "frame.take_calls": ("frame.take", "calls"),
    "frame.take_s": ("frame.take", "busy_s"),
    "frame.concat_s": ("frame.concat", "busy_s"),
    "frame.matrix_s": ("frame.matrix", "busy_s"),
    "forest.validate_s": ("forest.validate", "busy_s"),
    "forest.to_text_s": ("forest.to_text", "busy_s"),
    "forest.from_text_s": ("forest.from_text", "busy_s"),
    "inference.score_s": ("inference.score", "busy_s"),
    "inference.score_self_s": ("inference.score", "self_s"),
    "splitsearch.best_split_calls": ("splitsearch.best_split", "calls"),
    "splitsearch.bucketize_calls": ("splitsearch.bucketize", "calls"),
    "splitsearch.bucketize_s": ("splitsearch.bucketize", "busy_s"),
    "splitsearch.codes_s": ("splitsearch.codes", "busy_s"),
    "splitsearch.prefix_self_s": ("splitsearch.prefix", "self_s"),
    "splitsearch.window_self_s": ("splitsearch.window", "self_s"),
    "splitsearch.score_s": ("splitsearch.expand_and_score", "busy_s"),
    "splitsearch.select_self_s": ("splitsearch.best_split", "self_s"),
    "trainer.train_self_s": ("trainer.train", "self_s"),
    "trainer.assign_s": ("trainer.assign", "busy_s"),
    "trainer.metrics_s": ("trainer.metrics", "busy_s"),
    "trainer.signature_s": ("trainer.signature", "busy_s"),
}
# counters recorded under the metric's own name
_ROUND_COUNTERS = (
    "frame.take_rows", "inference.model_inits", "inference.rows_scored",
    "splitsearch.bucketize_rows", "splitsearch.candidates_scored",
    "splitsearch.candidates_valid",
    *(f"splitsearch.rejected.{key}" for key in (*dict(REJECTION_REASONS).values(), "other")),
    "trainer.nodes_expanded", "trainer.leaves",
)
# busy time of pool tasks, keyed by the span that submitted them
_POOL_BUSY = {
    "inference.pool_busy_s": "pool_busy:inference.score",
    "splitsearch.pool_busy_s": "pool_busy:splitsearch.best_split",
}
_SETUP_SPANS = {
    "frame.partition_s": "frame.partition",
    "frame.perturb_s": "frame.perturb",
    "synth.generate_s": "synth.generate",
    "harness.fixture_s": "harness.fixture",
}


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_rows", "rows"), ("rows_scored", "rows"),
                         ("_ratio", "ratio"), ("_pct", "%")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(setup: Tracer, rounds: Tracer, n_rounds: int) -> dict[str, float]:
    """Setup metrics per setup; round metrics per round.  Times are busy
    time summed over threads; ``*_self_s`` subtract the covered child time."""
    out = {}
    totals = setup.totals()
    for metric, span in _SETUP_SPANS.items():
        out[metric] = totals[span].busy_s
    totals = rounds.totals()
    for metric, (span, fld) in _ROUND_SPANS.items():
        out[metric] = getattr(totals[span], fld) / n_rounds
    for metric in _ROUND_COUNTERS:
        out[metric] = rounds.counters.get(metric, 0) / n_rounds
    for metric, counter in _POOL_BUSY.items():
        out[metric] = rounds.counters.get(counter, 0.0) / n_rounds
    scored = out["splitsearch.candidates_scored"]
    out["splitsearch.valid_ratio"] = \
        out["splitsearch.candidates_valid"] / scored if scored else 0.0
    out["trace.spans"] = len(rounds.spans) / n_rounds
    return out
