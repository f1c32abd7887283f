"""Command-line entry points: synthetic data generation, forest fixtures,
batch inference with parity/throughput reports, and the experiment harness.

All commands are batch-oriented (CI consumers); exit code is nonzero iff a
non-skipped case fails its block predicate (1), or the engine rejects an
input or argument or a file cannot be read or written (2, with
``error: <message>`` on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import EngineError, InvalidArgumentError, SchemaError
from .frame import CsvRoles, frame_checksum, partition, read_csv, write_csv
from .forest import forest_from_text, forest_to_text, random_forest
from .harness import (BLOCKS, ExperimentSpec, ResultBundle, emit_report, run_block,
                      inference_fixture)
from .inference import InferenceBackend, check_parity, measure_throughput, score
from .synth import SynthSpec, generate

REPORT_FORMATS = ("json", "csv", "markdown-summary", "markdown")


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _config_value(parse, key: str, text: str):
    try:
        return parse(text)
    except ValueError:
        raise InvalidArgumentError(
            f"config {key}={text!r} is not a valid {parse.__name__}") from None


def _parse_knob_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-rows", type=int, default=10000)
    p.add_argument("--n-treatments", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--skew", choices=["balanced", "severe"], default="balanced")
    p.add_argument("--p-miss", type=float, default=0.0)
    p.add_argument("--missing-encoding", choices=["null", "nan"], default="null")
    p.add_argument("--missing-focus",
                   choices=["uniform", "control_arm", "treated_arms",
                            "positive_outcome"], default="uniform")
    p.add_argument("--families", default="x_tie,x_sparse,x_miss,x_control,x_boundary",
                   help="comma-separated family list; generic(k) allowed")


def _spec_from_args(args) -> SynthSpec:
    return SynthSpec(n_rows=args.n_rows, n_treatments=args.n_treatments,
                     seed=args.seed, skew=args.skew, p_miss=args.p_miss,
                     missing_encoding=args.missing_encoding,
                     missing_focus=args.missing_focus,
                     families=tuple(f.strip() for f in args.families.split(",") if f.strip()))


_SYNTH_CONFIG_KEYS = {"n_rows": int, "n_treatments": int, "seed": int,
                      "skew": str, "p_miss": float, "missing_encoding": str,
                      "missing_focus": str, "families": str, "out": str}


def _cmd_synth(args) -> int:
    if args.config:
        for key, val in _load_config(args.config).items():
            if key not in _SYNTH_CONFIG_KEYS:
                raise InvalidArgumentError(f"unknown synth config key {key!r}")
            setattr(args, key, _config_value(_SYNTH_CONFIG_KEYS[key], key, val))
    spec = _spec_from_args(args)
    frame = generate(spec)
    write_csv(frame, args.out)
    print(json.dumps({"rows": frame.n_rows, "features": list(frame.feature_names),
                      "checksum": frame_checksum(frame), "out": args.out}))
    return 0


def _cmd_forest_gen(args) -> int:
    names = tuple(f"f{i:02d}" for i in range(args.n_features))
    labels = ("control",) + tuple(f"treat_{chr(ord('a') + i)}"
                                  for i in range(args.n_treatments - 1))
    forest = random_forest(args.trees, args.depth, names, labels, args.seed)
    with open(args.out, "w") as fh:
        fh.write(forest_to_text(forest))
    print(json.dumps({"trees": args.trees, "depth": args.depth, "out": args.out}))
    return 0


def _cmd_infer(args) -> int:
    if args.csv:
        features = [f.strip() for f in args.feature_cols.split(",") if f.strip()]
        roles = CsvRoles(tuple(features), args.treatment_col, args.outcome_col,
                         args.row_id_col)
        frame = read_csv(args.csv, roles)
    else:
        frame, fixture_forest = inference_fixture(
            args.synth_rows, args.synth_features, args.synth_treatments,
            args.synth_trees, args.synth_depth, args.seed)
    if args.forest:
        with open(args.forest) as fh:
            forest = forest_from_text(fh.read())
    else:
        if args.csv:
            print("error: --forest is required with --csv input", file=sys.stderr)
            return 2
        forest = fixture_forest
    pf = partition(frame, args.partitions)
    backend = InferenceBackend(args.backend, args.batch_size)
    report: dict = {"backend": args.backend, "batch_size": args.batch_size,
                    "partitions": args.partitions, "n_rows": frame.n_rows}
    if args.measure:
        tp = measure_throughput(pf, forest, backend, repeats=args.repeats)
        report["throughput"] = tp.to_record()
    else:
        col = score(pf, forest, backend)
        report["scored_rows"] = col.n_rows
        if args.scores_out:
            order = np.argsort(col.row_ids, kind="stable")
            with open(args.scores_out, "w") as fh:
                for i in order:
                    fh.write(json.dumps({"row_id": int(col.row_ids[i]),
                                         "scores": col.vectors[i].tolist()}))
                    fh.write("\n")
            report["scores_out"] = args.scores_out
    if args.parity_against:
        parity = check_parity(pf, forest, InferenceBackend(args.parity_against,
                                                           args.batch_size),
                              backend, args.tolerance)
        report["parity"] = parity.to_record()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report in ("-", "json", None):   # "json" reads as "JSON to stdout"
        print(text)
    else:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    if args.parity_against and report["parity"]["mismatch_rows"]:
        return 1
    return 0


def _cmd_harness_run(args) -> int:
    knobs = {}
    if args.config:
        for key, val in _load_config(args.config).items():
            if key == "block":
                args.block = val
            elif key == "seed":
                args.seed = _config_value(int, key, val)
            elif key == "out":
                args.out = val
            else:
                knobs[key] = _parse_knob_value(val)
    for item in args.knob or []:
        key, _, val = item.partition("=")
        knobs[key] = _parse_knob_value(val)
    spec = ExperimentSpec(args.block, seed=args.seed, knobs=knobs)
    os.makedirs(args.out, exist_ok=True)
    bundle = run_block(spec)
    bundle_path = os.path.join(args.out, f"{args.block.lower()}_bundle.json")
    with open(bundle_path, "w") as fh:
        json.dump(bundle.to_record(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    for fmt in (args.format or ["json"]):
        emit_report(bundle, fmt, args.out)
    summary = {"block": args.block, "passed": bundle.passed,
               "cases": len(bundle.cases), "bundle": bundle_path}
    print(json.dumps(summary))
    return 0 if bundle.passed else 1


_BUNDLE_FIELDS = ("block", "seed", "knobs", "cases", "environment")


def _load_bundle(path: str) -> ResultBundle:
    """A bundle file written by ``harness run``."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except ValueError as exc:
        raise SchemaError(f"bundle {path} is not JSON: {exc}") from None
    missing = [k for k in _BUNDLE_FIELDS if not isinstance(record, dict) or k not in record]
    if missing:
        raise SchemaError(f"bundle {path} lacks the fields {missing}")
    if not isinstance(record["block"], str) or not isinstance(record["cases"], list) \
            or not all(isinstance(case, dict) for case in record["cases"]):
        raise SchemaError(f"bundle {path} needs a string block and a list of case objects")
    return ResultBundle(*(record[k] for k in _BUNDLE_FIELDS))


def _cmd_harness_report(args) -> int:
    names = [f for f in os.listdir(args.in_dir) if f.endswith("_bundle.json")]
    if args.block:
        names = [f for f in names if f.startswith(args.block.lower())]
    if not names:
        print("error: no bundle files found", file=sys.stderr)
        return 2
    for name in sorted(names):
        bundle = _load_bundle(os.path.join(args.in_dir, name))
        for path in emit_report(bundle, args.format, args.in_dir):
            print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="policylock")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    _add_synth_flags(p_synth)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--config", help="key=value file mirroring the flags")
    p_synth.set_defaults(func=_cmd_synth)

    p_fg = sub.add_parser("forest-gen", help="write a random valid forest file")
    p_fg.add_argument("--trees", type=int, default=50)
    p_fg.add_argument("--depth", type=int, default=7)
    p_fg.add_argument("--n-features", type=int, default=32)
    p_fg.add_argument("--n-treatments", type=int, default=4)
    p_fg.add_argument("--seed", type=int, default=7)
    p_fg.add_argument("--out", required=True)
    p_fg.set_defaults(func=_cmd_forest_gen)

    p_inf = sub.add_parser("infer", help="score rows with a chosen backend")
    p_inf.add_argument("--backend", default="vectorized_columnar",
                       choices=["anti_pattern", "broadcast_rowwise",
                                "vectorized_columnar", "vectorized_rowmajor"])
    p_inf.add_argument("--batch-size", type=int, default=10000)
    p_inf.add_argument("--partitions", type=int, default=4)
    p_inf.add_argument("--forest")
    p_inf.add_argument("--csv")
    p_inf.add_argument("--feature-cols", default="")
    p_inf.add_argument("--treatment-col", default="treatment")
    p_inf.add_argument("--outcome-col", default="outcome")
    p_inf.add_argument("--row-id-col", default=None)
    p_inf.add_argument("--synth-rows", type=int, default=100000)
    p_inf.add_argument("--synth-features", type=int, default=32)
    p_inf.add_argument("--synth-treatments", type=int, default=4)
    p_inf.add_argument("--synth-trees", type=int, default=50)
    p_inf.add_argument("--synth-depth", type=int, default=7)
    p_inf.add_argument("--seed", type=int, default=7)
    p_inf.add_argument("--measure", action="store_true",
                       help="measure throughput instead of materializing scores")
    p_inf.add_argument("--repeats", type=int, default=3)
    p_inf.add_argument("--parity-against")
    p_inf.add_argument("--tolerance", type=float, default=1e-9)
    p_inf.add_argument("--scores-out")
    p_inf.add_argument("--report", default="-",
                       help="JSON report path, '-' for stdout")
    p_inf.set_defaults(func=_cmd_infer)

    p_h = sub.add_parser("harness", help="experiment blocks")
    hsub = p_h.add_subparsers(dest="harness_command", required=True)
    p_run = hsub.add_parser("run", help="run one block")
    p_run.add_argument("--block", required=True, choices=list(BLOCKS))
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--knob", action="append",
                       help="override a block knob, e.g. --knob n_rows=5000")
    p_run.add_argument("--format", action="append", choices=list(REPORT_FORMATS))
    p_run.add_argument("--config", help="key=value file mirroring the flags")
    p_run.set_defaults(func=_cmd_harness_run)
    p_rep = hsub.add_parser("report", help="re-emit reports from saved bundles")
    p_rep.add_argument("--in", dest="in_dir", required=True)
    p_rep.add_argument("--format", default="markdown-summary",
                       choices=list(REPORT_FORMATS))
    p_rep.add_argument("--block")
    p_rep.set_defaults(func=_cmd_harness_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
