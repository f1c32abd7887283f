import json
import os

import pytest

import policylock as pl
from policylock import cli as cli_module
from policylock.cli import main as cli_main
from policylock.harness import (ExperimentSpec, ResultBundle, emit_report, run_block,
                                random_small_instance, inference_fixture)

from conftest import leaf_child_forest_text


TINY = {
    "P1": {"n_rows_grid": [2000, 5000], "repeats": 1, "rowwise_cap": 2000,
           "anti_cap": 25},
    "P2": {"feature_grid": [3, 8], "n_rows": 3000, "safety_skip_threshold": 500,
           "min_leaf_size": 20},
    "C1": {"n_rows": 3000, "n_trees": 10, "depth": 5, "anti_slice_rows": 80,
           "partitions": 3},
    "C2": {"n_rows": 4000, "random_instances": 10, "min_leaf_size": 200},
    "E1": {"n_rows": 4000, "depth_grid": [1, 2], "partition_grid": [1, 4],
           "extended_treatments": [4], "extended_p_miss": [0.0, 0.3],
           "min_leaf_size": 100},
    "F1": {"n_rows": 20000, "treatment_grid": [4], "min_leaf_size": 50},
    "F2": {"n_rows": 8000, "min_leaf_size": 200},
    "F3": {"n_rows": 3000, "p_miss_grid": [0.0, 0.3], "focuses": ["control_arm"],
           "e2e_p_miss": [0.3], "min_leaf_size": 100},
    "S1": {"n_rows": 6000, "min_leaf_size": 200},
    "S2": {"n_rows": 20000, "batch_grid": [1000], "depth_grid": [4],
           "tree_grid": [10], "treatment_grid": [4], "repeats": 1},
}


class TestSpecValidation:
    def test_unknown_block(self):
        with pytest.raises(pl.InvalidArgumentError):
            ExperimentSpec("Z9")

    def test_unknown_knob_rejected(self):
        with pytest.raises(pl.InvalidArgumentError):
            ExperimentSpec("C1", knobs={"bogus_knob": 1})

    def test_known_knob_accepted(self):
        spec = ExperimentSpec("C1", knobs={"n_rows": 10})
        assert spec.knob("n_rows") == 10
        assert spec.knob("tolerance") == 1e-9

    @pytest.mark.parametrize("block,knobs", [
        ("C1", {"n_rows": True}), ("C1", {"n_rows": 10.0}), ("C1", {"tolerance": "1"}),
        ("C1", {"tolerance": False}), ("F1", {"skew_grid": "balanced"}),
        ("F1", {"skew_grid": [1]}), ("F1", {"p_miss_grid": [0.1, None]}),
        ("E1", {"depth_grid": [1.0]}),
    ])
    def test_knob_of_another_type_rejected(self, block, knobs):
        with pytest.raises(pl.InvalidArgumentError, match="type of its default"):
            ExperimentSpec(block, knobs=knobs)

    def test_int_accepted_for_float_knob(self):
        spec = ExperimentSpec("F1", knobs={"p_miss_grid": [0, 0.5]})
        assert spec.knob("p_miss_grid") == [0, 0.5]
        assert ExperimentSpec("C1", knobs={"tolerance": 0}).knob("tolerance") == 0


@pytest.mark.parametrize("block", ["P2", "C1", "C2", "E1", "F1", "F2", "F3",
                                   "S1", "S2"])
def test_block_runs_and_passes(block):
    bundle = run_block(ExperimentSpec(block, seed=7, knobs=TINY[block]))
    failing = [c for c in bundle.cases
               if not c.get("pass", True)
               and not str(c.get("status", "")).startswith("skipped")]
    assert bundle.passed, f"{block} failing cases: {failing[:3]}"
    assert bundle.cases


def test_p1_block_ladder_shape():
    # toy scale exercises the block mechanics; the >=10x / >=2x predicates
    # belong to the acceptance workload (1M rows) where fixed costs amortize
    bundle = run_block(ExperimentSpec("P1", seed=7, knobs=TINY["P1"]))
    ladders = {c["comparison"]: c for c in bundle.cases if c.get("case") == "ladder"}
    assert set(ladders) == {"vectorized_vs_rowwise", "rowwise_vs_anti"}
    assert all(c["ratio"] > 0 for c in ladders.values())
    throughputs = [c for c in bundle.cases if c.get("case") == "throughput"]
    assert len(throughputs) == 8  # 4 methods x 2 sizes
    assert all(c["status"] == "ok" for c in throughputs)


def test_p1_wall_cap_marks_skipped_too_slow():
    knobs = dict(TINY["P1"])
    knobs["wall_cap_seconds"] = 1e-9
    bundle = run_block(ExperimentSpec("P1", seed=7, knobs=knobs))
    skipped = [c for c in bundle.cases if c.get("status") == "skipped_too_slow"]
    assert skipped
    for c in skipped:
        assert c["triggering_wall_seconds"] > c["wall_cap_seconds"]
    assert bundle.passed  # skips never fail a bundle


def test_p2_statuses_match_candidate_law():
    bundle = run_block(ExperimentSpec("P2", seed=7, knobs=TINY["P2"]))
    by_f = {}
    for c in bundle.cases:
        if c.get("case") == "split_scale" and c["path"] == "reference_driver_collect":
            by_f[c["n_features"]] = c
    assert by_f[3]["status"] == "ok"
    assert by_f[8]["status"] == "skipped_too_large"
    assert by_f[8]["candidate_rows"] == 8 * 31 * 4


def test_f1_catalog_rows_complete():
    bundle = run_block(ExperimentSpec("F1", seed=7, knobs=TINY["F1"]))
    rows = {c["failure_mode"]: c for c in bundle.cases
            if c.get("case") == "catalog_row"}
    assert set(rows) == set(pl.NAIVE_VARIANTS)
    for variant, row in rows.items():
        assert row["drift_cases"] >= 1, variant
    assert rows["sparse_omit"]["accepted_invalid_cases"] >= 1
    assert rows["no_total_order"]["largest_score_delta"] == 0.0


def test_s1_summaries():
    bundle = run_block(ExperimentSpec("S1", seed=7, knobs=TINY["S1"]))
    after = next(c for c in bundle.cases if c.get("case") == "after_lock_summary")
    before = next(c for c in bundle.cases if c.get("case") == "before_lock_summary")
    assert after["preserved"] == after["variants"] == 6
    assert before["drifted"] >= 1


def test_determinism_of_semantic_fields():
    a = run_block(ExperimentSpec("C2", seed=7, knobs=TINY["C2"]))
    b = run_block(ExperimentSpec("C2", seed=7, knobs=TINY["C2"]))
    assert a.semantic_view() == b.semantic_view()


def test_semantic_view_drops_timing_derived_fields():
    """P1's ladder ratio and wall-cap trigger time and S2's winners come
    from timings, so two runs of the same code may differ only there."""
    def bundle(ratio, wall, winner, wins):
        return ResultBundle("S2", 7, {}, [
            {"case": "ladder", "ratio": ratio, "pass": True},
            {"case": "throughput", "status": "skipped_too_slow",
             "triggering_wall_seconds": wall},
            {"case": "backend_cell", "winner": winner, "pass": True},
            {"case": "crossover_summary", "wins": wins, "cells": 2, "pass": True}])
    a = bundle(29.7, 130.0, "vectorized_columnar", {"vectorized_columnar": 2})
    b = bundle(38.0, 125.5, "vectorized_rowmajor", {"vectorized_rowmajor": 2})
    assert a.to_record() != b.to_record()
    assert a.semantic_view() == b.semantic_view()


@pytest.fixture(scope="module")
def c2_bundle():
    return run_block(ExperimentSpec("C2", seed=7, knobs=TINY["C2"]))


class TestReports:
    @pytest.fixture
    def bundle(self, c2_bundle):
        return c2_bundle

    @pytest.mark.parametrize("fmt,suffix", [("json", ".json"), ("csv", ".csv"),
                                            ("markdown-summary", ".md")])
    def test_emission_byte_identical(self, bundle, tmp_path, fmt, suffix):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        (p1,) = emit_report(bundle, fmt, str(d1))
        (p2,) = emit_report(bundle, fmt, str(d2))
        assert p1.endswith(suffix)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_unknown_format(self, bundle, tmp_path):
        with pytest.raises(pl.InvalidArgumentError):
            emit_report(bundle, "yaml", str(tmp_path))

    def test_markdown_alias(self, bundle, tmp_path):
        (path,) = emit_report(bundle, "markdown", str(tmp_path))
        assert path.endswith(".md")

    def test_f1_markdown_mirrors_catalog_columns(self, tmp_path):
        f1 = run_block(ExperimentSpec("F1", seed=7, knobs=TINY["F1"]))
        (path,) = emit_report(f1, "markdown-summary", str(tmp_path))
        text = open(path).read()
        for col in ("failure_mode", "drift_cases", "affected_features",
                    "largest_score_delta", "contract_rule"):
            assert col in text

    def test_empty_bundle_valid_report(self, tmp_path):
        from policylock.harness import ResultBundle
        empty = ResultBundle("C1", 7, {})
        for fmt in ("json", "csv", "markdown-summary"):
            (path,) = emit_report(empty, fmt, str(tmp_path))
            assert os.path.getsize(path) > 0


# The CSV report's columns are the case keys in first-seen order, so these
# headers pin each block's record layout.
CSV_HEADERS = {
    "P2": "case,path,n_features,candidate_rows,expected_candidate_rows,status,"
          "runtime_seconds,best,pass,paths_ok,distinct_tuples",
    "C1": "reference_backend,candidate_backend,mismatch_rows,max_abs_delta,"
          "checksum_equal,tolerance,n_rows,case,scope,pass",
    "C2": "case,tuples,best,pass,instances,mismatching_instances",
    "E1": "backends,same_signature,max_policy_mismatches,max_leaf_mismatches,"
          "policy_value,auuc,qini,pass,case,depth,n_treatments,p_miss",
    "F1": "case,variant,feature,n_treatments,p_miss,skew,order,accepted_invalid,"
          "score_delta,contract,naive,failure_mode,drift_cases,"
          "accepted_invalid_cases,affected_features,largest_score_delta,"
          "contract_rule,pass",
    "F2": "case,fixed,recomputed,signature_drift,assignment_agreement,"
          "policy_mismatches,leaf_mismatches,max_delta,auuc_abs_delta,"
          "qini_abs_delta,pass,fixed_status,fixed_best,recomputed_cuts_differ,"
          "recomputed_status,recomputed_best",
    "F3": "case,p_miss,encoding,focus,pair,mismatch_rows,max_abs_delta,pass,path,"
          "status,best,signature_equal,policy_mismatches,leaf_mismatches",
    "S1": "case,variant,same_signature,policy_mismatches,leaf_mismatches,"
          "max_vector_delta,pass,preserved,variants,drift,drifted",
}


@pytest.mark.parametrize("block", sorted(CSV_HEADERS))
def test_csv_report_header_pins_case_key_order(block, tmp_path):
    bundle = run_block(ExperimentSpec(block, seed=7, knobs=TINY[block]))
    (path,) = emit_report(bundle, "csv", str(tmp_path))
    with open(path) as fh:
        assert fh.readline().rstrip("\n") == CSV_HEADERS[block]


class TestFixtures:
    def test_inference_fixture_deterministic(self):
        f1, forest1 = inference_fixture(500, 6, 3, 4, 3, seed=7)
        f2, forest2 = inference_fixture(500, 6, 3, 4, 3, seed=7)
        assert pl.frame_checksum(f1) == pl.frame_checksum(f2)
        assert pl.forest_to_text(forest1) == pl.forest_to_text(forest2)
        assert pl.validate_forest(forest1).passed

    def test_random_small_instance_bounds(self):
        for i in range(40):
            frame, names, bmap, labels, config = random_small_instance(i)
            assert frame.n_rows <= 1000
            assert len(labels) <= 4
            assert all(b.n_bins <= 8 for b in bmap.values())


class TestCli:
    def test_synth_round_trip(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        rc = cli_main(["synth", "--n-rows", "200", "--seed", "3", "--p-miss", "0.2",
                       "--families", "x_boundary,generic(2)", "--out", str(out)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        roles = pl.CsvRoles(tuple(info["features"]), "treatment", "outcome",
                            "row_id")
        frame = pl.read_csv(out, roles)
        assert pl.frame_checksum(frame) == info["checksum"]

    def test_infer_parity_via_files(self, tmp_path, capsys):
        forest_path = tmp_path / "forest.txt"
        rc = cli_main(["forest-gen", "--trees", "4", "--depth", "3",
                       "--n-features", "3", "--n-treatments", "2",
                       "--seed", "5", "--out", str(forest_path)])
        assert rc == 0
        capsys.readouterr()
        data_path = tmp_path / "rows.csv"
        frame, _ = inference_fixture(300, 3, 2, 1, 2, seed=9)
        pl.write_csv(frame, data_path)
        rc = cli_main(["infer", "--csv", str(data_path),
                       "--feature-cols", "f00,f01,f02",
                       "--row-id-col", "row_id", "--forest", str(forest_path),
                       "--backend", "vectorized_columnar",
                       "--parity-against", "broadcast_rowwise",
                       "--partitions", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parity"]["mismatch_rows"] == 0
        assert report["parity"]["max_abs_delta"] == 0.0

    def test_infer_measure_with_builtin_fixture(self, capsys):
        rc = cli_main(["infer", "--measure", "--backend", "vectorized_columnar",
                       "--synth-rows", "2000", "--synth-features", "4",
                       "--synth-trees", "3", "--synth-depth", "3",
                       "--repeats", "1", "--partitions", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["throughput"]["n_rows"] == 2000
        assert report["throughput"]["rows_per_second"] > 0

    def test_harness_run_and_report(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        rc = cli_main(["harness", "run", "--block", "C2", "--seed", "7",
                       "--out", str(out_dir),
                       "--knob", "n_rows=2000", "--knob", "random_instances=5",
                       "--knob", "min_leaf_size=100",
                       "--format", "json", "--format", "markdown-summary"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"] is True
        assert os.path.exists(os.path.join(str(out_dir), "c2_bundle.json"))
        rc = cli_main(["harness", "report", "--in", str(out_dir),
                       "--format", "csv"])
        assert rc == 0
        assert os.path.exists(os.path.join(str(out_dir), "c2_report.csv"))

    def test_harness_run_on_zero_rows_fails_fixture_parity(self, tmp_path, capsys):
        """No path finds a split on an empty fixture: C2 reports a failed case
        and exits 1, with no traceback."""
        rc = cli_main(["harness", "run", "--block", "C2", "--knob", "n_rows=0",
                       "--knob", "random_instances=2", "--out", str(tmp_path)])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
        bundle = json.loads((tmp_path / "c2_bundle.json").read_text())
        case = next(c for c in bundle["cases"] if c["case"] == "fixture_parity")
        assert case["pass"] is False and set(case["tuples"].values()) == {None}

    def test_harness_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("block=C2\nseed=7\nn_rows=2000\nrandom_instances=4\n"
                       "min_leaf_size=100\n")
        rc = cli_main(["harness", "run", "--block", "C1", "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["block"] == "C2"

    def test_engine_error_exits_2_with_message(self, tmp_path, capsys):
        with pytest.raises(pl.InvalidArgumentError) as exc:
            ExperimentSpec("C2", knobs={"bogus": 1})
        rc = cli_main(["harness", "run", "--block", "C2", "--knob", "bogus=1",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {exc.value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("knob", ["rowwise_cap=0", "anti_cap=0", "n_rows_grid=[0]"])
    def test_p1_with_no_row_to_score_exits_2(self, tmp_path, capsys, knob):
        small = ["n_rows_grid=[40]", "n_features=3", "n_trees=2", "depth=2", "repeats=1"]
        argv = ["harness", "run", "--block", "P1", "--out", str(tmp_path / "o")]
        for k in [*small, knob]:
            argv += ["--knob", k]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "at least one row" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unusable_out_fails_before_the_block_runs(self, monkeypatch, capsys):
        def no_block(spec):
            raise AssertionError("the block ran before --out was made")

        monkeypatch.setattr(cli_module, "run_block", no_block)
        rc = cli_main(["harness", "run", "--block", "P2", "--out", "/dev/null/runs"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "/dev/null/runs" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["infer", "--forest", "{missing}", "--synth-rows", "20", "--synth-features", "2",
         "--synth-trees", "1", "--synth-depth", "1"],
        ["infer", "--csv", "{missing}", "--feature-cols", "f00", "--forest", "{missing}"],
        ["synth", "--out", "{tmp}/x.csv", "--config", "{missing}"],
        ["harness", "run", "--block", "C2", "--out", "{tmp}/o", "--config", "{missing}"],
        ["harness", "report", "--in", "{missing}"],
    ], ids=["infer_forest", "infer_csv", "synth_config", "harness_config", "report_in"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing")
        rc = cli_main([arg.format(missing=missing, tmp=tmp_path) for arg in argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and repr(missing) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["infer", "--csv", "{bad}", "--feature-cols", "f00", "--forest", "{bad}"],
        ["infer", "--forest", "{bad}", "--synth-rows", "20", "--synth-features", "2",
         "--synth-trees", "1", "--synth-depth", "1"],
        ["synth", "--out", "{tmp}/x.csv", "--config", "{bad}"],
        ["harness", "run", "--block", "C2", "--out", "{tmp}/o", "--config", "{bad}"],
    ], ids=["infer_csv", "infer_forest", "synth_config", "harness_config"])
    def test_file_not_utf8_exits_2(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("f00,treatment,outcome\n\u00e9,control,1\n".encode("latin-1"))
        rc = cli_main([arg.format(bad=bad, tmp=tmp_path) for arg in argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "utf-8" in captured.err.lower()
        assert "Traceback" not in captured.err and captured.out == ""

    def test_forest_without_trees_exits_2(self, tmp_path, capsys):
        forest_path = tmp_path / "forest.txt"
        rc = cli_main(["forest-gen", "--trees", "-1", "--out", str(forest_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: a random forest needs at least one tree\n"
        assert not forest_path.exists()
        forest_path.write_text(pl.forest_to_text(pl.ForestArrays([], ("f00",),
                                                                 ("control", "treat"))))
        rc = cli_main(["infer", "--forest", str(forest_path), "--synth-rows", "20",
                       "--synth-features", "1", "--synth-treatments", "2",
                       "--synth-trees", "1", "--synth-depth", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: forest failed validation: forest has no trees\n"
        assert captured.out == ""

    def test_infer_leaf_child_other_than_minus_one_exits_2(self, tmp_path, capsys):
        forest_path = tmp_path / "forest.txt"
        forest_path.write_text(leaf_child_forest_text(-61))
        rc = cli_main(["infer", "--forest", str(forest_path), "--synth-rows", "20",
                       "--synth-features", "1", "--synth-treatments", "2",
                       "--synth-trees", "1", "--synth-depth", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "error: forest failed validation: leaf left child -61 is not -1\n"
        assert captured.out == ""

    def test_infer_malformed_csv_exits_2(self, tmp_path, capsys):
        forest_path = tmp_path / "forest.txt"
        assert cli_main(["forest-gen", "--trees", "2", "--depth", "2",
                         "--n-features", "1", "--n-treatments", "2",
                         "--out", str(forest_path)]) == 0
        capsys.readouterr()
        data_path = tmp_path / "rows.csv"
        data_path.write_text("row_id,f00,treatment,outcome\n0,abc,control,1\n")
        rc = cli_main(["infer", "--csv", str(data_path), "--feature-cols", "f00",
                       "--row-id-col", "row_id", "--forest", str(forest_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: CSV data row 1: bad f00 value 'abc'\n"
        assert captured.out == ""

    def test_synth_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n_rows=100\nseed=5\nfamilies=x_boundary,generic(1)\n")
        out = tmp_path / "cfg.csv"
        rc = cli_main(["synth", "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["rows"] == 100
        assert info["features"] == ["x_boundary", "x_gen_00"]

    @pytest.mark.parametrize("command,key", [("synth", "n_rows"), ("harness", "seed")])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=abc\n")
        argv = ["synth", "--out", str(tmp_path / "x.csv")] if command == "synth" else \
            ["harness", "run", "--block", "C2", "--out", str(tmp_path / "o")]
        assert cli_main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config {key}='abc' is not a valid int\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv,config", [
        (["--block", "P2", "--knob", "n_rows=abc"], None),
        (["--block", "P2", "--knob", "feature_grid=5"], None),
        (["--block", "E1", "--knob", "depth_grid=1"], None),
        (["--block", "C1"], "n_rows\n"),
    ], ids=["str_for_int", "int_for_list", "int_for_int_list", "bare_config_key"])
    def test_knob_of_another_type_exits_2(self, tmp_path, capsys, argv, config):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        rc = cli_main(["harness", "run", *argv, "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: knob ")
        assert "type of its default" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text,message", [
        ('{"block": "C2", "knobs": {}, "cases": [], "environment": {}}',
         "lacks the fields ['seed']"),
        ("not json", "is not JSON"),
        ('{"block": "C2", "seed": 7, "knobs": {}, "cases": [1], "environment": {}}',
         "needs a string block and a list of case objects"),
    ], ids=["no_seed", "not_json", "case_not_object"])
    def test_report_on_bad_bundle_exits_2(self, tmp_path, capsys, text, message):
        (tmp_path / "c2_bundle.json").write_text(text)
        rc = cli_main(["harness", "report", "--in", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bundle ") and message in captured.err
        assert captured.out == ""
