"""End-to-end CLI runs: reports, exit codes, replayability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commdist
from commdist.cli import console_main, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_distance_bundled_pair(capsys):
    code, report = run_json(
        capsys, "distance", "--field", "qq", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B"
    )
    assert code == 0
    assert report["kind"] == "exact" and report["value"] == 2
    assert report["config"]["subcommand"] == "distance"
    assert report["config"]["a"]["rows"][0] == [1, 2, 0]
    assert len(report["witness"]) == 1


def test_reports_are_replayable(capsys):
    args = ("distance", "--field", "qq", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_census_reports_are_replayable(capsys):
    args = ("census", "--field", "gf(2)", "--n", "2", "--quantity", "commuting-pairs")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_module_entry_point_is_quiet():
    # `python -m commdist.cli` must not trip runpy's "found in sys.modules" warning
    src = str(Path(commdist.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "commdist.cli", "components", "--field", "gf(2)", "--n", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["count"] == 7


def test_huge_field_base_exits_1_at_once():
    # the base used to be trial-divided before the 2^31 cap was checked
    src = str(Path(commdist.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for field in ("gf(1000000000000000000000000000057)", "gf(1000000000000000000000000000057^2)"):
        proc = subprocess.run(
            [sys.executable, "-m", "commdist.cli", "census", "--field", field, "--n", "2",
             "--quantity", "dist-le-2", "--samples", "5"],
            capture_output=True, text=True, env=env, timeout=20,
        )
        err = json.loads(proc.stderr)
        assert proc.returncode == 1
        assert err["error"] == "ParseError" and "exceeds the 2^31 cap" in err["detail"]


def test_overlong_field_spec_numbers_exit_1_with_a_parse_error(capsys):
    # int() refuses a string of more than 4300 digits with a bare ValueError
    for field in ("gf(" + "9" * 5000 + ")", "gf(2^" + "9" * 5000 + ")"):
        assert main(["census", "--field", field, "--n", "2", "--quantity", "commuting-pairs"]) == 1
        out = capsys.readouterr()
        err = json.loads(out.err)
        assert out.out == "" and err["error"] == "ParseError" and len(err["detail"]) <= 120


def test_rational_exponent_bombs_exit_1_at_once():
    # Fraction("1e-99999999") builds a 10^99999999 denominator: minutes of CPU
    src = str(Path(commdist.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # and a part of more than 4300 digits would compute, then fail to print
    for entry in ("1e-99999999", "1e99999999", "1e4300", "1e-4300", "12.5e4299"):
        a = json.dumps({"field": "qq", "rows": [[entry, 2], [3, 4]]})
        proc = subprocess.run(
            [sys.executable, "-m", "commdist.cli", "derogatory", "--a", a],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "ParseError"


def test_boolean_entries_exit_1(capsys):
    for field in ("qq", "gf(5)"):
        a = json.dumps({"field": field, "rows": [[True, 0], [0, 1]]})
        assert main(["distance", "--field", field, "--a", a, "--b", a]) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == "ParseError"


def test_sampling_universe_above_2_to_the_96_exits_2(capsys):
    argv = ["census", "--field", "gf(65537)", "--n", "3", "--quantity", "dist-le-2", "--samples", "50"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["error"] == "cap-exceeded" and "sampling universe" in err["detail"]


def test_huge_matrix_size_exits_2_before_the_power(capsys):
    # q^(n^2) at n = 200 has too many digits to print in the cap message
    for argv in (
        ["components"],
        ["diameter"],
        ["census", "--quantity", "dist-le-2"],
        ["census", "--quantity", "dist-le-2", "--samples", "5"],
    ):
        assert main([*argv, "--field", "gf(2)", "--n", "200"]) == 2
        out = capsys.readouterr()
        err = json.loads(out.err)
        assert out.out == "" and err["error"] == "cap-exceeded" and "n<=8" in err["detail"]


def test_derogatory(capsys):
    code, report = run_json(capsys, "derogatory", "--a", "fixture:ex46_A")
    assert code == 0 and report["derogatory"] is True
    assert report["min_poly"] == [0, -4, 0, 1]


def test_dist2_with_minors(capsys):
    code, report = run_json(
        capsys,
        "dist2",
        "--field",
        "gf(3)",
        "--a",
        "fixture:ex410_A",
        "--b",
        "fixture:ex410_B",
        "--minors",
        "--samples",
        "40",
        "--seed",
        "5",
    )
    assert code == 0
    assert report["dist_le_2"] is False and report["rank"] == 8
    assert report["minors"]["consistent"] is True
    assert report["minors"]["pivot_minor_nonzero"] is True


def test_dist2_minors_on_low_rank_pair(capsys):
    code, report = run_json(
        capsys,
        "dist2",
        "--field",
        "qq",
        "--a",
        "fixture:ex25_A",
        "--b",
        "fixture:ex25_B",
        "--minors",
        "--samples",
        "40",
    )
    assert code == 0
    assert report["dist_le_2"] is True
    assert report["minors"]["nonzero_sampled"] == 0
    assert report["minors"]["consistent"] is True


def test_field_keeps_the_coefficients_of_extension_entries(capsys):
    # regression: converting to another extension field kept only the constant terms
    a = json.dumps({"field": "gf(3^2):1,0,1", "rows": [[[0, 1], [2, 1]], [[1, 0], [0, 2]]]})
    code, report = run_json(capsys, "centralizer", "--field", "gf(3^3):1,2,0,1", "--a", a)
    assert code == 0
    assert report["config"]["a"]["rows"] == [[[0, 1, 0], [2, 1, 0]], [[1, 0, 0], [0, 2, 0]]]
    # a coefficient vector longer than the target's degree is an input error
    b = json.dumps({"field": "gf(3^3):1,2,0,1", "rows": [[[0, 0, 1]]]})
    assert main(["centralizer", "--field", "gf(9)", "--a", b]) == 1


def test_centralizer(capsys):
    code, report = run_json(capsys, "centralizer", "--a", "fixture:ex46_B")
    assert code == 0 and report["dimension"] == 4
    assert len(report["basis"]) == 4


def test_pc_search_and_verify(capsys):
    code, report = run_json(
        capsys,
        "pc-search",
        "--field",
        "gf(9)",
        "--a",
        "fixture:ex410_A",
        "--b",
        "fixture:ex410_B",
    )
    assert code == 0 and report["status"] == "certificate"
    cert = json.dumps(report["certificate"])
    code, verdict = run_json(
        capsys,
        "pc-verify",
        "--field",
        "gf(9)",
        "--a",
        "fixture:ex410_A",
        "--b",
        "fixture:ex410_B",
        "--cert",
        cert,
    )
    assert code == 0 and verdict["valid"] is True


def test_zi_accepts_and_rejects_witnesses(capsys):
    good = '{"field":"qq","rows":[[0,0,0],[0,0,0],[0,0,1]]}'
    code, report = run_json(
        capsys, "zi", "--field", "qq", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B",
        "--i", "1", "--p", good,
    )
    assert code == 0 and report["valid"] is True
    bad = '{"field":"qq","rows":[[0,1,0],[0,0,0],[0,0,0]]}'
    code, report = run_json(
        capsys, "zi", "--field", "qq", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B",
        "--i", "1", "--p", bad,
    )
    assert code == 1 and report["valid"] is False
    assert report["violated"] == "idempotent"


def test_zi_enumeration(capsys):
    code, report = run_json(
        capsys, "zi", "--field", "gf(2)",
        "--a", '{"field":"gf(2)","rows":[[1,0,0],[0,0,0],[0,0,0]]}',
        "--b", '{"field":"gf(2)","rows":[[1,0,0],[0,0,0],[0,0,0]]}',
        "--i", "1",
    )
    assert code == 0 and report["witness"] is not None


def test_zi_enumeration_over_qq_is_an_input_error(capsys):
    # enumerating idempotents needs a finite field: a field error (exit 1),
    # not a state-space cap (exit 2)
    code = main(["zi", "--field", "qq", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B",
                 "--i", "1"])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "FieldMismatch"


def test_bfs_infinite(capsys):
    code, report = run_json(
        capsys, "bfs", "--field", "gf(2)",
        "--a", '{"field":"gf(2)","rows":[[0,1],[0,0]]}',
        "--b", '{"field":"gf(2)","rows":[[0,0],[1,0]]}',
    )
    assert code == 0 and report["distance"] == "infinite"


def test_bfs_full_report(capsys):
    code, report = run_json(
        capsys, "bfs", "--field", "gf(2)", "--a", "fixture:ex25_A",
    )
    assert code == 0 and report["complete"] is True
    assert report["frontier_sizes"][0] == 1


def test_components_and_diameter(capsys):
    code, report = run_json(capsys, "components", "--field", "gf(2)", "--n", "2")
    assert code == 0 and report["count"] == 7 and report["sizes"] == [2] * 7
    code, report = run_json(capsys, "diameter", "--field", "gf(2)", "--n", "2")
    assert code == 0 and report["diameter"] == 1


def test_census_appends_json_lines(tmp_path, capsys):
    out = tmp_path / "census.jsonl"
    for _ in range(2):
        code = main(
            ["census", "--field", "gf(2)", "--n", "2",
             "--quantity", "commuting-pairs", "--out", str(out)]
        )
        assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["value"] == 88 for line in lines)


def test_census_sampled_quantities(capsys):
    code, report = run_json(
        capsys, "census", "--field", "gf(2)", "--n", "3",
        "--quantity", "dist-le-2", "--samples", "50", "--seed", "4",
    )
    assert code == 0 and report["value"]["samples"] == 50
    code, report = run_json(
        capsys, "census", "--field", "gf(2)", "--n", "3",
        "--quantity", "zi-pairs", "--i", "1", "--samples", "30", "--seed", "4",
    )
    assert code == 0 and report["crosschecked"] is True


def test_table_format(capsys):
    code, out = run(
        capsys, "components", "--field", "gf(2)", "--n", "2", "--format", "table"
    )
    assert code == 0
    assert "count: 7" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["derogatory", "--a", "fixture:ex46_A", "--out", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text())["derogatory"] is True


def test_exit_codes(capsys):
    assert main(["distance", "--field", "gf(6)", "--a", "fixture:ex25_A",
                 "--b", "fixture:ex25_B"]) == 1
    assert main(["census", "--field", "gf(7)", "--n", "3",
                 "--quantity", "commuting-pairs"]) == 2
    assert main([]) == 1  # usage error
    assert main(["distance", "--a", "missing-file.json", "--b", "also-missing.json"]) == 1
    capsys.readouterr()


def test_verify_paper_single_check(capsys):
    code, out = run(capsys, "verify-paper", "--only", "ex25-distance")
    assert code == 0
    assert "PASS ex25-distance" in out
    assert "ALL CHECKS PASS" in out


def test_verify_paper_writes_its_report(tmp_path, capsys):
    target = tmp_path / "verify.json"
    assert main(["verify-paper", "--only", "ex25-distance", "--out", str(target)]) == 0
    report = json.loads(target.read_text())
    assert report["all_pass"] is True
    assert [c["name"] for c in report["checks"]] == ["ex25-distance"]
    assert report["config"] == {"subcommand": "verify-paper", "only": "ex25-distance"}
    capsys.readouterr()


def test_mismatched_pairs_exit_1(capsys):
    gf3 = '{"field":"gf(3)","rows":[[1,2],[0,1]]}'
    gf5 = '{"field":"gf(5)","rows":[[1,2],[0,1]]}'
    two = '{"field":"gf(2)","rows":[[1,1],[0,1]]}'
    three = '{"field":"gf(2)","rows":[[1,1,0],[0,1,0],[0,0,0]]}'
    for argv, error in (
        (["distance", "--a", gf3, "--b", gf5], "FieldMismatch"),
        (["bfs", "--a", two, "--b", three], "DimMismatch"),
    ):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == error


def test_verify_paper_rejects_unknown_checks_before_running_any(capsys):
    for only, unknown in (("no-such-check", "'no-such-check'"), ("", "''"), ("ex25-distance,nope", "'nope'")):
        assert main(["verify-paper", "--only", only]) == 1
        out = capsys.readouterr()
        assert out.out == ""  # no check ran, so no row and no verdict
        err = json.loads(out.err)
        assert err["error"] == "ParseError" and unknown in err["detail"]


def test_unwritable_out_path_is_a_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["derogatory", "--a", "fixture:ex46_A", "--out", str(target)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and json.loads(out.err)["error"] == "FileNotFoundError"


def test_certificate_flags_must_be_json_booleans(capsys):
    pair = ["--field", "gf(9)", "--a", "fixture:ex410_A", "--b", "fixture:ex410_B"]
    cert = run_json(capsys, "pc-search", *pair)[1]["certificate"]
    assert cert["pa_scalar"] is False and cert["qb_scalar"] is False
    for flag, value in (("pa_scalar", "false"), ("qb_scalar", 0), ("pa_scalar", None)):
        assert main(["pc-verify", *pair, "--cert", json.dumps({**cert, flag: value})]) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == "ParseError"
    bare = {"cs": cert["cs"], "ds": cert["ds"]}  # absent flags mean false
    code, verdict = run_json(capsys, "pc-verify", *pair, "--cert", json.dumps(bare))
    assert code == 0 and verdict["valid"] is True


def test_empty_matrix_size_is_an_input_error(capsys):
    for argv in (
        ["census", "--n", "0", "--quantity", "commuting-pairs"],
        ["census", "--n", "0", "--quantity", "derogatory"],
        ["census", "--n", "0", "--quantity", "dist-le-2"],
        ["components", "--n", "0"],
        ["diameter", "--n", "0"],
    ):
        assert main([*argv, "--field", "gf(2)"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == "DimMismatch"


def test_sample_counts_below_one_are_input_errors(capsys):
    for samples in ("0", "-3"):
        for quantity in (["dist-le-2"], ["zi-pairs", "--i", "1"]):
            argv = ["census", "--field", "gf(2)", "--n", "2", "--quantity", *quantity]
            assert main([*argv, "--samples", samples]) == 1
            err = json.loads(capsys.readouterr().err)
            assert "sample count must be at least 1" in err["detail"]


def test_seeds_outside_the_philox_key_range_are_input_errors(capsys):
    for seed in ("-1", str(2**128)):
        for quantity in (["dist-le-2"], ["zi-pairs", "--i", "1"]):
            argv = ["census", "--field", "gf(2)", "--n", "2", "--quantity", *quantity, "--samples", "3"]
            assert main([*argv, "--seed", seed]) == 1
            out = capsys.readouterr()
            err = json.loads(out.err)
            assert out.out == "" and err["error"] == "ValueError"
            assert err["detail"] == f"the seed must satisfy 0 <= seed < 2^128, got {seed}"


def test_sample_flags_on_exhaustive_quantities_are_input_errors(capsys):
    for quantity in ("commuting-pairs", "derogatory"):
        for flags in (["--samples", "5"], ["--seed", "3"], ["--samples", "5", "--seed", "3"]):
            argv = ["census", "--field", "gf(2)", "--n", "2", "--quantity", quantity]
            assert main([*argv, *flags]) == 1
            out = capsys.readouterr()
            assert out.out == "" and "counted exhaustively" in json.loads(out.err)["detail"]


def test_dist_le_2_seed_without_samples_is_an_input_error(capsys):
    # without --samples the count is exhaustive, so a seed would be ignored
    argv = ["census", "--field", "gf(2)", "--n", "2", "--quantity", "dist-le-2", "--seed", "5"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and "counted exhaustively" in json.loads(out.err)["detail"]


DIST2 = ["dist2", "--field", "gf(3)", "--a", "fixture:ex410_A", "--b", "fixture:ex410_B"]


def test_dist2_minor_sample_counts_below_one_are_input_errors(capsys):
    for samples in ("0", "-3"):
        assert main([*DIST2, "--minors", "--samples", samples]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "sample count must be at least 1" in json.loads(out.err)["detail"]


def test_dist2_sample_flags_without_minors_are_input_errors(capsys):
    for flags in (["--samples", "7"], ["--seed", "2"], ["--samples", "7", "--seed", "2"]):
        assert main([*DIST2, *flags]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "only with --minors" in json.loads(out.err)["detail"]
    code, report = run_json(capsys, *DIST2, "--minors", "--samples", "7", "--seed", "2")
    assert code == 0 and report["minors"]["sampled"] == 7


def test_negative_radius_cap_is_an_input_error(capsys):
    pair = ["--field", "gf(2)", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B"]
    for argv in (pair, pair[:4]):
        assert main(["bfs", *argv, "--cap", "-1"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "radius cap" in json.loads(out.err)["detail"]
    code, report = run_json(capsys, "bfs", *pair, "--cap", "0")
    assert code == 0 and report["distance"] == "exceeds-cap"


def test_dist_le_2_at_n1_is_an_input_error(capsys):
    census = ["census", "--field", "gf(2)", "--n", "1", "--quantity", "dist-le-2"]
    one = '{"field": "gf(2)", "rows": [[1]]}'
    dist2 = ["dist2", "--a", one, "--b", one]
    for argv in (census, [*census, "--samples", "3"], dist2, [*dist2, "--minors"]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "DimMismatch", "detail": "the rank criterion needs n >= 2"
        }


def test_zi_pairs_rank_outside_range_is_an_input_error(capsys):
    for i in ("0", "3"):
        argv = ["census", "--field", "gf(2)", "--n", "2", "--quantity", "zi-pairs"]
        assert main([*argv, "--i", i, "--samples", "5"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "DimMismatch", "detail": f"rank {i} outside 1..floor(n/2)"
        }


def test_malformed_matrix_rows_are_parse_errors(capsys):
    for rows in ("5", "[5]", '[[1], 5]', '"11"'):
        a = f'{{"field": "gf(2)", "rows": {rows}}}'
        assert main(["centralizer", "--a", a]) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == "ParseError"
    assert main(["centralizer", "--a", '{"field": 5, "rows": [[1]]}']) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_malformed_certificate_lists_are_parse_errors(capsys):
    a = '{"field": "gf(2)", "rows": [[1, 1], [0, 1]]}'
    for cert in ('{"cs": 5, "ds": [1]}', '{"cs": [1], "ds": "1"}', '{"cs": [1], "ds": null}'):
        assert main(["pc-verify", "--a", a, "--b", a, "--cert", cert]) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == "ParseError"


def test_unknown_census_quantity_is_a_usage_error(capsys):
    # argparse's choices reject it before the census handler runs
    assert main(["census", "--field", "gf(2)", "--n", "2", "--quantity", "bogus"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "invalid choice: 'bogus'" in out.err


def test_bfs_pair_at_a_finite_distance(capsys):
    code, report = run_json(
        capsys, "bfs", "--field", "gf(2)",
        "--a", '{"field":"gf(2)","rows":[[1,1,0],[0,1,0],[0,0,0]]}',
        "--b", '{"field":"gf(2)","rows":[[0,0,0],[1,0,0],[0,0,1]]}',
    )
    assert code == 0 and report["distance"] == 2


def test_matrix_and_certificate_arguments_read_json_files(tmp_path, capsys):
    a_path, b_path, cert_path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "cert.json"
    a_path.write_text('{"field": "gf(2)", "rows": [[1, 1], [0, 1]]}')
    b_path.write_text('{"field": "gf(2)", "rows": [[0, 1], [0, 0]]}')  # A - I, so [A, B] = 0
    cert_path.write_text('{"cs": [1], "ds": [1]}')
    code, report = run_json(capsys, "derogatory", "--a", str(a_path))
    assert code == 0 and report["derogatory"] is False
    code, verdict = run_json(capsys, "pc-verify", "--a", str(a_path), "--b", str(b_path), "--cert", str(cert_path))
    assert code == 0 and verdict["valid"] is True


def test_subcommands_missing_a_required_flag_exit_1(capsys):
    assert main(["components", "--n", "2"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "CommdistError", "detail": "this subcommand needs --field"}
    assert main(["census", "--field", "gf(2)", "--n", "2", "--quantity", "zi-pairs", "--samples", "5"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "CommdistError", "detail": "zi-pairs needs --i and --samples"
    }


NESTED = "[" * 5000 + "]" * 5000


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # the decoder's RecursionError used to escape as a traceback
    a = '{"field": "qq", "rows": %s}' % NESTED
    nested_file = tmp_path / "a.json"
    nested_file.write_text(a)
    one = '{"field": "qq", "rows": [[1]]}'
    cases = (
        ["centralizer", "--a", a],
        ["pc-verify", "--a", one, "--b", one, "--cert", '{"cs": %s, "ds": [1]}' % NESTED],
        ["derogatory", "--a", str(nested_file)],
    )
    for argv in cases:
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1
        assert json.loads(out.err) == {"error": "ParseError", "detail": "JSON nested too deeply"}
        monkeypatch.setattr(sys, "argv", ["commdist", *argv])
        with pytest.raises(SystemExit) as exit_info:
            console_main()
        assert exit_info.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_non_integer_extension_coefficients_exit_1(capsys):
    for entry in ([[1]], ["a"], [1.5, True], ["2", 1]):
        a = json.dumps({"field": "gf(9)", "rows": [[entry]]})
        assert main(["derogatory", "--a", a]) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == "ParseError"


def test_oversized_values_are_echoed_cut_short(capsys):
    # an error message echoes at most the ends of a huge entry or field name,
    # and of an entry made of many long pieces
    deep = "[" * 900 + "1" + "]" * 900
    row = json.dumps(["x" * 80] * 40)
    cases = {
        '{"field": "qq", "rows": [["%s"]]}' % ("x" * 50000): "bad rational 'xxx",
        '{"field": "%s", "rows": [[1]]}' % ("f" * 30000): "bad field spec 'fff",
        '{"field": "qq", "rows": [[%s]]}' % deep: "cannot interpret [[[",
        '{"field": "qq", "rows": [[%s]]}' % row: "cannot interpret ['xxx",
        '{"field": "qq", "rows": [[[%s]]]}' % ", ".join([row] * 40): "cannot interpret [['xxx",
    }
    for a, start in cases.items():
        assert main(["centralizer", "--a", a]) == 1
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1 and len(out.err.encode()) <= 300
        err = json.loads(out.err)
        assert err["error"] == "ParseError" and err["detail"].startswith(start) and "..." in err["detail"]


def test_derogatory_census_at_n1_exits_1(capsys):
    assert main(["census", "--field", "gf(2)", "--n", "1", "--quantity", "derogatory"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and json.loads(out.err) == {"error": "DimMismatch", "detail": "derogatory needs n >= 2"}


def test_malformed_field_flags_exit_1(capsys):
    for field in ("gf(4294967311)", "gf(5^1)", "gf(5):1,2"):
        assert main(["components", "--field", field, "--n", "2"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == "ParseError"
