"""End-to-end CLI runs: reports, exit codes, replayability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import commdist
from commdist.cli import main


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


def test_sample_flags_on_exhaustive_quantities_are_input_errors(capsys):
    for quantity in ("commuting-pairs", "derogatory"):
        for flags in (["--samples", "5"], ["--seed", "3"], ["--samples", "5", "--seed", "3"]):
            argv = ["census", "--field", "gf(2)", "--n", "2", "--quantity", quantity]
            assert main([*argv, *flags]) == 1
            out = capsys.readouterr()
            assert out.out == "" and "counted exhaustively" in json.loads(out.err)["detail"]


def test_negative_radius_cap_is_an_input_error(capsys):
    pair = ["--field", "gf(2)", "--a", "fixture:ex25_A", "--b", "fixture:ex25_B"]
    for argv in (pair, pair[:4]):
        assert main(["bfs", *argv, "--cap", "-1"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "radius cap" in json.loads(out.err)["detail"]
    code, report = run_json(capsys, "bfs", *pair, "--cap", "0")
    assert code == 0 and report["distance"] == "exceeds-cap"
