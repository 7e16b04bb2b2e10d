"""End-to-end CLI runs, in process via main(argv)."""

import json

import pytest

from qschur import __version__, cli
from qschur.cli import acceptance_matrix, main
from qschur.partitions import distinct_pm1_counts, schur_counts


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_verify_text_output(capsys):
    code, out, err = run(capsys, "verify", "--identity", "schur-poly",
                         "--N", "0..4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all("verified" in line for line in lines[:5])
    assert lines[-1] == "5 verified, 0 failed"


def test_verify_json_document(capsys):
    code, doc, _ = run_json(capsys, "verify", "--identity", "rec-andrews",
                            "--N", "2..6")
    assert code == 0
    assert set(doc) == {"version", "started_at", "entries", "summary"}
    assert doc["version"] == __version__
    assert doc["summary"] == {"verified": 5, "failed": 0}
    for entry, N in zip(doc["entries"], range(2, 7)):
        assert entry["identity"] == "rec-andrews"
        assert entry["params"] == {"N": N}
        assert entry["status"] == "verified"
        assert entry["first_discrepancy"] is None
        assert entry["elapsed_ms"] == 0


def test_verify_sweeps_combine(capsys):
    code, doc, _ = run_json(capsys, "verify", "--identity", "warnaar",
                            "--L", "3", "--a=-3..3")
    assert code == 0
    assert len(doc["entries"]) == 7
    assert [e["params"]["a"] for e in doc["entries"]] == list(range(-3, 4))


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--identity", "no-such-thing")
    assert code == 2 and "unknown identity" in err
    code, _, err = run(capsys, "verify", "--identity", "schur-poly",
                       "--N", "101")
    assert code == 2 and "hard cap" in err
    code, _, err = run(capsys, "verify", "--identity", "qt-limit",
                       "--T", "501")
    assert code == 2 and "hard cap" in err
    # the oracle side stores every admissible partition up to its window;
    # the cap holds even when the largest part keeps that store small
    code, out, err = run(capsys, "verify", "--identity", "gf-bounded",
                         "--N", "3", "--T", "101")
    assert code == 2 and out == "" and "hard cap" in err
    code, _, err = run(capsys, "verify", "--identity", "schur-poly",
                       "--N", "5..3")
    assert code == 2 and "empty" in err
    code, out, err = run(capsys, "verify", "--identity", "schur-poly",
                         "--N", "-3")
    assert code == 2 and out == "" and ">= 0" in err
    code, out, err = run(capsys, "verify", "--identity", "schur-poly",
                         "--N", "0..1", "--T", "5")
    assert code == 2 and out == "" and "'T'" in err
    code, out, err = run(capsys, "verify", "--identity", "dual",
                         "--N", "2", "--L", "3")
    assert code == 2 and out == "" and "'L'" in err
    # ranges are capped before they are built, names checked before the
    # sweep product is
    code, out, err = run(capsys, "verify", "--identity", "schur-poly",
                         "--N", "0..1000000000000")
    assert code == 2 and out == "" and "hard cap" in err
    code, out, err = run(capsys, "verify", "--identity", "dual",
                         "--N", "0..100", "--M", "0..100", "--L", "0..100",
                         "--a=-100..100")
    assert code == 2 and out == "" and "'M'" in err
    # composite rows take their declared parameters only
    code, out, err = run(capsys, "verify", "--identity", "cor1-bounded-sum")
    assert code == 2 and out == "" and "missing parameter 'N'" in err
    code, out, err = run(capsys, "verify", "--identity", "schur-counts",
                         "--max-n", "20")
    assert code == 2 and out == "" and "'max'" in err


def test_verify_runs_the_composite_rows(capsys):
    for argv, params in ((["--identity", "schur-counts"], [{}]),
                         (["--identity", "bijection-sweep"], [{}]),
                         (["--identity", "cor1-bounded-sum", "--N", "1..3"],
                          [{"N": 1}, {"N": 2}, {"N": 3}])):
        code, doc, _ = run_json(capsys, "verify", *argv)
        assert code == 0
        assert [e["params"] for e in doc["entries"]] == params
        assert all(e["status"] == "verified" for e in doc["entries"])


def test_jobs_is_capped_and_sizes_the_pool(capsys, monkeypatch):
    asked = []

    class RecordingPool:
        # stands in for the process pool: records its size, forks nothing
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, rows):
            return map(fn, rows)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, doc, _ = run_json(capsys, "report", "--identity", "q1-quad",
                            "--jobs", str(cli.MAX_JOBS))
    assert code == 0 and len(doc["entries"]) == 16
    assert asked == [16]     # never more workers than rows
    code, out, err = run(capsys, "report", "--jobs", str(cli.MAX_JOBS + 1))
    assert code == 2 and out == "" and "hard cap" in err
    code, out, err = run(capsys, "verify", "--identity", "dual", "--N", "0..3",
                         "--jobs", "0")
    assert code == 2 and out == "" and ">= 1" in err
    assert asked == [16]


def test_verify_rejects_t_outside_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "qt-limit", "--t", "3"])
    assert exc.value.code == 2


def test_report_filter_runs_only_matching_rows(capsys):
    code, doc, _ = run_json(capsys, "report", "--identity", "q1-triple")
    assert code == 0
    assert len(doc["entries"]) == 16
    assert all(e["identity"] == "q1-triple" for e in doc["entries"])


def test_report_empty_filter_is_clean(capsys):
    # every registry identity has rows, so an empty filter is a bad name
    code, out, err = run(capsys, "report", "--identity", "nothing-here",
                         "--format", "json")
    assert code == 2 and out == "" and "unknown identity" in err


def test_report_parallel_equals_serial(capsys):
    code1, doc1, _ = run_json(capsys, "report", "--identity", "q1-quad")
    code2, doc2, _ = run_json(capsys, "report", "--identity", "q1-quad",
                              "--jobs", "3")
    assert code1 == code2 == 0
    assert doc1["entries"] == doc2["entries"]


def test_report_fault_injection_fails_loudly(capsys, monkeypatch):
    monkeypatch.setenv("QSCHUR_FAULT_INJECT", "1")
    code, doc, _ = run_json(capsys, "report", "--identity", "summation-m")
    assert code == 1
    assert doc["summary"]["failed"] == 1
    failed = [e for e in doc["entries"] if e["status"] == "failed"]
    assert failed[0]["first_discrepancy"] is not None
    assert "_perturb" not in failed[0]["params"]


def test_acceptance_matrix_shape():
    rows = acceptance_matrix()
    assert len(rows) == 216
    checks = {row["check"] for row in rows}
    assert "schur-poly" in checks
    assert "schur-counts" in checks
    assert "bijection-sweep" in checks
    # every row is runnable as-is: params are plain JSON scalars
    for row in rows:
        json.dumps(row)


def test_enumerate_both_classes(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--max-n", "20")
    assert code == 0
    assert doc["classes_agree"] is True
    assert doc["counts"]["schur"] == schur_counts(20)
    assert doc["counts"]["pm1mod3"] == distinct_pm1_counts(20)


def test_enumerate_largest_part(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--max-n", "12",
                            "--class", "schur", "--largest-part", "5")
    assert code == 0
    assert doc["largest_part"] == 5
    assert doc["counts"]["schur"] == schur_counts(12, largest_part=5)


def test_enumerate_usage_errors(capsys):
    code, _, err = run(capsys, "enumerate", "--max-n", "101")
    assert code == 2 and "hard cap" in err
    code, _, err = run(capsys, "enumerate", "--max-n", "10",
                       "--class", "pm1mod3", "--largest-part", "4")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--max-n", "-1")
    assert code == 2 and err.startswith("error:")
    code, out, err = run(capsys, "enumerate", "--max-n", "10",
                         "--class", "schur", "--largest-part", "-1")
    assert code == 2 and out == "" and err.startswith("error:")
    # argparse reads --opt=-- as an empty list, skipping the int conversion
    code, out, err = run(capsys, "enumerate", "--max-n=--")
    assert code == 2 and out == "" and err.startswith("error:")


def test_bijection_decode(capsys):
    code, doc, _ = run_json(capsys, "bijection", "--partition", "5,8")
    assert code == 0
    assert doc["motions"] == {"n1": 0, "n2": 2, "m": 0,
                              "r": [], "rho2": [1], "rho1": []}


def test_bijection_encode(capsys):
    motions = json.dumps({"n1": 0, "n2": 2, "m": 0, "rho2": [1]})
    code, doc, _ = run_json(capsys, "bijection", "--motions", motions)
    assert code == 0
    assert doc["partition"] == "5,8"
    assert doc["size"] == 13


def test_bijection_roundtrip_via_cli(capsys):
    code, doc, _ = run_json(capsys, "bijection", "--partition", "2,7,10")
    assert code == 0
    code2, doc2, _ = run_json(capsys, "bijection", "--motions",
                              json.dumps(doc["motions"]))
    assert code2 == 0
    assert doc2["partition"] == "2,7,10"


def test_bijection_sweep(capsys):
    code, doc, _ = run_json(capsys, "bijection", "--max-n", "24")
    assert code == 0
    assert doc["status"] == "verified"
    assert doc["partitions"] == sum(schur_counts(24))


def test_bijection_failures_emit_a_failed_document(capsys, tmp_path):
    # the size-58 motion-rule gap, from both directions: exit 1 with a
    # document saying what failed, on stdout and in --out
    out_file = tmp_path / "doc.json"
    gap = '{"n1":2,"n2":2,"m":1,"r":[1],"rho2":[1],"rho1":[2]}'
    for argv, kind in ((["--motions", gap], "no-rule"),
                       (["--partition", "4,8,11,16,19"], "decode")):
        code, doc, _ = run_json(capsys, "bijection", *argv,
                                "--out", str(out_file))
        assert code == 1
        assert doc["status"] == "failed"
        assert doc["failure"]["kind"] == kind and doc["failure"]["detail"]
        assert json.loads(out_file.read_text()) == doc


def test_bijection_usage_errors(capsys):
    code, _, err = run(capsys, "bijection", "--partition", "1,3")
    assert code == 2 and "gap conditions" in err
    code, _, err = run(capsys, "bijection", "--partition", "5,8",
                       "--max-n", "10")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "bijection", "--motions", "not json")
    assert code == 2
    code, _, _ = run(capsys, "bijection", "--max-n", "101")
    assert code == 2
    code, out, err = run(capsys, "bijection", "--motions",
                         '{"n1":0,"n2":2,"m":0,"rho2":[99999999]}')
    assert code == 2 and out == "" and "hard cap" in err
    for motions in ('{"n1": 1e400, "n2": 0, "m": 0}', "[" * 100000):
        code, out, err = run(capsys, "bijection", "--motions", motions)
        assert code == 2 and out == "" and "bad motion data" in err


def test_series_polynomial_text(capsys):
    code, out, _ = run(capsys, "series", "lhs", "--N", "1")
    assert code == 0
    assert out.strip() == "1 + q + q^2"


def test_series_lhs_equals_rhs_pairs(capsys):
    _, lhs_doc, _ = run_json(capsys, "series", "lhs", "--N", "6")
    _, rhs_doc, _ = run_json(capsys, "series", "rhs", "--N", "6")
    assert lhs_doc["pairs"] == rhs_doc["pairs"]


def test_series_strata_output(capsys):
    code, doc, _ = run_json(capsys, "series", "bounded", "--T", "12",
                            "--largest-part", "4")
    assert code == 0
    assert doc["largest_part"] == 4
    strata = dict((x, dict((e, c) for e, c in pairs))
                  for x, pairs in doc["strata"])
    # one partition of size 0 (empty) and none of size 1 with a part <= 4
    assert strata[0][0] == "1"
    _, oracle_doc, _ = run_json(capsys, "series", "oracle", "--T", "12",
                                "--largest-part", "4")
    assert oracle_doc["strata"] == doc["strata"]


def test_series_usage_errors(capsys):
    code, _, err = run(capsys, "series", "product")
    assert code == 2 and "--T" in err
    code, _, err = run(capsys, "series", "bounded", "--T", "10")
    assert code == 2 and "largest-part" in err
    code, _, err = run(capsys, "series", "lhs", "--N", "0..3")
    assert code == 2 and "single" in err
    code, _, err = run(capsys, "series", "lhs")
    assert code == 2
    code, _, err = run(capsys, "series", "bounded", "--T", "10",
                       "--largest-part", "-1")
    assert code == 2 and err.startswith("error:")
    code, out, err = run(capsys, "series", "product", "--T", "-1")
    assert code == 2 and out == "" and "T must be >= 0" in err
    for name in ("lhs", "rhs"):
        code, out, err = run(capsys, "series", name, "--N", "-2")
        assert code == 2 and out == "" and "N must be >= 0" in err
    code, out, err = run(capsys, "series", "oracle", "--T", "10",
                         "--largest-part", "-1")
    assert code == 2 and out == "" and err.startswith("error:")
    # the bound sets binomial tops, so an uncapped one builds huge polynomials
    code, out, err = run(capsys, "series", "bounded", "--T", "10",
                         "--largest-part", "101")
    assert code == 2 and out == "" and "hard cap" in err
    # the oracle stores every admissible partition up to its window
    code, out, err = run(capsys, "series", "oracle", "--T", "101")
    assert code == 2 and out == "" and "hard cap" in err
    # an option the series does not read is refused, not dropped: the
    # bounded label on an unbounded series would be a wrong document
    for argv in (("ali", "--T", "4", "--largest-part", "3", "--format", "json"),
                 ("lhs", "--N", "2", "--T", "5"),
                 ("product", "--T", "3", "--N", "7"),
                 ("kursungoz", "--T", "3", "--N", "9")):
        code, out, err = run(capsys, "series", *argv)
        assert code == 2 and out == "" and "does not read" in err, argv


def test_out_writes_json_even_in_text_mode(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run(capsys, "verify", "--identity", "dual", "--N", "3",
                       "--out", str(target))
    assert code == 0
    assert "verified" in out          # text went to stdout
    doc = json.loads(target.read_text())
    assert doc["summary"] == {"verified": 1, "failed": 0}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
