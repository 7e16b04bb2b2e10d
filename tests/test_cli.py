"""End-to-end CLI runs, in process via main(argv)."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

from qschur import __version__, cli
from qschur import schur_sums as ss
from qschur.cli import acceptance_matrix, main
from qschur.partitions import distinct_pm1_counts, schur_counts
from qschur.schur_sums import check_params


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
    # the oracle side walks every admissible partition up to its window;
    # the cap holds even when the largest part keeps that walk short
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
    # |a| > L leaves both sides zero: refused rather than verified
    code, out, err = run(capsys, "verify", "--identity", "warnaar",
                         "--L", "3", "--a", "5")
    assert code == 2 and out == "" and "|a| <= L" in err


def test_verify_runs_the_composite_rows(capsys):
    for argv, params in ((["--identity", "schur-counts"], [{}]),
                         (["--identity", "bijection-sweep"], [{}]),
                         (["--identity", "cor1-bounded-sum", "--N", "1..3"],
                          [{"N": 1}, {"N": 2}, {"N": 3}])):
        code, doc, _ = run_json(capsys, "verify", *argv)
        assert code == 0
        assert [e["params"] for e in doc["entries"]] == params
        assert all(e["status"] == "verified" for e in doc["entries"])


def test_verify_sweeps_the_declared_t_of_qt_limit(capsys, monkeypatch):
    declared = ss._REGISTRY[ss.IdentityId.QT_LIMIT][0]
    for spec in (declared["t"], ss._Param(1, last=1)):
        monkeypatch.setitem(declared, "t", spec)
        code, doc, _ = run_json(capsys, "verify", "--identity", "qt-limit",
                                "--T", "5")
        assert code == 0
        assert [e["params"] for e in doc["entries"]] == [
            {"T": 5, "t": t} for t in range(spec.minimum, spec.last + 1)]
    # --t and the runner read the same declaration: t = 2 is now outside it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "qt-limit", "--t", "2", "--T", "5"])
    assert exc.value.code == 2
    assert "invalid choice: 2" in capsys.readouterr().err
    with pytest.raises(ss.UsageError, match="t must be 1"):
        ss.verify("qt-limit", {"t": 2, "T": 5})


class Worked(Exception):
    """Raised in place of any work: the input got past validation."""


@pytest.fixture
def no_work(monkeypatch):
    # every kind of work a subcommand starts raises Worked instead, so a
    # test sees validation alone and runs no builder at a cap
    def work(*args, **kwargs):
        raise Worked
    for name in ("_run_rows", "schur_counts", "distinct_pm1_counts",
                 "certify_range", "apply_motions", "decode"):
        monkeypatch.setattr(cli, name, work)
    for name, (_, declared) in list(ss._SERIES.items()):
        monkeypatch.setitem(ss._SERIES, name, (work, declared))


# the verify option each capped parameter travels under; t has no cap of
# its own, as argparse takes only its declared values, and no option
# reaches rec-summand's m, n1 and n2
VERIFY_OPTIONS = {"N": "--N", "M": "--M", "L": "--L", "a": "--a", "T": "--T",
                  "max": "--max-n"}
# the subcommands that take the rules of a row for their --max-n
MIRRORS = {("schur-counts", "max_n"): "enumerate",
           ("bijection-sweep", "max_size"): "bijection"}


def capped_options():
    """(argv, option, declaration) for every parameter a CLI option reaches,
    the argv giving every other parameter the caller must give."""
    def required(declared, skip):
        return ["--%s=%d" % (name.replace("_", "-"), spec.minimum)
                for name, spec in declared.items()
                if name != skip and spec.default is None and not spec.optional]

    for ident, (declared, _) in ss._REGISTRY.items():
        for name, spec in declared.items():
            if (ident.value, name) in MIRRORS:
                yield [MIRRORS[ident.value, name]], "--max-n", spec
            elif name in VERIFY_OPTIONS:
                yield (["verify", "--identity", ident.value,
                        *required(declared, name)], VERIFY_OPTIONS[name], spec)
            else:
                assert name in ("t", "m", "n1", "n2"), (ident, name)
    for series, (_, declared) in ss._SERIES.items():
        for name, spec in declared.items():
            yield (["series", series, *required(declared, name)],
                   "--" + name.replace("_", "-"), spec)
    # enumerate's largest part takes the oracle series' declaration
    yield (["enumerate", "--max-n=0", "--class=schur"], "--largest-part",
           ss._SERIES["oracle"][1]["largest_part"])


def test_every_declared_cap_holds_on_the_cli_path(capsys, no_work):
    walked = 0
    for argv, option, spec in capped_options():
        walked += 1
        # the cap passes validation and reaches the work
        for value in {spec.cap, -spec.cap}:
            if spec.minimum is None or value >= spec.minimum:
                with pytest.raises(Worked):
                    main([*argv, "%s=%d" % (option, value)])
        # one past it, either way, is refused before any work
        for value in (spec.cap + 1, -spec.cap - 1):
            code, out, err = run(capsys, *argv, "%s=%d" % (option, value))
            assert code == 2 and out == "", (argv, option, value)
            assert "exceeds the hard cap %d" % spec.cap in err, (argv, option)
        # the library is held to no cap
        assert spec.check(option, spec.cap + 1) == spec.cap + 1
    assert walked == 34


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "gf-bounded", "--N", "3", "--T", "101"],
    ["report", "--identity", "q1-quad", "--jobs", str(cli._JOBS.cap + 1)],
    ["enumerate", "--max-n", "101"],
    ["bijection", "--motions", '{"n1":0,"n2":2,"m":0,"rho2":[99999999]}'],
    ["series", "oracle", "--T", "101"],
], ids=["verify", "report", "enumerate", "bijection", "series"])
def test_one_past_a_cap_exits_2_before_any_work(capsys, no_work, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "exceeds the hard cap" in err


@pytest.mark.parametrize("identity, option, cap", [
    ("schur-poly", "--N", 60), ("rec-andrews", "--N", 80),
    ("cor1-bounded-sum", "--N", 40),
    ("warnaar", "--L", 50), ("rec-l", "--N", 50), ("dual", "--N", 60),
    ("t0-binom", "--N", 80), ("summation-m", "--M", 50),
    ("q1-triple", "--M", 60), ("q1-quad", "--M", 50)])
def test_steep_rows_take_caps_of_their_own(capsys, no_work, identity, option, cap):
    # at or below the index cap of 100, each of these rows ran for half a
    # minute or more; each cap is a round value that verifies in under
    # 10 s, whole process
    with pytest.raises(Worked):
        main(["verify", "--identity", identity, "%s=%d" % (option, cap)])
    code, out, err = run(capsys, "verify", "--identity", identity,
                         "%s=%d" % (option, cap + 1))
    assert (code, out) == (2, "")
    assert err == "error: %s=%d exceeds the hard cap %d\n" % (option[2:], cap + 1, cap)


@pytest.fixture
def thread_workers(monkeypatch):
    # stands in for the worker processes: each serves rows on a thread over
    # a real pipe, so the parent's hand-out runs as it is, and forks nothing
    started = []

    def start():
        parent_end, child_end = multiprocessing.Pipe()
        worker = threading.Thread(target=cli._serve_rows, args=(child_end,),
                                  daemon=True)
        worker.start()
        started.append(worker)
        return worker, parent_end

    monkeypatch.setattr(cli, "_start_worker", start)
    return started


def test_jobs_is_capped_and_sizes_the_pool(capsys, thread_workers):
    code, doc, _ = run_json(capsys, "report", "--identity", "q1-quad",
                            "--jobs", str(cli._JOBS.cap))
    assert code == 0 and len(doc["entries"]) == 16
    assert len(thread_workers) == 16     # never more workers than rows
    assert multiprocessing.active_children() == []
    code, out, err = run(capsys, "report", "--jobs", str(cli._JOBS.cap + 1))
    assert code == 2 and out == "" and "hard cap" in err
    code, out, err = run(capsys, "verify", "--identity", "dual", "--N", "0..3",
                         "--jobs", "0")
    assert (code, out, err) == (2, "", "error: parameter 'jobs' must be >= 1\n")
    assert len(thread_workers) == 16


def test_idle_worker_takes_the_back_half_of_the_longest_run(
        capsys, monkeypatch, thread_workers):
    # 10 rows on 2 workers: runs N = 0..4 and N = 5..9.  Row N = 0 is held
    # until N = 4 has run, so the second worker finishes its run, takes the
    # back half N = 3, 4 of the first worker's run, and only then lets the
    # first worker go on with N = 1.  N = 4 is held in turn until N = 1
    # has started: else a first worker slow to wake could find its last
    # rows taken too.  Who runs N = 2 is a race.
    ran = {}
    release, resumed = threading.Event(), threading.Event()
    execute = cli._execute_row

    def recording(row):
        N = row["params"]["N"]
        if N == 0:
            assert release.wait(30)
        ran[N] = threading.get_ident()
        if N == 1:
            resumed.set()
        if N == 4:
            release.set()
            assert resumed.wait(30)
        return execute(row)

    monkeypatch.setattr(cli, "_execute_row", recording)
    code, doc, _ = run_json(capsys, "verify", "--identity", "dual",
                            "--N", "0..9", "--jobs", "2")
    assert code == 0
    assert [e["params"]["N"] for e in doc["entries"]] == list(range(10))
    first, second = (worker.ident for worker in thread_workers)
    assert {N for N, who in ran.items() if who == first} - {2} == {0, 1}
    assert {N for N, who in ran.items() if who == second} - {2} \
        == {3, 4, 5, 6, 7, 8, 9}


@pytest.mark.parametrize("argv", [
    ("report", "--identity", "warnaar"),                 # 13 rows
    ("verify", "--identity", "dual", "--N", "0..10"),    # 11 rows
])
def test_pooled_entries_equal_serial_on_uneven_runs(capsys, argv):
    code, serial, _ = run_json(capsys, *argv)
    assert code == 0
    for jobs in range(2, 6):
        assert len(serial["entries"]) % jobs != 0
        code, pooled, _ = run_json(capsys, *argv, "--jobs", str(jobs))
        assert code == 0 and pooled["entries"] == serial["entries"], jobs


def test_worker_usage_error_exits_2_without_traceback(capfd):
    # T > N is refused by the t0-limit row itself, inside a worker
    code = main(["verify", "--identity", "t0-limit", "--N", "10..20",
                 "--T", "15", "--jobs", "2"])
    out, err = capfd.readouterr()
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "exceeds the convergence" in err
    assert "Traceback" not in err


def test_worker_death_exits_2_without_hang_or_traceback():
    # every worker dies inside its first row; run in a child interpreter so
    # a hang fails on the timeout instead of stalling the suite
    script = ("import os, sys\n"
              "from qschur import cli\n"
              "cli._execute_row = lambda row: os._exit(3)\n"
              "sys.exit(cli.main(['verify', '--identity', 'dual',"
              " '--N', '0..5', '--jobs', '2']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: worker process")
    assert "code 3" in lines[0]


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "qt-limit", "--t", "3"],
    # no option is read by a prefix of its name: --m is not --max-n
    ["verify", "--identity", "rec-summand", "--N", "4", "--m", "1"],
    ["report", "--iden", "dual", "--for", "json"],
], ids=["t-outside-choices", "m-is-not-max-n", "report-prefixes"])
def test_argparse_rejections_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


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


@pytest.mark.parametrize("identity, argv", [
    ("qt-limit", ["--T", "50", "--t", "1"]),
    ("gf-bounded", ["--T", "45", "--N", "3"]),
    ("t0-limit", ["--T", "40", "--N", "40"]),
])
def test_verify_prints_a_row_as_report_does(capsys, identity, argv):
    # verify builds each row's params in declaration order, as report
    # does, whatever order the options come in: the JSON entries agree
    # key for key, and the text lines word for word
    _, report, _ = run_json(capsys, "report", "--identity", identity)
    _, verify, _ = run_json(capsys, "verify", "--identity", identity, *argv)
    [entry] = verify["entries"]
    assert json.dumps(entry) in [json.dumps(e) for e in report["entries"]]
    _, report_text, _ = run(capsys, "report", "--identity", identity)
    _, verify_text, _ = run(capsys, "verify", "--identity", identity, *argv)
    assert verify_text.splitlines()[0] in report_text.splitlines()


def test_report_fault_injection_fails_loudly(capsys, monkeypatch):
    monkeypatch.setenv("QSCHUR_FAULT_INJECT", "1")
    code, doc, _ = run_json(capsys, "report", "--identity", "summation-m")
    assert code == 1
    assert doc["summary"]["failed"] == 1
    failed = [e for e in doc["entries"] if e["status"] == "failed"]
    assert failed[0]["first_discrepancy"] is not None
    assert "_perturb" not in failed[0]["params"]


def test_report_fault_injection_names_the_x_degree(capsys, monkeypatch):
    # an x-graded row's text line says which stratum differs first
    monkeypatch.setenv("QSCHUR_FAULT_INJECT", "1")
    code, out, _ = run(capsys, "report", "--identity", "gf-bounded")
    lines = out.splitlines()
    assert code == 1
    assert lines[0].endswith(
        " failed  first diff at x^0, q-exponent 0/2: lhs=2 rhs=1")
    assert lines[-1] == "15 verified, 1 failed"


def test_acceptance_matrix_shape():
    rows = acceptance_matrix()
    assert len(rows) == 216
    checks = {row["check"] for row in rows}
    assert "schur-poly" in checks
    assert "schur-counts" in checks
    assert "bijection-sweep" in checks
    # every row is runnable as-is: params are plain JSON scalars that the
    # registry accepts unchanged
    for row in rows:
        json.dumps(row)
        check_params(row["check"], row["params"])
    # the rows built from the registry declarations are the hand-written
    # matrix they replaced, parameter order included
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "8fae661169c1fed6df523d02e9ed8d4245f1f9056c7d77a77bb5983b3a8772e6"


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


def test_enumerate_refuses_largest_part_before_counting(capsys, monkeypatch):
    def counted(*args, **kwargs):
        raise AssertionError("counted before refusing --largest-part")
    monkeypatch.setattr(cli, "schur_counts", counted)
    code, out, err = run(capsys, "enumerate", "--max-n", "100",
                         "--class", "both", "--largest-part", "100")
    assert code == 2 and out == "" and "--largest-part" in err


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


def test_bijection_failed_sweep_exits_1(capsys, tmp_path):
    # the first sweep past the certified 56 meets the size-58 rule gap:
    # the text names it, and --out holds the failed document
    out_file = tmp_path / "doc.json"
    code, out, _ = run(capsys, "bijection", "--max-n", "58",
                       "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    assert code == 1
    assert doc["max_size"] == 58 and doc["status"] == "failed"
    assert doc["failure"]["kind"] == "no-rule"
    assert out.splitlines() == ["sweep to size 58: failed",
                                json.dumps(doc["failure"])]


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
    # only JSON integers and lists of them: nothing is coerced
    for motions in ('{"n1": 1e400, "n2": 0, "m": 0}', "[" * 100000,
                    '{"n1": 1.9, "n2": 0, "m": 0}',
                    '{"n1": "2", "n2": 0, "m": 0}',
                    '{"n1": true, "n2": 0, "m": 0}',
                    '{"n1": 0, "n2": 0, "m": 2, "r": "12"}',
                    '{"n1": 0, "n2": 0, "m": 1, "r": [1.0]}'):
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
    assert code == 2 and "missing parameter 'T'" in err
    code, _, err = run(capsys, "series", "bounded", "--T", "10")
    assert code == 2 and "missing parameter 'largest_part'" in err
    code, _, err = run(capsys, "series", "lhs", "--N", "0..3")
    assert code == 2 and "single" in err
    code, _, err = run(capsys, "series", "lhs")
    assert code == 2
    code, _, err = run(capsys, "series", "bounded", "--T", "10",
                       "--largest-part", "-1")
    assert code == 2 and err.startswith("error:")
    code, out, err = run(capsys, "series", "product", "--T", "-1")
    assert code == 2 and out == "" and "'T' must be >= 0" in err
    for name in ("lhs", "rhs"):
        code, out, err = run(capsys, "series", name, "--N", "-2")
        assert code == 2 and out == "" and "'N' must be >= 0" in err
    code, out, err = run(capsys, "series", "oracle", "--T", "10",
                         "--largest-part", "-1")
    assert code == 2 and out == "" and err.startswith("error:")
    # the bound sets binomial tops, so an uncapped one builds huge polynomials
    code, out, err = run(capsys, "series", "bounded", "--T", "10",
                         "--largest-part", "101")
    assert code == 2 and out == "" and "hard cap" in err
    # the oracle walks every admissible partition up to its window
    code, out, err = run(capsys, "series", "oracle", "--T", "101")
    assert code == 2 and out == "" and "hard cap" in err
    # an option the series does not read is refused, not dropped: the
    # bounded label on an unbounded series would be a wrong document
    for argv in (("ali", "--T", "4", "--largest-part", "3", "--format", "json"),
                 ("lhs", "--N", "2", "--T", "5"),
                 ("product", "--T", "3", "--N", "7"),
                 ("kursungoz", "--T", "3", "--N", "9")):
        code, out, err = run(capsys, "series", *argv)
        assert code == 2 and out == "" and "does not take" in err, argv


def test_out_writes_json_even_in_text_mode(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run(capsys, "verify", "--identity", "dual", "--N", "3",
                       "--out", str(target))
    assert code == 0
    assert "verified" in out          # text went to stdout
    doc = json.loads(target.read_text())
    assert doc["summary"] == {"verified": 1, "failed": 0}


def test_partition_size_takes_the_motion_cap(capsys, no_work):
    # a pre-image has its partition's size, and decoding a pair takes time
    # linear in its distance from its dock: size 10,000 reaches decode
    with pytest.raises(Worked):
        main(["bijection", "--partition", "4997,5003"])
    code, out, err = run(capsys, "bijection", "--partition",
                         "1000000000,1000000003")
    assert (code, out) == (2, "")
    assert err == ("error: partition_size=2000000003 exceeds the hard cap %d\n"
                   % cli._MOTION_SIZE.cap)


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "q1-quad", "--M", "2"],
    ["report", "--identity", "q1-quad"],
    ["enumerate", "--max-n", "3"],
    ["bijection", "--partition", "5,8"],
    ["series", "lhs", "--N", "2"],
], ids=["verify", "report", "enumerate", "bijection", "series"])
def test_unwritable_out_is_one_error_line(capsys, tmp_path, argv):
    # a missing directory and a directory: exit 2, nothing on stdout, one
    # error line and no traceback
    for target, reason in ((tmp_path / "missing" / "doc.json",
                            "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, ""), target
        assert err == "error: cannot write --out %s: %s\n" % (target, reason)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
