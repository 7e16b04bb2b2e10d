"""Property: every argv of every subcommand keeps the CLI contract.

Exit code 0, 1 or 2; never a traceback; exit 1 only when the JSON
document reports a failure.  Values are drawn cheap (indices <= 6,
windows <= 20, sweep sizes <= 16), mixed with malformed tokens, negatives
and values just over a hard cap, which must be rejected before any work.
The two commands that run the partition oracle also draw a window just
over its cap.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur.cli import main
from qschur.schur_sums import MAX_INDEX, MAX_WINDOW, IdentityId

JUNK = st.sampled_from(["", "x", "1.5", "1e3", "--", "0x3", "3..1", "..2",
                        "1..", "٣"])


def ints(lo, hi, over):
    return st.one_of(st.integers(lo, hi).map(str), st.just(str(over)),
                     st.just(str(-over)), JUNK)


INDEX = ints(-2, 6, MAX_INDEX + 1)
WINDOW = ints(-1, 20, MAX_WINDOW + 1)
# the partition oracle's window takes the index cap instead
ORACLE_OVER = "--T=%d" % (MAX_INDEX + 1)
RANGE = st.one_of(INDEX, st.tuples(st.integers(-2, 6), st.integers(-2, 6)).map(
    lambda ab: "%d..%d" % ab), st.just("0..%d" % (MAX_INDEX + 1)))
JOBS = st.sampled_from(["-1", "0", "1", "2", "x"])
# identities whose whole report filter runs in milliseconds
CHEAP_ROWS = ["q1-quad", "exponent-diff", "schur-counts", "cor1-bounded-sum",
              "t0-limit", "gf-ali-eq-kursungoz", "gf-even-odd-split",
              "analytic-schur", "gf-bounded", "no-such-row"]


def options(**choices):
    # a random subset of the options, each as --name=value
    picked = st.fixed_dictionaries({}, optional=choices)
    return picked.map(lambda d: ["--%s=%s" % kv for kv in d.items()])


def command(name, **choices):
    return options(**choices).map(lambda opts: [name, *opts])


motion_data = st.fixed_dictionaries(
    {"n1": st.integers(0, 2), "n2": st.integers(0, 2), "m": st.integers(0, 2)},
    optional={name: st.lists(st.integers(-1, 1), max_size=2)
              for name in ("r", "rho2", "rho1")}).map(json.dumps)
# admissible partitions among these stay below size 57, where the motion
# rules are certified, so a decode never fails genuinely
partitions = st.lists(st.integers(-1, 14), max_size=4).map(
    lambda parts: ",".join(map(str, parts)))
# the size-58 motion-rule gap, reached from both directions: exit 1
GAP = [["bijection", '--motions={"n1":2,"n2":2,"m":1,"r":[1],"rho2":[1],'
                     '"rho1":[2]}'],
       ["bijection", "--partition=4,8,11,16,19"]]
# an --out that cannot be written, a missing directory or a directory:
# exit 2 before anything reaches stdout
UNWRITABLE = [["series", "lhs", "--N=2", "--out=/nonexistent/dir/x.json"],
              ["enumerate", "--max-n=3", "--out=."]]
# motion data that is JSON but not an object: exit 2
NOT_OBJECTS = [["bijection", "--motions=" + text] for text in ("[]", "5", "null")]
# motion data with a key the CLI does not read: exit 2, never ignored
UNKNOWN_KEYS = [["bijection", '--motions={"n1":0,"n2":0,"m":1,"r":[2],"rho":[5]}']]
# the fixed draws that are usage errors: exit 2 with one error line
USAGE = UNWRITABLE + NOT_OBJECTS + UNKNOWN_KEYS

ARGV = st.one_of(
    *map(st.just, GAP + USAGE),
    command("verify", identity=st.sampled_from(
        [i.value for i in IdentityId] + ["no-such-thing"]),
        N=RANGE, M=RANGE, L=RANGE, a=RANGE, T=WINDOW,
        t=st.sampled_from(["1", "2", "3", "x"]), **{"max-n": INDEX}, jobs=JOBS),
    # report always filters: the whole matrix is not cheap
    st.tuples(st.sampled_from(CHEAP_ROWS), options(jobs=JOBS)).map(
        lambda t: ["report", "--identity=" + t[0], *t[1]]),
    command("enumerate", **{"max-n": ints(-2, 20, MAX_INDEX + 1),
                            "class": st.sampled_from(["schur", "pm1mod3",
                                                      "both", "x"]),
                            "largest-part": INDEX}),
    command("bijection", motions=st.one_of(motion_data, JUNK,
                                           st.just('{"n1": 1e400}')),
            partition=st.one_of(partitions, JUNK),
            **{"max-n": ints(-2, 16, MAX_INDEX + 1)}),
    st.tuples(st.sampled_from(["lhs", "rhs", "ali", "kursungoz", "even-odd",
                               "bounded", "oracle", "product", "x"]),
              options(N=RANGE, T=WINDOW, **{"largest-part": INDEX})).map(
        lambda t: ["series", t[0], *t[1]]),
    options(**{"largest-part": INDEX}).map(
        lambda opts: ["series", "oracle", ORACLE_OVER, *opts]),
    options(N=RANGE).map(
        lambda opts: ["verify", "--identity=gf-bounded", ORACLE_OVER, *opts]),
)


def failed(doc):
    return (doc.get("summary", {}).get("failed", 0) > 0
            or doc.get("classes_agree") is False
            or doc.get("status") == "failed")


@settings(max_examples=250, deadline=None, derandomize=True)
@example(UNKNOWN_KEYS[0])
@given(ARGV)
def test_every_argv_keeps_the_exit_contract(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv + ["--format=json"])
        except SystemExit as exc:   # argparse rejects malformed argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if argv in USAGE:
        assert code == 2 and err.getvalue().count("error:") == 1, argv
    if code == 1:
        assert failed(json.loads(out.getvalue())), argv
