import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from lyalg import cli, io as lyio, linalg
from lyalg.cli import run
from lyalg.errors import FormatError, TooLarge

from conftest import fx
from oracles import nested


def test_load_algebra_antisym_completion(tmp_path):
    doc = {"dim": 2, "binary": [[0, 1, 0, "1"]], "ternary": []}
    A = lyio.load_algebra(doc)
    assert nested(A.binary)[1][0][0] == -1


def test_load_algebra_rejects_inconsistent_orientations():
    doc = {"dim": 2, "binary": [[0, 1, 0, "1"], [1, 0, 0, "1"]], "ternary": []}
    with pytest.raises(FormatError):
        lyio.load_algebra(doc)


def test_load_algebra_rejects_nonzero_diagonal():
    doc = {"dim": 2, "binary": [[0, 0, 1, "1"]], "ternary": []}
    with pytest.raises(FormatError):
        lyio.load_algebra(doc)


def test_load_algebra_rejects_inconsistent_ternary_orientations():
    doc = {"dim": 3, "binary": [], "ternary": [[0, 1, 2, 0, "1"], [1, 0, 2, 0, "1"]]}
    with pytest.raises(FormatError):
        lyio.load_algebra(doc)


def test_load_algebra_rejects_nonzero_ternary_diagonal():
    doc = {"dim": 3, "binary": [], "ternary": [[1, 1, 0, 2, "1"]]}
    with pytest.raises(FormatError):
        lyio.load_algebra(doc)


def test_load_algebra_completes_ternary_in_its_first_two_slots():
    doc = {"dim": 3, "binary": [], "ternary": [[1, 0, 2, 0, "2"]]}
    A = lyio.load_algebra(doc)
    d = nested(A.ternary)
    assert d[0][1][2][0] == -2 and d[1][0][2][0] == 2


def test_an_explicit_zero_entry_counts_as_listed():
    doc = {"dim": 2, "binary": [[0, 1, 0, "0"], [1, 0, 0, "1"]], "ternary": []}
    with pytest.raises(FormatError):
        lyio.load_algebra(doc)
    # without the zero entry the listed orientation is completed
    A = lyio.load_algebra({"dim": 2, "binary": [[1, 0, 0, "1"]], "ternary": []})
    assert nested(A.binary)[0][1][0] == -1


def test_duplicate_entries_sum():
    doc = {"dim": 2, "binary": [[0, 1, 0, "1"], [0, 1, 0, "1/2"]],
           "ternary": [[0, 1, 1, 1, "1"], [0, 1, 1, 1, "-1"]]}
    A = lyio.load_algebra(doc)
    c = nested(A.binary)
    assert c[0][1][0] == Fraction(3, 2) and c[1][0][0] == Fraction(-3, 2)
    assert A.ternary.support == {}


def test_post_files_complete_dot_and_angle_only():
    doc = {"dim": 3, "dot": [[0, 1, 0, "1"]], "star": [[0, 1, 0, "1"]],
           "angle": [[0, 1, 2, 0, "1"]], "brace": [[0, 1, 2, 0, "1"]]}
    P = lyio.load_post(doc)
    assert nested(P.dot)[1][0][0] == -1 and nested(P.angle)[1][0][2][0] == -1
    assert nested(P.star)[1][0][0] == 0 and nested(P.brace)[1][0][2][0] == 0
    # star and brace may list both orientations with unrelated values
    doc["star"] = [[0, 1, 0, "1"], [1, 0, 0, "1"]]
    doc["brace"] = [[0, 1, 2, 0, "1"], [1, 0, 2, 0, "1"], [2, 2, 2, 2, "1"]]
    P = lyio.load_post(doc)
    assert nested(P.star)[1][0][0] == 1 and nested(P.brace)[2][2][2][2] == 1


@pytest.mark.parametrize("value", ['0.5', '"1/2"', '"0.5"'])
def test_json_numbers_read_as_their_decimal_strings(value, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text('{"dim": 2, "binary": [[0, 1, 0, %s]], "ternary": []}' % value)
    assert nested(lyio.load_algebra(str(path)).binary)[0][1][0] == Fraction(1, 2)


def test_a_json_float_is_its_decimal_string_not_its_binary_value():
    A = lyio.load_algebra({"dim": 2, "binary": [[0, 1, 0, 0.1]], "ternary": []})
    assert nested(A.binary)[0][1][0] == Fraction(1, 10)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_json_floats_without_a_rational_value_are_rejected(value, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text('{"dim": 2, "binary": [[0, 1, 0, %s]], "ternary": []}' % value)
    with pytest.raises(FormatError):
        lyio.load_algebra(str(path))


def test_load_rejects_bad_index_and_rational():
    with pytest.raises(FormatError):
        lyio.load_algebra({"dim": 2, "binary": [[0, 5, 0, "1"]], "ternary": []})
    with pytest.raises(FormatError):
        lyio.load_algebra({"dim": 2, "binary": [[0, 1, 0, "x"]], "ternary": []})
    with pytest.raises(FormatError):
        lyio.load_algebra({"dim": 2, "binary": [[0, 1, "1"]], "ternary": []})


BOOLEAN_DOCS = [
    # read as indices (0, 1, 1) this would set [e1, e2] = e2
    {"dim": 2, "binary": [[False, True, True, "1"]], "ternary": []},
    {"dim": 3, "binary": [], "ternary": [[0, 1, True, 2, "1"]]},
    {"dim": True, "binary": [], "ternary": []},
    {"dim": False, "binary": [], "ternary": []},
    {"dim": 2, "binary": [[0, 1, 0, True]], "ternary": []},
]


@pytest.mark.parametrize("doc", BOOLEAN_DOCS)
def test_load_rejects_json_booleans(doc, tmp_path, capsys):
    with pytest.raises(FormatError):
        lyio.load_algebra(doc)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "algebra", str(path)]) == 2
    capsys.readouterr()


MALFORMED_CONTAINERS = [
    ("algebra", {"dim": 2, "binary": 5, "ternary": []}),
    ("algebra", {"dim": 2, "binary": True, "ternary": []}),
    ("algebra", {"dim": 2, "binary": [], "ternary": 1.5}),
    ("algebra", {"name": ["x"], "dim": 2, "binary": [], "ternary": []}),
    ("post", {"dim": 2, "dot": 5}),
    ("post", {"dim": 2, "star": True}),
    ("post", {"dim": 2, "angle": 1.5}),
    ("post", {"dim": 2, "brace": 5}),
    ("post", {"name": ["x"], "dim": 2}),
    ("wedges", {"wedges": 5}),
    ("wedges", {"wedges": [[1, 2]]}),
]


@pytest.mark.parametrize("kind, doc", MALFORMED_CONTAINERS)
def test_cli_rejects_malformed_containers(kind, doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    if kind == "wedges":
        argv = ["deform", "equiv", "--op", fx("p3_on_nilpotent4.json"),
                "--t1", fx("t1_family.json"), "--t2", fx("t1_family.json"), "--x", str(path)]
    else:
        argv = ["check", kind, str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_wedges_are_read_as_maps_and_checked_by_length(tmp_path, capsys):
    """A wedge file's vectors are n x 1 maps, taken as they are by
    ``linalg.vector``: the fixture's X = e1 /\\ e2 is the boundary of t1 - t1,
    and vectors of 3 entries where the acting algebra has 4 are one error
    line and exit 2."""
    (x, y), = lyio.load_wedges(fx("x_e1e2.json"))
    assert (x.shape, x.dense(), y.dense()) == ((4, 1), ((1,), (0,), (0,), (0,)),
                                               ((0,), (1,), (0,), (0,)))
    argv = ["deform", "equiv", "--op", fx("p3_on_nilpotent4.json"), "--t1", fx("t1_family.json"),
            "--t2", fx("t1_family.json"), "--json", "--x"]
    assert run(argv + [fx("x_e1e2.json")]) == 0
    assert json.loads(capsys.readouterr().out)["data"] == {
        "difference_equals_boundary": True, "higher_order_residual_degrees": {}}
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"wedges": [[["1", "0", "0"], ["0", "1", "0"]]]}))
    assert run(argv + [str(short)]) == 2
    assert capsys.readouterr().err == "error: vectors must have length 4\n"


def test_load_post_rejects_boolean_dim():
    with pytest.raises(FormatError):
        lyio.load_post({"dim": True})


BAD_BASES = [5, "abcd", [1, 2, 3, 4], ["e1", "e2", "e3"], ["e1", "e2", "e3", None]]


@pytest.mark.parametrize("basis", BAD_BASES)
def test_cli_rejects_bad_basis(basis, tmp_path, capsys):
    doc = json.loads(open(fx("nilpotent4.json")).read())
    doc["basis"] = basis
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        lyio.load_algebra(str(path))
    assert run(["check", "algebra", str(path)]) == 2
    assert "basis must be a list of 4 strings" in capsys.readouterr().err


@pytest.mark.parametrize("basis", BAD_BASES)
def test_cli_rejects_bad_post_basis(basis, tmp_path, capsys):
    assert run(["construct", "post", fx("p3_on_nilpotent4.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["basis"] = basis
    path = tmp_path / "post.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        lyio.load_post(str(path))
    assert run(["check", "post", str(path)]) == 2
    assert "basis must be a list of 4 strings" in capsys.readouterr().err


def test_basis_labels_load_when_valid():
    doc = json.loads(open(fx("nilpotent4.json")).read())
    assert lyio.load_algebra(doc).basis == doc["basis"]
    del doc["basis"]
    assert lyio.load_algebra(doc).basis == ["e1", "e2", "e3", "e4"]


def test_oversized_dim_raises_before_allocating(monkeypatch, tmp_path, capsys):
    def no_tensor(*args):
        raise AssertionError("a tensor was allocated")
    for name in ("_read_sparse", "Tensor"):
        monkeypatch.setattr(lyio, name, no_tensor)
    doc = {"dim": 10 ** 6, "binary": [], "ternary": []}
    with pytest.raises(TooLarge):
        lyio.load_algebra(doc)
    with pytest.raises(TooLarge):
        lyio.load_post({"dim": 10 ** 6})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "algebra", str(path)]) == 2
    assert "over the budget" in capsys.readouterr().err


def test_dim_budget_admits_32():
    assert 32 ** 4 <= lyio.MAX_TENSOR_COEFFICIENTS < 33 ** 4
    assert lyio._read_dim({"dim": 32}, "algebra") == 32
    with pytest.raises(TooLarge):
        lyio._read_dim({"dim": 33}, "algebra")


def test_dump_load_roundtrip(nilpotent4):
    doc = lyio.dump_structure(nilpotent4)
    B = lyio.load_algebra(doc)
    assert B.binary == nilpotent4.binary and B.ternary == nilpotent4.ternary


def test_relative_path_resolution():
    op = lyio.load_operator(fx("p3_on_nilpotent4.json"))
    assert op.action.acting.dim == 4


def test_cli_check_exit_codes(capsys):
    assert run(["check", "algebra", fx("nilpotent4.json")]) == 0
    assert run(["check", "rrb", fx("p3_on_nilpotent4.json")]) == 0
    assert run(["check", "rrb", "--op", fx("id_on_nilpotent4.json")]) == 1
    assert run(["check", "algebra", fx("no_such_file.json")]) == 2
    assert run(["check", "algebra", fx("bad_algebra.json")]) == 1
    capsys.readouterr()


def test_cli_check_rep_action(capsys):
    assert run(["check", "rep", fx("nilpotent4_adjoint.json")]) == 0
    assert run(["check", "action", fx("nilpotent4_adjoint.json")]) == 0
    capsys.readouterr()


# rho(e0) = E_11 of the abelian line on span{f0, f1}, [f0, f1] = f1: a
# representation whose image is not central and does not kill the bracket
NONCENTRAL_ACTION = {
    "acting": {"name": "ab1", "dim": 1, "binary": [], "ternary": []},
    "carrier": {"name": "aff2", "dim": 2, "binary": [[0, 1, 1, "1"]],
                "ternary": [[0, 1, 0, 1, "-1"]]},
    "rho": [[["0", "0"], ["0", "1"]]], "mu": [[[["0", "0"], ["0", "0"]]]]}
NONCENTRAL_REPORT = (
    '{"data":{"center_dim":0},"subject":"action(ab1 on aff2)","verdict":"fail","violations":['
    '{"args":[0,1],"eq":"rho-image-central","residual":["0","1"]},'
    '{"args":[0,0,1],"eq":"rho-kills-binary","residual":["0","1"]},'
    '{"args":[0,0,1,0],"eq":"rho-kills-ternary","residual":["0","-1"]},'
    '{"args":[0,1,0,0],"eq":"rho-kills-ternary","residual":["0","1"]}]}\n')


def test_check_action_output_keeps_its_bytes(tmp_path, capsys):
    """``check action`` reports the center's dimension whether it passes or
    fails, and an operator over a failing action prints that same report:
    certifying an action on entry leaves out only the dimension of a passing
    report, which is not printed."""
    assert run(["check", "action", fx("nilpotent4_adjoint.json")]) == 0
    assert capsys.readouterr().out == "action(nilpotent4 on nilpotent4): PASS\n  center_dim: 2\n"
    assert run(["check", "action", fx("nilpotent4_adjoint.json"), "--json"]) == 0
    assert capsys.readouterr().out == ('{"data":{"center_dim":2},"subject":'
                                       '"action(nilpotent4 on nilpotent4)","verdict":"pass",'
                                       '"violations":[]}\n')
    action, op = tmp_path / "action.json", tmp_path / "op.json"
    action.write_text(json.dumps(NONCENTRAL_ACTION))
    op.write_text(json.dumps({"action": NONCENTRAL_ACTION, "T": [["0", "0"]]}))
    for argv in (["check", "action", str(action)], ["check", "rrb", str(op)]):
        assert run(argv + ["--json"]) == 1
        assert capsys.readouterr().out == NONCENTRAL_REPORT
    assert run(["check", "rrb", str(op)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "action(ab1 on aff2): FAIL",
        "  rho-image-central at (0, 1): residual ['0', '1']",
        "  rho-kills-binary at (0, 0, 1): residual ['0', '1']",
        "  rho-kills-ternary at (0, 0, 1, 0): residual ['0', '-1']",
        "  rho-kills-ternary at (0, 1, 0, 0): residual ['0', '1']",
        "  center_dim: 0"]


def test_a_capped_check_action_builds_no_table_after_the_one_that_settles_it(monkeypatch):
    """abelian3 acting on aff2 by rho(e_i) = E_11 for each i and mu = 0 is a
    representation whose every acting tuple gives four witnesses, one per
    table, so the tenth is tuple 2's kill-binary witness: its kill-ternary
    table is never built, and no compose follows that witness's."""
    from lyalg import core, reports, reps
    e11, zero = [[0, 0], [0, 1]], [[0, 0], [0, 0]]
    r = reps.RepAction(core.abelian(3), lyio.load_algebra(NONCENTRAL_ACTION["carrier"]),
                       [e11] * 3, [[zero] * 3] * 3)
    every = [(eq, (i,) + args) for i in range(3) for eq, args in (
        ("rho-image-central", (1,)), ("rho-kills-binary", (0, 1)),
        ("rho-kills-ternary", (0, 1, 0)), ("rho-kills-ternary", (1, 0, 0)))]
    assert [(v.eq, v.args) for v in reps.check_action(r, True).violations] == every
    log, compose, record = [], reps.compose, reports.Checker._record

    def logged_compose(*args):
        log.append("compose")
        return compose(*args)

    def logged_record(self, eq, *args):
        log.append(eq)
        return record(self, eq, *args)
    monkeypatch.setattr(reps, "compose", logged_compose)
    monkeypatch.setattr(reports.Checker, "_record", logged_record)
    assert [(v.eq, v.args) for v in reps.check_action(r).violations] == every[:10]
    assert log.count("compose") == 5
    assert log[-2:] == ["compose", "rho-kills-binary"]


def test_every_library_error_exits_by_one_rule(monkeypatch, capsys):
    """An AxiomsFailed, of any subclass, exits 1, and every other library
    error 2; with no report to print, each writes one error line and no
    output."""
    from lyalg import errors
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.LyalgError)]
    assert len(classes) == 15
    for cls in classes:
        def fail(*args, cls=cls):
            raise cls("no %s here" % cls.__name__)
        monkeypatch.setattr(lyio, "load_algebra", fail)
        code = 1 if issubclass(cls, errors.AxiomsFailed) else 2
        assert run(["check", "algebra", fx("nilpotent4.json")]) == code, cls
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: no %s here\n" % cls.__name__)


class ClosedStdout:
    """A stdout whose reader has gone, as under ``lyalg ... | head -c 1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class FullStdout:
    """A buffered stdout on a full device: a short report fits the buffer, and
    the write fails only when the buffer is flushed."""

    def write(self, text):
        return len(text)

    def flush(self):
        raise OSError(28, "No space left on device")


def test_a_closed_stdout_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    """A returned report and an ``AxiomsFailed`` error's report, an operator
    over a failing action, take the same exit to a closed stdout, and to a
    full one that fails only when run flushes it."""
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"action": NONCENTRAL_ACTION, "T": [["0", "0"]]}))
    for stdout, err in ((ClosedStdout(), "[Errno 32] Broken pipe"),
                        (FullStdout(), "[Errno 28] No space left on device")):
        monkeypatch.setattr(sys, "stdout", stdout)
        for argv in (["check", "algebra", fx("nilpotent4.json")], ["check", "rrb", str(op)]):
            assert run(argv + ["--json"]) == 2
            assert capsys.readouterr().err == "error: %s\n" % err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_the_console_entry_to_a_full_stdout_exits_2_with_one_error_line(tmp_path):
    """Through ``main``, with stdout buffered: the output run could not write is
    dropped, so the interpreter's exit flush adds no second error."""
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"action": NONCENTRAL_ACTION, "T": [["0", "0"]]}))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in (["check", "algebra", fx("nilpotent4.json")], ["check", "rrb", str(op)]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "lyalg.cli"] + argv + ["--json"],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env={**env, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (
            2, "error: [Errno 28] No space left on device\n")


def test_a_reused_parser_reads_like_a_fresh_process(capsys):
    """The parser is built once per process; after a usage error and --help,
    a check prints the bytes and exit code of a fresh interpreter."""
    argv = ["check", "algebra", fx("nilpotent4.json"), "--json"]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from lyalg.cli import run; sys.exit(run(sys.argv[1:]))"]
        + argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run(["check", "algebra", "--format", "xml"]) == 2
    assert run(["--help"]) == 0
    assert cli._parser() is cli._parser()
    capsys.readouterr()
    assert run(argv) == fresh.returncode == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (fresh.stdout, fresh.stderr)


def test_cli_json_byte_stable(capsys):
    assert run(["check", "rrb", fx("p3_on_nilpotent4.json"), "--json", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run(["check", "rrb", fx("p3_on_nilpotent4.json"), "--json", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"] == "pass"


def test_cli_construct_roundtrips(capsys, tmp_path):
    cases = [
        (["construct", "semidirect", fx("nilpotent4_adjoint.json")], "algebra"),
        (["construct", "descent", fx("p3_on_nilpotent4.json")], "algebra"),
        (["construct", "post", fx("p3_on_nilpotent4.json")], "post"),
        (["construct", "lift", fx("p3_on_nilpotent4.json")], "nijenhuis"),
    ]
    for argv, check in cases:
        assert run(argv + ["--json"]) == 0
        out = capsys.readouterr().out
        path = tmp_path / ("rt_%s.json" % check)
        path.write_text(out)
        assert run(["check", check, str(path)]) == 0
        capsys.readouterr()
    # subadjacent consumes the post output
    assert run(["construct", "post", fx("p3_on_nilpotent4.json"), "--json"]) == 0
    post_doc = capsys.readouterr().out
    p = tmp_path / "post.json"
    p.write_text(post_doc)
    assert run(["construct", "subadjacent", str(p), "--json"]) == 0
    sub_doc = capsys.readouterr().out
    q = tmp_path / "sub.json"
    q.write_text(sub_doc)
    assert run(["check", "algebra", str(q)]) == 0
    capsys.readouterr()


def test_cli_cohomology(capsys):
    assert run(["cohomology", "--op", fx("p3_on_nilpotent4.json"),
                "--degree", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["data"]["cocycles"] == 12
    assert payload["data"]["coboundaries"] == 0
    assert payload["data"]["cohomology"] == 12


def test_cli_deform(capsys):
    assert run(["deform", "linear", "--op", fx("p3_on_nilpotent4.json"),
                "--t1", fx("t1_family.json")]) == 0
    assert run(["deform", "equiv", "--op", fx("p3_on_nilpotent4.json"),
                "--t1", fx("t1_family.json"), "--t2", fx("t1_family.json"),
                "--x", fx("x_e1e2.json")]) == 0
    assert run(["deform", "obstruct", "--op", fx("p3_on_nilpotent4.json"),
                "--terms", fx("t1_family.json"), "--extend", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["data"]["closed"] and payload["data"]["extendable"]


def test_each_structure_is_checked_once_where_it_enters(monkeypatch, capsys):
    """The CLI checks the algebras and the action it reads, once each, and
    nothing it builds from them: no descent or semidirect algebra and no
    induced representation is scanned."""
    from lyalg import core, reps
    ly, rep, seen = core.check_ly_axioms, reps.check_representation, []

    def check_ly(A, *args):
        seen.append(A.name)
        return ly(A, *args)

    def check_rep(r, *args):
        seen.append("rep(%s on %s)" % (r.acting.name, r.carrier.name))
        return rep(r, *args)
    monkeypatch.setattr(core, "check_ly_axioms", check_ly)
    monkeypatch.setattr(reps, "check_representation", check_rep)
    p3 = fx("p3_on_nilpotent4.json")
    for argv, want in (
            (["cohomology", "--op", fx("square_zero_5102.json"), "--degree", "2"],
             ["abelian4", "abelian3", "rep(abelian4 on abelian3)"]),
            (["construct", "semidirect", fx("nilpotent4_adjoint.json")],
             ["nilpotent4", "rep(nilpotent4 on nilpotent4)"]),
            (["deform", "obstruct", "--op", p3, "--terms", fx("t1_family.json"), "--extend"],
             ["nilpotent4", "rep(nilpotent4 on nilpotent4)"])):
        seen.clear()
        assert run(argv) == 0
        assert seen == want
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert run(["deform", "linear", "--op", fx("p3_on_nilpotent4.json")]) == 2
    assert run(["check"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_cli_all_violations(capsys):
    assert run(["check", "rrb", fx("id_on_nilpotent4.json"), "--json",
                "--all-violations"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "fail"
    assert len(payload["violations"]) >= 1


def _matrix_file(tmp_path, rows, cols):
    path = tmp_path / ("m%dx%d.json" % (rows, cols))
    path.write_text(json.dumps({"matrix": [[str(r + c) for c in range(cols)]
                                           for r in range(rows)]}))
    return str(path)


@pytest.mark.parametrize("flag,rows,cols", [("--t2", 4, 3), ("--t2", 4, 5), ("--t1", 5, 4)])
def test_deform_equiv_refuses_a_misshaped_matrix(tmp_path, capsys, flag, rows, cols):
    """T1 and T2 map the 4-dim carrier into the 4-dim acting algebra: any
    other shape is a usage error, not a verdict over truncated rows."""
    files = {"--t1": fx("t1_family.json"), "--t2": fx("t1_family.json")}
    files[flag] = _matrix_file(tmp_path, rows, cols)
    argv = ["deform", "equiv", "--op", fx("p3_on_nilpotent4.json"), "--t1", files["--t1"],
            "--t2", files["--t2"], "--x", fx("x_e1e2.json"), "--json"]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "must be 4x4" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("rows,cols", [(4, 3), (4, 5), (5, 4)])
def test_deform_linear_names_t1_in_its_shape_error(tmp_path, capsys, rows, cols):
    argv = ["deform", "linear", "--op", fx("p3_on_nilpotent4.json"),
            "--t1", _matrix_file(tmp_path, rows, cols), "--json"]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "T1 must be 4x4" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("shape", [(4, 3), (4, 5), (5, 4)])
def test_difference_class_refuses_a_misshaped_matrix(shape):
    from lyalg.deformation import difference_class
    from lyalg.errors import DimMismatch
    op = lyio.load_operator(fx("p3_on_nilpotent4.json"))
    T = lyio.load_matrix(fx("t1_family.json"))
    bad = [[Fraction(1)] * shape[1] for _ in range(shape[0])]
    for T1, T2 in ((T, bad), (bad, T)):
        with pytest.raises(DimMismatch):
            difference_class(op, T1, T2)


def test_huge_cohomology_degree_fails_fast(monkeypatch, capsys):
    """The row count of degree 10**9 is never formed: TooLarge from the
    first degree over the budget, before any cochain layout exists."""
    from lyalg import cohomology

    def no_layout(*args):
        raise AssertionError("a cochain layout was built")
    monkeypatch.setattr(cohomology, "_Layout", no_layout)
    assert run(["cohomology", "--op", fx("p3_on_nilpotent4.json"),
                "--degree", str(10 ** 9)]) == 2
    err = capsys.readouterr().err
    assert "over the budget of 100000" in err and "Traceback" not in err
    op = lyio.load_operator(fx("p3_on_nilpotent4.json"))
    with pytest.raises(TooLarge):
        cohomology.TComplex(op).cohomology_dims(10 ** 9)


def test_check_algebra_refuses_a_post_algebra_file(tmp_path, capsys):
    """A constructed post-algebra is not read as the zero LY algebra."""
    assert run(["construct", "post", fx("p3_on_nilpotent4.json"), "--json"]) == 0
    path = tmp_path / "post.json"
    path.write_text(capsys.readouterr().out)
    assert run(["check", "algebra", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "'dot'" in out.err and "Traceback" not in out.err
    assert run(["check", "post", str(path)]) == 0


def test_check_post_refuses_an_algebra_file(capsys):
    """An LY algebra file is not read as the zero post-algebra."""
    assert run(["check", "post", fx("nilpotent4.json")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "'binary'" in out.err and "Traceback" not in out.err
    assert run(["check", "algebra", fx("nilpotent4.json")]) == 0


# files that cannot be decoded, each a FormatError naming the file (exit 2)
UNDECODABLE = {
    "long-int": ('{"name": "x", "dim": 2, "binary": [[0, 1, 0, %s]]}' % ("1" * 5001)).encode(),
    "deep": b'{"name": "x", "dim": 1, "binary": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    "not-utf8": b'{"name": "x\xff", "dim": 1}',
}


@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
def test_an_undecodable_file_is_a_format_error(kind, tmp_path, capsys):
    path = tmp_path / (kind + ".json")
    path.write_bytes(UNDECODABLE[kind])
    with pytest.raises(FormatError) as e:
        lyio.load_algebra(str(path))
    assert str(e.value).startswith("%s: " % path)
    assert run(["check", "algebra", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % e.value


def test_a_huge_decimal_exponent_fails_fast(tmp_path):
    """Fraction would build 10**999999999; the CLI refuses the literal at once."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "h", "dim": 2, "binary": [[0, 1, 0, "1e999999999"]]}))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from lyalg.cli import run; sys.exit(run(sys.argv[1:]))",
         "check", "algebra", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: h.binary: bad rational '1e999999999': a decimal may have "
                           "at most 4300 digits and an exponent of at most 4300\n")


def test_a_long_literal_gives_a_short_error_line(tmp_path, capsys):
    """A literal over 40 characters is quoted by its head and its length."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"name": "h", "dim": 2, "binary": [[0, 1, 0, "1" * 5000]]}))
    assert run(["check", "algebra", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err) < 200
    assert out.err == ("error: h.binary: bad rational '%s'... (5000 characters): a decimal may "
                       "have at most 4300 digits and an exponent of at most 4300\n" % ("1" * 40))


@pytest.mark.parametrize("value, admitted", [
    ("1e4300", True), ("1e-4300", True), ("1e4301", False), ("1E-4301", False),
    pytest.param("0." + "1" * 4299, True, id="0.(4299 digits)"),
    pytest.param("0." + "1" * 4300, False, id="0.(4300 digits)"),
    pytest.param("1" * 4299 + "e0", True, id="(4299 digits)e0"),
    pytest.param("1" * 4300 + "e0", False, id="(4300 digits)e0"),
    (1e300, True)])
def test_the_decimal_bound(value, admitted):
    assert linalg.MAX_DECIMAL_DIGITS == 4300
    doc = {"name": "d", "dim": 2, "binary": [[0, 1, 0, value]]}
    if admitted:
        assert lyio.load_algebra(doc).binary.support[0, 1][0] == Fraction(str(value))
    else:
        with pytest.raises(FormatError, match=r"^d\.binary: bad rational .*at most 4300 digits"):
            lyio.load_algebra(doc)


# (check kind, file, the field that is not an object or a path, its JSON type)
NESTED_NOT_AN_OBJECT = [
    ("rrb", {"action": 5, "T": [[0]]}, "operator.action", "int"),
    ("rrb", {"action": {"acting": 5, "carrier": 5, "rho": [], "mu": []}, "T": [[0]]},
     "action.acting", "int"),
    ("rep", {"acting": fx("nilpotent4.json"), "carrier": [5], "rho": [], "mu": []},
     "action.carrier", "list"),
    ("homomorphism", {"from": 5, "to": 5, "matrix": [[1]]}, "homomorphism.from", "int"),
    ("homomorphism", {"from": fx("nilpotent4.json"), "to": None, "matrix": [[1]]},
     "homomorphism.to", "NoneType"),
    ("nijenhuis", {"algebra": 5, "N": [[1]]}, "nijenhuis file.algebra", "int"),
]


@pytest.mark.parametrize("kind, doc, field, got", NESTED_NOT_AN_OBJECT)
def test_a_nested_input_that_is_not_an_object_names_its_field(kind, doc, field, got, tmp_path,
                                                               capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["check", kind, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: %s: expected an object or a file path, got %r\n" % (field, got)
