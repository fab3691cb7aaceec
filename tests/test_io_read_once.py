"""Loading reads every input once: matrices as supports, each rational parsed
once per load, each referenced algebra loaded and verified once per document.

The reference values here are parsed with ``Fraction`` straight from the JSON
and built as dense nested tuples, independently of the loader."""

import json
import math
import os
from fractions import Fraction

import pytest

from lyalg import core
from lyalg import io as lyio
from lyalg.cli import run
from lyalg.errors import AxiomsFailed, FormatError
from lyalg.linalg import Tensor

from conftest import FIXTURES, fx


def q(v):
    return Fraction(str(v)) if isinstance(v, float) else Fraction(v)


def dense(rows):
    return tuple(tuple(q(v) for v in row) for row in rows)


def read(name):
    with open(fx(name), encoding="utf-8") as fh:
        return json.load(fh)


def inline(doc):
    """An action document with its algebra references read inline."""
    doc = dict(doc)
    for key in ("acting", "carrier"):
        if isinstance(doc[key], str):
            doc[key] = read(doc[key])
    return doc


def assert_same_tensor(t, expected):
    assert t == expected
    assert t.support == expected.support
    assert list(t.support) == list(expected.support)
    for key, v in t.support.items():
        assert list(v) == list(expected.support[key])


def assert_action_unchanged(r, doc):
    n, m = r.acting.dim, r.carrier.dim
    rho = Tensor([dense(mx) for mx in doc["rho"]], n, 1, (m, m))
    mu = Tensor([[dense(mx) for mx in row] for row in doc["mu"]], n, 2, (m, m))
    assert_same_tensor(r.rho, rho)
    assert_same_tensor(r.mu, mu)


OPERATORS = ["p3_on_nilpotent4.json", "id_on_nilpotent4.json", "p12_projection.json"]


def test_fixture_action_tensors_unchanged():
    doc = read("nilpotent4_adjoint.json")
    assert_action_unchanged(lyio.load_action(fx("nilpotent4_adjoint.json")), doc)
    assert_action_unchanged(lyio.load_action(inline(doc), FIXTURES), doc)


@pytest.mark.parametrize("name", OPERATORS)
def test_fixture_operators_unchanged(name):
    doc = read(name)
    op = lyio.load_operator(fx(name))
    assert_action_unchanged(op.action, read(doc["action"]))
    assert op.T.dense() == dense(doc["T"])


@pytest.mark.parametrize("name", ["t1_family.json", "t1_family_b.json"])
def test_fixture_matrices_unchanged(name):
    mx = lyio.load_matrix(fx(name)).dense()
    assert mx == dense(read(name)["matrix"])
    assert all(type(row) is tuple for row in mx)


# values a hand-written file may use: fractions, negative integers, floats,
# repeated strings, explicit zeros, and one value in several JSON types
HAND_ACTIONS = [
    {"rho": [[["1/2", 0], [-3, "0"]], [[0.5, "1/2"], ["0", 0.0]]],
     "mu": [[[["1/2", "1/2"], ["1/2", 0]], [[-3, -3], [0, "-3"]]],
            [[[0.5, 1], [1.0, "1"]], [["0/7", "2/4"], ["-0", 0.25]]]]},
    {"rho": [[[0, 0], [0, 0]], [["0", "0"], ["0", "0"]]],
     "mu": [[[[0, 0], [0, 0]], [["1", 0], [0, "1"]]],
            [[[1, "0"], ["0", 1]], [[0, 0], [0, 0]]]]},
]


@pytest.mark.parametrize("entries", HAND_ACTIONS)
def test_hand_written_action_tensors_unchanged(entries):
    doc = dict(entries, acting=fx("abelian2.json"), carrier=fx("abelian2.json"))
    r = lyio.load_action(doc, certify=False)
    assert_action_unchanged(r, doc)


def test_hand_written_operator_keeps_its_dense_T():
    T = [["1/2", 0, "0", -3], [0.5, "1/2", 0, 0], [0, 0, 0, 0], ["-3", 0.25, "1", "0"]]
    op = lyio.load_operator({"action": "nilpotent4_adjoint.json", "T": T}, FIXTURES)
    assert op.T.dense() == dense(T)


def test_one_value_in_several_json_types():
    mx = lyio.load_matrix({"matrix": [[1, 1.0, "1", "1.0", "2/2"], [0, 0.0, "0", "-0", "0/3"]]}).dense()
    assert mx == ((Fraction(1),) * 5, (Fraction(0),) * 5)
    with pytest.raises(FormatError, match="bad rational True"):
        lyio.load_matrix({"matrix": [[1, True]]})
    with pytest.raises(FormatError, match="bad rational True"):
        lyio.load_matrix({"matrix": [[True, 1]]})


def test_nijenhuis_and_homomorphism_matrices_unchanged():
    M = [["1", 0, "1/2", 0], [0, 1, 0, 0], [0, 0, -3, 0.5], [0, "0", 0, "2"]]
    A, N = lyio.load_nijenhuis({"algebra": "nilpotent4.json", "N": M}, FIXTURES)
    assert A.dim == 4 and N.dense() == dense(M)
    src, dst, mx = lyio.load_homomorphism(
        {"from": "nilpotent4.json", "to": "abelian2.json", "matrix": M[:2]}, FIXTURES)
    assert (src.dim, dst.dim) == (4, 2) and mx.dense() == dense(M[:2])


# malformed entries, each raised where it is read, before any verification
BAD_VALUES = [[1], {"a": 1}, None, True, "x", "1/0", math.nan]


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def bad_inputs(tmp_path, v):
    """(where, CLI argv, loader call) for ``v`` placed in rho, mu, T, a --t1
    matrix file and a wedge vector."""
    action = inline(read("nilpotent4_adjoint.json"))
    rho_doc = json.loads(json.dumps(action))
    rho_doc["rho"][0][1][2] = v
    mu_doc = json.loads(json.dumps(action))
    mu_doc["mu"][1][2][0][3] = v
    op_doc = dict(read("p3_on_nilpotent4.json"), action=action)
    op_doc["T"][3][1] = v
    t1_doc = read("t1_family.json")
    t1_doc["matrix"][2][0] = v
    x_doc = read("x_e1e2.json")
    x_doc["wedges"][0][1][2] = v
    rho = write(tmp_path / "rho.json", rho_doc)
    mu = write(tmp_path / "mu.json", mu_doc)
    op = write(tmp_path / "op.json", op_doc)
    t1 = write(tmp_path / "t1.json", t1_doc)
    x = write(tmp_path / "x.json", x_doc)
    p3, good_t1 = fx("p3_on_nilpotent4.json"), fx("t1_family.json")
    return [
        ("action.rho[0]", ["check", "rep", rho], lambda: lyio.load_action(rho)),
        ("action.mu[1][2]", ["check", "action", mu], lambda: lyio.load_action(mu)),
        ("operator.T", ["check", "rrb", op], lambda: lyio.load_operator(op)),
        ("matrix", ["deform", "linear", "--op", p3, "--t1", t1], lambda: lyio.load_matrix(t1)),
        ("wedges[0]", ["deform", "equiv", "--op", p3, "--t1", good_t1, "--t2", good_t1,
                       "--x", x], lambda: lyio.load_wedges(x)),
    ]


@pytest.mark.parametrize("v", BAD_VALUES, ids=repr)
def test_malformed_matrix_entries(v, tmp_path, capsys):
    for where, argv, load in bad_inputs(tmp_path, v):
        message = "%s: bad rational %r" % (where, v)
        with pytest.raises(FormatError) as e:
            load()
        assert str(e.value) == message
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: %s\n" % message


def test_first_bad_entry_in_row_major_order_and_ragged_before_size():
    with pytest.raises(FormatError, match=r"bad rational 'y'"):
        lyio.load_matrix({"matrix": [[0, "y"], ["x", 0]]})
    with pytest.raises(FormatError, match="ragged matrix"):
        lyio.load_nijenhuis({"algebra": "abelian2.json", "N": [[0, 0, 0], [0, 0]]},
                            FIXTURES)
    with pytest.raises(FormatError, match="must be 2x2"):
        lyio.load_nijenhuis({"algebra": "abelian2.json", "N": [[0, 0, 0], [0, 0, 0]]},
                            FIXTURES)


def literal_zero(v):
    return v == "0" or type(v) is int and v == 0


def test_literal_zero_matrix_entries_are_not_parsed(monkeypatch):
    """Every listed algebra entry is parsed, and every matrix entry but the
    JSON int 0 and the string "0"."""
    calls = []
    rational = lyio._Load.rational

    def counting(self, v, where):
        calls.append(v)
        return rational(self, v, where)
    monkeypatch.setattr(lyio._Load, "rational", counting)
    doc = read("nilpotent4_adjoint.json")
    assert doc["acting"] == doc["carrier"]
    alg = read(doc["acting"])
    matrices = doc["rho"] + [mx for row in doc["mu"] for mx in row]
    entries = [v for mx in matrices for row in mx for v in row]
    r = lyio.load_action(fx("nilpotent4_adjoint.json"))
    assert len(calls) == len(alg["binary"]) + len(alg["ternary"]) \
        + sum(not literal_zero(v) for v in entries)
    assert len(calls) < len(entries)
    assert_action_unchanged(r, doc)


@pytest.mark.parametrize("v", BAD_VALUES, ids=repr)
def test_bad_entry_after_rows_of_zeros(v):
    for zero in (0, "0"):
        rows = [[zero] * 3, [zero] * 3, [zero, v, "x"]]
        with pytest.raises(FormatError) as e:
            lyio.load_matrix({"matrix": rows})
        assert str(e.value) == "matrix: bad rational %r" % (v,)
        with pytest.raises(FormatError) as e:
            lyio.load_operator({"action": "nilpotent4_adjoint.json",
                                "T": [[zero] * 4] * 3 + [[zero, zero, zero, v]]}, FIXTURES)
        assert str(e.value) == "operator.T: bad rational %r" % (v,)


# one LY verification per referenced algebra

@pytest.fixture
def ly_calls(monkeypatch):
    calls = []
    check = core.check_ly_axioms

    def counting(A, *args, **kwargs):
        calls.append(A.name)
        return check(A, *args, **kwargs)
    monkeypatch.setattr(core, "check_ly_axioms", counting)
    return calls


def test_adjoint_file_verifies_its_algebra_once(ly_calls):
    r = lyio.load_action(fx("nilpotent4_adjoint.json"))
    assert ly_calls == ["nilpotent4"]
    assert r.acting is r.carrier
    lyio.load_operator(fx("p3_on_nilpotent4.json"))
    assert ly_calls == ["nilpotent4"] * 2


def test_one_file_by_two_relative_paths_loads_once(ly_calls):
    doc = dict(read("nilpotent4_adjoint.json"), acting="nilpotent4.json",
               carrier=os.path.join("..", "fixtures", ".", "nilpotent4.json"))
    r = lyio.load_action(doc, FIXTURES)
    assert r.acting is r.carrier and ly_calls == ["nilpotent4"]


def test_equal_inline_algebras_load_once(ly_calls):
    r = lyio.load_action(inline(read("nilpotent4_adjoint.json")))
    assert r.acting is r.carrier and ly_calls == ["nilpotent4"]


def test_two_files_verify_twice(ly_calls, tmp_path):
    copy = write(tmp_path / "copy.json", read("nilpotent4.json"))
    doc = dict(read("nilpotent4_adjoint.json"), acting=fx("nilpotent4.json"), carrier=copy)
    r = lyio.load_action(doc)
    assert r.acting is not r.carrier and ly_calls == ["nilpotent4"] * 2


def test_two_inline_objects_verify_twice(ly_calls):
    doc = inline(read("nilpotent4_adjoint.json"))
    doc["carrier"] = dict(doc["carrier"], name="copy")
    r = lyio.load_action(doc)
    assert r.acting is not r.carrier and ly_calls == ["nilpotent4", "copy"]
    # a value of another JSON type is another object
    doc["carrier"] = dict(doc["acting"], dim=4.0)
    with pytest.raises(FormatError, match="dim must be a non-negative integer"):
        lyio.load_action(doc)


def test_homomorphism_to_itself_loads_once():
    src, dst, _ = lyio.load_homomorphism(
        {"from": "nilpotent4.json", "to": fx("nilpotent4.json"),
         "matrix": [[1 if i == j else 0 for j in range(4)] for i in range(4)]}, FIXTURES)
    assert src is dst


def test_no_algebra_is_kept_from_one_load_to_the_next():
    a = lyio.load_action(fx("nilpotent4_adjoint.json"))
    b = lyio.load_action(fx("nilpotent4_adjoint.json"))
    assert a.acting is not b.acting


def test_shared_algebra_failing_ly_reports_as_before(ly_calls, tmp_path, capsys):
    zero = [[0] * 4 for _ in range(4)]
    doc = {"acting": "bad_algebra.json", "carrier": "bad_algebra.json",
           "rho": [zero] * 4, "mu": [[zero] * 4] * 4}
    with pytest.raises(AxiomsFailed) as e:
        lyio.load_action(doc, FIXTURES)
    assert ly_calls == ["bad"]
    expected = core.check_ly_axioms(lyio.load_algebra(fx("bad_algebra.json")))
    assert not expected.passed
    assert e.value.report.to_dict() == expected.to_dict()
    path = write(tmp_path / "bad_adjoint.json", dict(doc, acting=fx("bad_algebra.json"),
                                                     carrier=fx("bad_algebra.json")))
    assert run(["check", "rep", path, "--json"]) == 1
    via_action = capsys.readouterr()
    assert run(["check", "algebra", fx("bad_algebra.json"), "--json"]) == 1
    assert via_action == capsys.readouterr()
