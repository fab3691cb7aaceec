"""The reader against ``Fraction``: every rational literal, matrix and entry
list loads to what the oracles in ``oracles.py`` read from it (``o_rational``,
``o_matrix``, ``o_sparse``), a stored value of the same type (int or
Fraction), or a FormatError with the same text.  The oracles use no library
code."""

import json
import random

from lyalg import io as lyio
from lyalg.errors import FormatError, TooLarge
from lyalg.linalg import frac

import families
import oracles
from conftest import FIXTURES


def typed(x):
    """x with every scalar paired with its type, so that 1 and Fraction(1)
    differ."""
    if isinstance(x, dict):
        return [(k, typed(v)) for k, v in x.items()]
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], dict):
        return typed(x[0]), x[1]
    return type(x).__name__, x


def outcome(read, *args):
    """("value", the typed result) of read(*args), or ("error", its text)."""
    try:
        return "value", typed(read(*args))
    except (FormatError, oracles.ReadError) as e:
        return "error", str(e)


def rational(v, where):
    return lyio._Load().rational(v, where)


def matrix(rows, where, nr=None, nc=None):
    m = lyio._Load().matrix(rows, where, nr, nc)
    return {(r, c): q for r, row in m.rows.items() for c, q in row}, m.shape


def sparse(entries, dim, arity, where, antisym):
    return lyio._read_sparse(entries, dim, arity, where, antisym,
                             lyio._Load().rational).support


CATALOGUE = [0, json.loads("-0"), "0", "-0", "007", "+3", " 3", "3/-2", "3/0", "1_000",
             "٣", "0.5", "1e3", True, 1.0, "9" * 5000,
             # and around them
             False, -0.0, 0.1, 1e300, float("nan"), 2 ** 80, -(2 ** 80), "4/2", "-6/4",
             "00/07", "0/5", "-", "", "/2", "1/", "1/2/3", "--3", "3 ", "1/2 ", "²", "0x10",
             "1.5e-3", "1E+2", "-.5", "9" * 4300, "1/" + "9" * 4300, None, [1], {"a": 1}]


def test_catalogue_of_rationals_reads_as_fraction_does():
    for v in CATALOGUE:
        expected = outcome(oracles.o_rational, v, "x")
        assert outcome(rational, v, "x") == expected, v
        if isinstance(v, (str, int)):
            # the API's reader agrees with the file's, or refuses too
            try:
                q = frac(v)
            except (ValueError, ZeroDivisionError, TooLarge):
                assert expected[0] == "error", v
            else:
                assert expected == ("value", (type(expected[1][1]).__name__, q)), v


def test_seeded_random_rationals_read_as_fraction_does():
    rng = random.Random(2701)
    kinds = set()
    for _ in range(3000):
        v = families.random_literal(rng)
        expected = outcome(oracles.o_rational, v, "x")
        assert outcome(rational, v, "x") == expected, v
        kinds.add(expected[0] if expected[0] == "error" else expected[1][0])
    assert kinds == {"error", "int", "Fraction"}


def test_one_load_reads_a_repeated_string_alike():
    ld = lyio._Load()
    for v in ["1/2", "3", "1/2", "3", "-0"]:
        assert typed(ld.rational(v, "x")) == typed(oracles.o_rational(v, "x"))


def test_matrices_of_literal_zeros_read_as_fraction_does():
    rng = random.Random(2702)
    seen = set()
    for _ in range(2000):
        rows = families.random_rows(rng)
        shape = rng.choice([(None, None), (len(rows), len(rows[0])), (len(rows), 2)])
        expected = outcome(oracles.o_matrix, rows, "m", *shape)
        assert outcome(matrix, rows, "m", *shape) == expected, rows
        seen.add(expected[1].split(": ")[1][:12] if expected[0] == "error" else "value")
    assert seen == {"value", "bad rational", "ragged matri", "matrix must "}


def test_a_matrix_error_names_its_place_in_an_action():
    zero = [["0"] * 2] * 2
    doc = {"acting": "abelian2.json", "carrier": "abelian2.json",
           "rho": [zero, zero], "mu": [[zero, zero], [zero, [["0", "0"], ["0", False]]]]}
    try:
        lyio.load_action(doc, FIXTURES, certify=False)
    except FormatError as e:
        assert str(e) == "action.mu[1][1]: bad rational False"
    else:
        raise AssertionError("no error")


# the antisymmetry faults of a binary and a ternary entry list, each the first
# in order of the key with i <= j
SKEW_CASES = [
    ([[1, 1, 0, "1"]], 2, "a: diagonal entry (1, 1) must vanish"),
    ([[0, 1, 0, "1"], [1, 0, 0, "1"]], 2, "a: entries at (0, 1) break antisymmetry"),
    ([[2, 2, 0, "1"], [1, 0, 0, "1"], [0, 1, 0, "1"]], 2,
     "a: entries at (0, 1) break antisymmetry"),
    ([[1, 2, 0, "1"], [2, 1, 0, "2"], [0, 0, 1, "1"]], 2,
     "a: diagonal entry (0, 0) must vanish"),
    ([[1, 1, 0, "0"], [0, 1, 0, "1"], [1, 0, 0, "-1"]], 2, None),
    ([[0, 0, 1, 0, "1"]], 3, "a: diagonal entry (0, 0, 1) must vanish"),
    ([[1, 0, 2, 0, "1"], [0, 1, 2, 0, "1/2"], [1, 1, 0, 0, "1"]], 3,
     "a: entries at (0, 1, 2) break antisymmetry"),
    ([[2, 1, 0, 0, "1"], [1, 2, 0, 0, "1"], [1, 1, 2, 0, "1"]], 3,
     "a: diagonal entry (1, 1, 2) must vanish"),
]


def test_antisymmetry_faults_are_reported_as_before():
    for entries, arity, message in SKEW_CASES:
        expected = outcome(oracles.o_sparse, entries, 3, arity, "a", True)
        assert expected[0] == ("value" if message is None else "error")
        assert message is None or expected[1] == message
        assert outcome(sparse, entries, 3, arity, "a", True) == expected, entries


def test_seeded_entry_lists_read_as_fraction_does():
    rng = random.Random(2703)
    seen = set()
    for _ in range(3000):
        dim, arity, antisym = rng.choice([2, 3]), rng.choice([2, 3]), rng.random() < 0.8
        entries = families.random_entries(rng, dim, arity)
        expected = outcome(oracles.o_sparse, entries, dim, arity, "a", antisym)
        assert outcome(sparse, entries, dim, arity, "a", antisym) == expected, entries
        seen.add(expected[1].split(" ")[1] if expected[0] == "error" else "value")
    assert seen == {"value", "diagonal", "entries", "index"}
