import functools
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg import io as lyio, linalg
from lyalg.cohomology import Cochain, zero_cochain_map
from lyalg.errors import (AmbientMismatch, DimMismatch, Inconsistent, NotInvertible,
                          ShapeMismatch, TooLarge)
from lyalg.linalg import (Echelon, SparseMat, Subspace, Tensor, frac, format_frac, graded,
                          graded_push, invert, mat, rref, solve)
import oracles
from conftest import fx
from oracles import (TPoly, mid, mm, mv, o_in_column_space, o_inverse, o_nullspace, o_rank,
                     o_rref)

POOL = [F(-2), F(-1), F(0), F(0), F(1), F(2), F(1, 3)]


def rmat(rng, r, c):
    return tuple(tuple(rng.choice(POOL) for _ in range(c)) for _ in range(r))


def test_frac_roundtrip():
    assert frac("3/4") == F(3, 4)
    assert frac(5) == F(5)
    assert format_frac(F(-7, 2)) == "-7/2"
    assert format_frac(F(4, 2)) == "2"
    with pytest.raises(ValueError):
        frac(object())


@functools.lru_cache(maxsize=None)
def abelian2_id():
    """Id over the zero action of abelian2 on itself, a verified operator."""
    A = L.abelian(2)
    zero = ((F(0),) * 2,) * 2
    r = L.RepAction(A, A, [zero] * 2, [[zero] * 2] * 2)
    return L.RRBOperator(r, mid(2)).ensure_verified()


# each library entry point that reads a rational, given one scalar
ENTRY_POINTS = {
    "frac": frac,
    "mat": lambda q: mat([[q]]),
    "Tensor": lambda q: Tensor([[[q]]], 1, 2, (1,)),
    "Cochain": lambda q: Cochain(1, 1, 1, [(q,)]),
    "Subspace": lambda q: Subspace(1, [(q,)]),
    "check_homomorphism": lambda q: L.check_homomorphism(L.abelian(1), L.abelian(1), [[q]]),
    "contract": lambda q: L.contract(L.abelian(1).binary, (q,), 0),
    "check_equivalence": lambda q: L.check_equivalence(abelian2_id(), mid(2), mid(2),
                                                       [((q, 0), (0, 1))]),
    "zero_cochain_map": lambda q: zero_cochain_map(abelian2_id(), (q, 0), (0, 1)),
    "SparseMat": lambda q: SparseMat(1, 2, {(0, 1): q}),
    "SparseMat.solve": lambda q: SparseMat(1, 1, {(0, 0): 1}).solve({0: q}),
    "SparseMat.apply": lambda q: SparseMat(1, 1, {(0, 0): 1}).apply({0: q}),
    "solve": lambda q: solve([[q]], [1]),
    "solve-rhs": lambda q: solve([[1]], [q]),
    "rref": lambda q: rref([[1, q]]),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_bounds_a_decimal(name):
    read = ENTRY_POINTS[name]
    read("1e4300")
    read("0." + "1" * 4299)
    for q in ("1e4301", "1E-4301", "0." + "1" * 4300):
        with pytest.raises(TooLarge, match="at most 4300 digits and an exponent of at most 4300"):
            read(q)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_bounds_an_integer_literal(name):
    """The bound counts every digit of a string, so an integer or "p/q" over
    CPython's 4300-digit limit is TooLarge, not the interpreter's ValueError."""
    read = ENTRY_POINTS[name]
    read("9" * 4300)
    read("-1/" + "3" * 4299)
    for q in ("1" * 5000, "1/" + "3" * 5000, "3" * 4300 + "/1"):
        with pytest.raises(TooLarge, match="at most 4300 digits and an exponent of at most 4300"):
            read(q)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_bool(name):
    for q in (True, False):
        with pytest.raises(ValueError, match="not a rational: %r" % q):
            ENTRY_POINTS[name](q)


# each library entry point that reads a sparse vector {index: q} on two indices
SPARSE_VECTOR_ENTRY_POINTS = {
    "SparseMat.apply": lambda v: SparseMat(2, 2, {(0, 0): 1, (1, 1): 1}).apply(v),
    "SparseMat.solve": lambda v: SparseMat(2, 2, {(0, 0): 1, (1, 1): 1}).solve(v),
    "solve-rhs": lambda v: solve([{0: 1}, {1: 1}], v, 2),
}


@pytest.mark.parametrize("name", sorted(SPARSE_VECTOR_ENTRY_POINTS))
@pytest.mark.parametrize("key", [0.5, True, False, "0", None, (0,), 2, -1])
def test_every_sparse_vector_entry_point_refuses_a_key_that_is_no_index(name, key):
    """Only an int below the size is an index: a bool is not read as 0 or 1,
    nor a float refused by a bare TypeError."""
    read = SPARSE_VECTOR_ENTRY_POINTS[name]
    assert read({1: 3}) in ({1: 3}, (0, 3))
    with pytest.raises(ShapeMismatch, match="index outside the 2 (columns|rows)$"):
        read({key: 1})


# each row of a 2-column ``solve`` system that can be a sparse row {column: q}
SPARSE_ROW_ENTRY_POINTS = {
    "solve-row-0": lambda row: solve([row, {1: 1}], [1, 1], 2),
    "solve-row-1": lambda row: solve([{0: 1}, row], [1, 1], 2),
}


@pytest.mark.parametrize("name", sorted(SPARSE_ROW_ENTRY_POINTS))
@pytest.mark.parametrize("key", [0.5, True, "a", None, (0,), -1, 2])
def test_solve_refuses_a_sparse_row_key_that_is_no_column(name, key):
    """A sparse row's keys are checked as the right-hand side's are: a bool
    or a float is not read as a column, nor a string refused by a bare
    TypeError."""
    read = SPARSE_ROW_ENTRY_POINTS[name]
    assert read({0: 1, 1: 1}) in ((0, 1), (1, 0))
    with pytest.raises(ShapeMismatch, match="^row %s has an entry outside the 2 columns$"
                       % name[-1]):
        read({0: 1, key: 1})


def test_api_vectors_read_their_entries_as_rationals():
    """A string entry is its rational, not a str repeated: 2 [e1, e2] = 4 e4
    in nilpotent4, and every vector reader takes "1" as it takes 1."""
    A = lyio.load_algebra(fx("nilpotent4.json"))
    assert L.contract(A.binary, ("2", 0, 0, 0), 1) == (0, 0, 0, 4)
    assert L.contract(A.binary, ("1", 0, 0, 0), 1) == (0, 0, 0, 2)
    assert L.contract(A.binary, (F(1, 2), "1/2", 0, 0), 1) == (0, 0, 0, 1)
    op = lyio.load_operator(fx("p3_on_nilpotent4.json"))
    zero = oracles.mzero(4, 4)
    one, strings = [((1, 0, 0, 0), (0, 1, 0, 0))], [(("1", 0, 0, 0), (0, "1", 0, 0))]
    assert L.check_equivalence(op, zero, zero, strings).to_dict() \
        == L.check_equivalence(op, zero, zero, one).to_dict()
    assert zero_cochain_map(op, *strings[0]).support == zero_cochain_map(op, *one[0]).support
    # an int in a slot of ``contract`` is a basis index, and a bool is not
    readers = [lambda v: L.contract(A.binary, v, 1),
               lambda v: L.check_equivalence(op, zero, zero, [(v, (0, 1, 0, 0))]),
               lambda v: zero_cochain_map(op, v, (0, 1, 0, 0)),
               lambda v: L.wedge_coords(v, (0, 1, 0, 0), 4)]
    for bad in ((1, 0, 0), "1000", {0: 1}, True, 5):
        for read in readers[bad == 5:]:
            with pytest.raises(DimMismatch, match="^vectors must have length 4$"):
                read(bad)
    with pytest.raises(ValueError, match="not a rational: 0.5"):
        L.check_equivalence(op, zero, zero, [((0.5, 0, 0, 0), (0, 1, 0, 0))])


def test_elimination_entry_points_read_rationals():
    """``SparseMat`` and its ``solve`` and ``apply``, ``solve`` and ``rref``
    read every entry by ``rational``: "1/2" is a half and 0.1 is refused,
    not read as the double nearest it."""
    assert SparseMat(1, 2, {(0, 0): "1/2", (0, 1): 1}).nullspace() == [{0: -2, 1: 1}]
    assert SparseMat(1, 2, [["1/2", 1]]).data == {(0, 0): F(1, 2), (0, 1): 1}
    assert solve([["1/2", 1]], [1]) == (2, 0)
    assert solve([[2, 1]], ["1/2"]) == (F(1, 4), 0)
    assert solve([{0: "1/2"}], {0: "1"}, 2) == (2, 0)
    assert rref([["1/2", 1]]) == (((1, 2),), [0])
    one = SparseMat(1, 1, {(0, 0): 1})
    assert one.solve({0: "1/2"}) == (F(1, 2),) and one.apply({0: "1/2"}) == {0: F(1, 2)}
    for read in (lambda q: SparseMat(1, 2, {(0, 0): q}), lambda q: solve([[q, 1]], [1]),
                 lambda q: solve([[1, 1]], [q]), lambda q: solve([{0: q}], {0: 1}, 2),
                 lambda q: rref([[q, 1]]), lambda q: one.solve({0: q}),
                 lambda q: one.apply({0: q})):
        with pytest.raises(ValueError, match="^not a rational: 0.1$"):
            read(0.1)


@pytest.mark.parametrize("key", [(5, 1), (0, 5), (2, 0), (0, 2), (-1, 0), (0, -1)])
def test_sparse_mat_refuses_a_key_outside_its_shape(key):
    """A row index past the rows would reach the tag columns of the echelon,
    and a column index past the columns has no column: both are refused."""
    with pytest.raises(DimMismatch, match="^matrix must be 2x2$"):
        SparseMat(2, 2, {(0, 0): 1, key: 1})


def test_mat_reads_one_form_and_refuses_the_others():
    """Dense rows, a sparse {(r, c): q} dict and a Map give one map; a
    string or dict where a row belongs, a non-sequence, ragged rows or a key
    outside the shape is a DimMismatch with the caller's message."""
    want = ((F(5), F(7)), (F(0), F(0)))
    for M in ([[5, 7], [0, 0]], ((5, "7"), ("0", 0)), {(0, 0): 5, (0, 1): "7", (1, 1): 0}):
        got = mat(M, (2, 2), "m %dx%d")
        assert got.dense() == want and mat(got, (2, 2)) is got
    assert mat([[F(1, 2), 0]]).dense() == ((F(1, 2), F(0)),)
    for bad in (["12", "34"], [{0: 3, 1: 4}, {0: 1}], 5, "1234", [[1, 2], [3]],
                {(2, 0): 1}, {(0, -1): 1}, {(0, 0, 0): 1}, {0: 1}, [[1, 2]],
                mat([[1, 2]])):
        with pytest.raises(DimMismatch, match="^m 2x2$"):
            mat(bad, (2, 2), "m %dx%d")
    for bad in (["12", "34"], [{0: 3, 1: 4}], 5, [[1, 2], [3]], {(0, 0): 1}):
        with pytest.raises(DimMismatch, match="^a matrix is a list of equal rows$"):
            mat(bad)


def test_every_map_entry_point_reads_the_one_form():
    """Each API entry point that takes a map reads it through ``mat``: a
    sparse dict as its entries, the same as the dense rows, and a string or
    dict where a row belongs, or a non-sequence, as a DimMismatch naming the
    map."""
    op = lyio.load_operator(fx("p3_on_nilpotent4.json"))
    A, P = op.action.acting, L.zero_post(4)
    c = Cochain(1, 4, 4, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1)])
    readers = {
        "RRBOperator": (lambda M: L.RRBOperator(op.action, M).T.dense(),
                        "T must be 4x4 (carrier -> acting)"),
        "check_homomorphism": (lambda M: L.check_homomorphism(A, A, M, True).to_dict(),
                               "map must be 4x4"),
        "check_post_homomorphism": (lambda M: L.check_post_homomorphism(P, P, M, True).to_dict(),
                                    "map must be 4x4"),
        "check_nijenhuis": (lambda M: L.check_nijenhuis(A, M, True).to_dict(), "N must be 4x4"),
        "pushforward_cochain": (lambda M: L.pushforward_cochain(L.HomPair(M, M), c).support,
                                "psi_g must be 4x4"),
        "check_rrb_homomorphism": (lambda M: L.check_rrb_homomorphism(
            op, op, L.HomPair(M, M), True).to_dict(), "map must be 4x4"),
        "OrderNDeformation": (lambda M: L.OrderNDeformation(op, [M]).terms[0].dense(),
                              "deformation terms must be 4x4 (carrier -> acting)"),
    }
    dense_rows = [[1, 0, 0, 0], [0, 1, 0, 0], [2, 0, 1, "1/2"], [0, 0, 0, 1]]
    sparse = {(r, c): q for r, row in enumerate(dense_rows) for c, q in enumerate(row) if q}
    for name, (read, message) in readers.items():
        assert read(sparse) == read(dense_rows) == read(mat(dense_rows)), name
        for bad in (["1000", "0100", "0010", "0001"], [{0: 1}] * 4, 5, {(4, 0): 1},
                    dense_rows[:3]):
            with pytest.raises(DimMismatch, match="^%s$" % re.escape(message)):
                read(bad)


def test_an_oversized_decimal_is_refused_before_fraction_reads_it():
    """``Fraction("1e999999999")`` builds 10**999999999, which does not return
    in any useful time; ``mat`` refuses the string first.  The child runs under
    a CPU and memory limit, so a regression fails instead of hanging."""
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_CPU, (20, 20))\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from lyalg.errors import TooLarge\n"
            "from lyalg.linalg import mat\n"
            "try:\n"
            "    mat([['1e999999999']])\n"
            "except TooLarge as e:\n"
            "    print(e)\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=30)
    assert (done.returncode, done.stdout) == (
        0, "a decimal may have at most 4300 digits and an exponent of at most 4300\n")


def nullspace(rows, ncols):
    """The kernel basis of the matrix with these dense or sparse rows, by
    ``SparseMat.nullspace``, as dense vectors; dense rows are handed over as
    they are, sparse ones as the entries {(i, c): q}."""
    data = rows
    if rows and isinstance(rows[0], dict):
        data = {(i, c): q for i, row in enumerate(rows) for c, q in row.items()}
    return [linalg.dense(v, (ncols,)) for v in SparseMat(len(rows), ncols, data).nullspace()]


def test_rref_idempotent_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).dense()
    red, pivots = rref(m)
    assert SparseMat(3, 3, m).rank() == 2 == len(pivots)
    again, _ = rref(red)
    assert again == red


def test_rank_matches_oracle_random():
    rng = random.Random(101)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = rmat(rng, r, c)
        assert SparseMat(r, c, m).rank() == o_rank(m)


def test_nullspace_vectors_annihilate():
    rng = random.Random(202)
    for _ in range(25):
        m = rmat(rng, rng.randint(1, 5), rng.randint(1, 6))
        ns = nullspace(m, len(m[0]))
        assert len(ns) == len(m[0]) - SparseMat(len(m), len(m[0]), m).rank()
        for v in ns:
            assert all(x == 0 for x in mv(m, v))


def test_solve_and_inconsistent():
    rng = random.Random(303)
    for _ in range(25):
        m = rmat(rng, rng.randint(1, 5), rng.randint(1, 5))
        x0 = tuple(rng.choice(POOL) for _ in range(len(m[0])))
        b = mv(m, x0)
        x = solve(m, b)
        assert mv(m, x) == b
    with pytest.raises(Inconsistent):
        solve(mat([[1, 0], [2, 0]]).dense(), (F(1), F(3)))
    # a sparse right-hand side is checked against the rows, not truncated
    for b in ({2: F(1)}, {-1: F(1)}, {0: F(0), 5: F(0)}):
        with pytest.raises(ShapeMismatch):
            solve(mat([[1, 0], [2, 0]]).dense(), b, ncols=2)


@pytest.mark.parametrize("rows,ncols", [
    ([{0: F(1), 2: F(1)}], 2),               # a sparse column past the last
    ([{0: F(1), -1: F(1)}], 2),              # a negative sparse column
    ([(F(1), F(0), F(1))], 2),               # a dense row longer than ncols
    ([(F(1), F(0))], 3),                     # a dense row shorter than ncols
    ([(F(1),), (F(1), F(0))], None),         # ragged dense rows
])
def test_rows_outside_the_columns_are_a_shape_mismatch(rows, ncols):
    c = len(rows[0]) if ncols is None else ncols
    with pytest.raises(DimMismatch, match="^matrix must be %dx%d$" % (len(rows), c)):
        nullspace(rows, c)
    with pytest.raises(ShapeMismatch):
        solve(rows, [F(1)] * len(rows), ncols)


@pytest.mark.parametrize("rows", [["12"], [5], [(1, 2), "12"], "12"])
def test_solve_refuses_a_row_that_is_no_list_tuple_or_dict(rows):
    """A string is not read as the row of its characters, nor an int as a
    row at all."""
    at = next(i for i, row in enumerate(rows) if not isinstance(row, (list, tuple)))
    with pytest.raises(ShapeMismatch, match="^row %d is not a list, tuple or dict$" % at):
        solve(rows, [1] * len(rows))


def test_invert():
    m = mat([[2, 1], [1, 1]])
    assert mm(m.dense(), invert(m).dense()) == mid(2)
    with pytest.raises(NotInvertible):
        invert(mat([[1, 2], [2, 4]]))
    empty = invert([])
    assert empty.shape == (0, 0) and empty.dense() == ()


def holds(u, v):
    """Whether the subspace u holds the vector v: adding v leaves u as it is."""
    return u.sum(Subspace(u.ambient_dim, [v])) == u


def test_subspace_membership_and_lattice():
    u = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    w = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert holds(u, (F(2), F(-3), F(0)))
    assert not holds(u, (F(0), F(0), F(1)))
    meet = u.intersect(w)
    join = u.sum(w)
    assert meet.dim == 1 and join.dim == 3
    assert holds(meet, (F(0), F(1), F(0)))


def test_subspace_dimension_formula_random():
    rng = random.Random(404)
    for _ in range(20):
        n = rng.randint(2, 5)
        u = Subspace(n, [tuple(rng.choice(POOL) for _ in range(n))
                         for _ in range(rng.randint(1, n))])
        w = Subspace(n, [tuple(rng.choice(POOL) for _ in range(n))
                         for _ in range(rng.randint(1, n))])
        assert u.dim + w.dim == u.sum(w).dim + u.intersect(w).dim


def test_subspace_canonical_equality():
    a = Subspace(2, [(1, 1), (2, 2)])
    b = Subspace(2, [(3, 3)])
    assert a == b and hash(a) == hash(b) and a.dim == 1


def test_subspace_reads_a_generator_of_vectors_once():
    vectors = [(1, 0, 2), (0, 1, 0), (1, 1, 2)]
    got = Subspace(3, (v for v in vectors))
    assert got.dim == 2 and got == Subspace(3, vectors)
    with pytest.raises(AmbientMismatch):
        Subspace(3, (v for v in vectors + [(1, 0)]))


def test_a_spanning_vector_is_a_list_or_tuple():
    """A dict's keys, a string's characters or a scalar are no vector."""
    for bad in ({0: 5, 1: 7}, "12", 5):
        with pytest.raises(DimMismatch):
            Subspace(2, [(1, 0), bad])
    with pytest.raises(AmbientMismatch, match="^vector length 3 in ambient 2$"):
        Subspace(2, [(1, 2, 3), "12"])


# ---------------------------------------------------------------------------
# the sparse elimination routine on seeded sparse rational matrices

SPARSE_POOL = [F(-3, 2), F(-1), F(1), F(2), F(1, 3)]
SHAPES = [(0, 0), (0, 4), (3, 0), (1, 1), (1, 7), (7, 1), (3, 9), (9, 3),
          (6, 6), (12, 5), (5, 12)]


def sparse_mat(rng, r, c, density):
    return tuple(tuple(rng.choice(SPARSE_POOL) if rng.random() < density else F(0)
                       for _ in range(c)) for _ in range(r))


def sparse_cases(seed):
    rng = random.Random(seed)
    for r, c in SHAPES:
        yield r, c, tuple((F(0),) * c for _ in range(r))      # all zero
        for density in (0.1, 0.3, 0.7):
            for _ in range(3):
                m = sparse_mat(rng, r, c, density)
                # duplicate and combine rows so that rank drops below min(r, c)
                if r >= 3:
                    m = m[:-2] + (m[0], tuple(x + 2 * y for x, y in zip(m[0], m[1])))
                yield r, c, m


def as_dicts(m):
    return [{j: v for j, v in enumerate(row) if v != 0} for row in m]


def test_sparse_rank_matches_oracle():
    for r, c, m in sparse_cases(501):
        assert SparseMat(r, c, m).rank() == o_rank(m)
        entries = {(i, j): q for i, row in enumerate(as_dicts(m)) for j, q in row.items()}
        assert SparseMat(r, c, entries).rank() == o_rank(m)


def test_sparse_nullspace_dimension_and_annihilation():
    for r, c, m in sparse_cases(502):
        ns = nullspace(m, c)
        assert len(ns) == c - o_rank(m)
        for v in ns:
            assert len(v) == c
            assert all(x == 0 for x in mv(m, v))
        assert nullspace(as_dicts(m), c) == ns


def leftmost_pivots(m, c):
    """Columns where the rank of the leading columns goes up (dense oracle)."""
    out, prev = [], 0
    for j in range(c):
        rk = o_rank([row[:j + 1] for row in m])
        if rk > prev:
            out.append(j)
        prev = rk
    return out


def test_sparse_rref_idempotent_with_leftmost_pivots():
    for r, c, m in sparse_cases(503):
        red, pivots = rref(m)
        assert len(red) == r and all(len(row) == c for row in red)
        assert pivots == leftmost_pivots(m, c)
        for i, pc in enumerate(pivots):
            assert red[i][pc] == 1
            assert all(red[k][pc] == 0 for k in range(r) if k != i)
        assert all(x == 0 for row in red[len(pivots):] for x in row)
        assert rref(red) == (red, pivots)


def test_subspace_basis_independent_of_spanning_order():
    rng = random.Random(504)
    for r, c, m in sparse_cases(504):
        if not c:
            continue
        want = Subspace(c, list(m))
        for _ in range(4):
            spanning = list(m) + [tuple(x - y for x, y in zip(m[0], m[-1]))] if m else []
            rng.shuffle(spanning)
            got = Subspace(c, spanning)
            assert got.basis == want.basis and got == want
        assert want.dim == o_rank(m)


def test_subspace_meet_lies_in_both():
    rng = random.Random(507)
    for _ in range(30):
        n = rng.randint(1, 6)
        u = Subspace(n, list(sparse_mat(rng, rng.randint(0, n), n, 0.5)))
        w = Subspace(n, list(sparse_mat(rng, rng.randint(0, n), n, 0.5)))
        meet = u.intersect(w)
        assert all(holds(u, v) and holds(w, v) for v in meet.basis)
        assert u.dim + w.dim == u.sum(w).dim + meet.dim


def test_sparse_solve_inconsistent_exactly_off_column_space():
    rng = random.Random(505)
    for r, c, m in sparse_cases(505):
        x0 = tuple(rng.choice(SPARSE_POOL) for _ in range(c))
        for b in (mv(m, x0) if r else (),
                  tuple(rng.choice(SPARSE_POOL + [F(0)]) for _ in range(r))):
            if o_in_column_space(m, b):
                x = solve(m, b, ncols=c)
                assert len(x) == c and mv(m, x) == b
                assert solve(as_dicts(m), b, ncols=c) == x
                assert solve(m, dict(enumerate(b)), ncols=c) == x
            else:
                with pytest.raises(Inconsistent) as err:
                    solve(m, b, ncols=c)
                assert err.value.rank == o_rank(m)
                assert err.value.rank_augmented == o_rank([row + (q,) for row, q in zip(m, b)])
                with pytest.raises(Inconsistent):
                    solve(as_dicts(m), {i: q for i, q in enumerate(b) if q}, ncols=c)


def test_echelon_insert_reports_independence():
    rng = random.Random(506)
    for r, c, m in sparse_cases(506):
        ech = Echelon()
        kept = []
        for row, sparse in zip(m, as_dicts(m)):
            new = ech.insert(sparse)
            assert new == (o_rank(kept + [row]) > o_rank(kept))
            if new:
                kept.append(row)
        assert ech.rank == len(kept)
        assert all(not ech.reduce(row) for row in as_dicts(m))


# ---------------------------------------------------------------------------
# the fraction-free kernel on rows of high-height rationals

def height_q(rng):
    return F(rng.randint(-2 ** 64, 2 ** 64), rng.randint(1, 10 ** 9))


def height_cases(seed):
    """Matrices of high-height rationals, of rank below the smaller side when
    the rows are combinations of fewer base rows, some with leading zero
    columns; square full-rank ones come along."""
    rng = random.Random(seed)
    for _ in range(24):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        lead = rng.choice((0, 0, 1, 2))
        base = [[F(0)] * min(lead, c) + [height_q(rng) if rng.random() < 0.7 else F(0)
                                         for _ in range(c - min(lead, c))]
                for _ in range(rng.randint(1, r))]
        rows = []
        for _ in range(r):
            coef = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in base]
            rows.append(tuple(sum((k * b[j] for k, b in zip(coef, base)), F(0))
                              for j in range(c)))
        yield tuple(rows)
        if r == c:
            yield tuple(tuple(height_q(rng) for _ in range(c)) for _ in range(r))


def as_ints(m):
    """Each row times the lcm of its denominators: the same row space in int entries."""
    return tuple(tuple(int(q * math.lcm(*(x.denominator for x in row))) for q in row)
                 for row in m)


def fractions_only(x):
    if isinstance(x, dict):
        return all(fractions_only(v) for v in x.values())
    if isinstance(x, (tuple, list)):
        return all(fractions_only(v) for v in x)
    return type(x) is F


def test_high_height_rank_rref_and_nullspace_match_oracle():
    for m in height_cases(601):
        c = len(m[0])
        red, pivots = o_rref(m)
        kernel = o_nullspace(m, c)
        for rows in (m, as_dicts(m), as_ints(m), as_dicts(as_ints(m))):
            got = nullspace(rows, c)
            assert got == kernel and fractions_only(got)
        for rows in (m, as_ints(m)):
            got = rref(rows)
            assert got == (tuple(red), pivots) and fractions_only(got[0])
            basis = Subspace(c, rows).basis
            assert basis == tuple(red[:len(pivots)]) and fractions_only(basis)


def test_high_height_solve_and_invert_match_oracle():
    rng = random.Random(602)
    for m in height_cases(602):
        r, c = len(m), len(m[0])
        x0 = tuple(height_q(rng) for _ in range(c))
        for b in (mv(m, x0), tuple(height_q(rng) for _ in range(r))):
            aug = [row + (q,) for row, q in zip(m, b)]
            red, pivots = o_rref(aug)
            if c in pivots:
                for rows in (m, as_dicts(m)):
                    with pytest.raises(Inconsistent) as err:
                        solve(rows, b, ncols=c)
                    assert (err.value.rank, err.value.rank_augmented) == \
                        (o_rank(m), len(pivots))
                continue
            want = [F(0)] * c
            for row, pc in zip(red, pivots):
                want[pc] = row[c]
            for rows in (m, as_dicts(m)):
                got = solve(rows, b, ncols=c)
                assert got == tuple(want) and fractions_only(got)
            assert mv(m, tuple(want)) == b
        if r == c:
            for rows in (m, as_ints(m)):
                if o_rank(m) == r:
                    got = invert(rows).dense()
                    assert got == o_inverse([[F(x) for x in row] for row in rows])
                    assert fractions_only(got)
                else:
                    with pytest.raises(NotInvertible):
                        invert(rows)


def test_stored_rows_are_primitive_integer_rows():
    for m in height_cases(603):
        for rows in (as_dicts(m), as_dicts(as_ints(m))):
            ech = Echelon(rows)
            for pc, row in ech._rows.items():
                assert pc == min(row) and row[pc] > 0
                assert all(type(v) is int for v in row.values())
                assert math.gcd(*row.values()) == 1
            for row in rows:
                assert ech.reduce(row) == {}


def test_one_elimination_step_uses_coprime_multipliers(monkeypatch):
    # the step itself, before the content is divided out: with a = 4 and
    # b = 6 reduced to 2 and 3, 2 * (6, 1) - 3 * (4, 1) = (0, -1)
    monkeypatch.setattr(linalg, "_primitive", lambda r: r)
    assert linalg._eliminate({0: 6, 1: 1}, {0: 4, 1: 1}, 0) == {1: -1}
    assert linalg._eliminate({0: 5, 2: 7}, {0: 5, 1: 3}, 0) == {1: -3, 2: 7}


# ---------------------------------------------------------------------------
# truncated polynomials: graded / graded_push against a dense expansion in t

def random_table(rng, dims, value_keys, density=0.5, pool=SPARSE_POOL):
    """A sparse table over the index tuples of ``dims`` with sparse values on
    ``value_keys``, drawn from ``pool``; every kept value is nonzero."""
    table = {}
    for key in itertools.product(*(range(d) for d in dims)):
        if rng.random() < density:
            v = {e: rng.choice(pool) for e in value_keys if rng.random() < 0.6}
            if v:
                table[key] = v
    return table


def random_poly(rng, src):
    """(dst, coefficient matrices or None, dense src x dst matrix of TPoly):
    a polynomial map of degree 0-2 into slot dims dst, None for the identity
    (and a None coefficient for an identity term), reading a slot of dim src."""
    if rng.random() < 0.2:
        return src, None, [[TPoly([int(x == y)]) for y in range(src)] for x in range(src)]
    degree = rng.randrange(3)
    square = rng.random() < 0.5
    dst = src if square else rng.randint(1, 3)
    coeffs = [None if square and rng.random() < 0.3 else
              [[rng.choice(POOL) for _ in range(dst)] for _ in range(src)]
              for _ in range(degree + 1)]
    dense = [[TPoly([int(x == y) if P is None else P[x][y] for P in coeffs])
              for y in range(dst)] for x in range(src)]
    return dst, coeffs, dense


def oracle_graded(values, dense_polys, dst, positions, s):
    """The t^s coefficient of ``values`` with slot p read through the dense
    TPoly matrix dense_polys[p], key slot p placed at positions[p]."""
    out = {}
    for a in itertools.product(*(range(d) for d in dst)):
        key = [None] * len(a)
        for p, x in enumerate(a):
            key[positions[p]] = x
        for src_key, v in values.items():
            c = TPoly([1])
            for p, P in enumerate(dense_polys):
                c = c * P[src_key[p]][a[p]]
            for e, q in v.items():
                if c.coeff(s):
                    w = out.setdefault(tuple(key), {})
                    w[e] = w.get(e, F(0)) + c.coeff(s) * q
    return out


def added(acc, sign, table):
    """acc + sign * table, dropping entries and keys that vanish."""
    out = {k: dict(v) for k, v in acc.items()}
    for k, v in table.items():
        w = out.setdefault(k, {})
        for e, q in v.items():
            w[e] = w.get(e, F(0)) + sign * q
    return {k: {e: q for e, q in v.items() if q} for k, v in out.items()
            if any(v.values())}


def test_graded_matches_dense_polynomial_expansion():
    """Supports of arity 1-3 with vector and matrix values, polynomial maps
    of degree 0-2 per slot (the identity and identity coefficients included),
    permuted positions, every s up to one past the total degree."""
    rng = random.Random(1414)
    seen = set()
    for case in range(60):
        k = 1 + case % 3
        src = [rng.randint(1, 3) for _ in range(k)]
        value_keys = ([(r, c) for r in range(2) for c in range(2)] if case % 2 else range(3))
        values = random_table(rng, src, value_keys)
        dst, coeffs, dense_polys = zip(*(random_poly(rng, d) for d in src))
        polys = [None if P is None else tuple(None if M is None else mat(M) for M in P)
                 for P in coeffs]
        positions = list(range(k))
        rng.shuffle(positions)
        top = sum(0 if P is None else len(P) - 1 for P in coeffs)
        sign = rng.choice([F(1), F(-1), F(2)])
        for s in range(top + 2):
            acc = random_table(rng, [max(dst)] * k, value_keys, 0.3)
            want = added(acc, sign, oracle_graded(values, dense_polys, dst, positions, s))
            graded(acc, sign, values, polys, s, positions)
            assert acc == want
            seen.add((k, s, bool(want)))
    assert {(k, s, True) for k in (1, 2, 3) for s in (0, 1, 2)} <= seen


def test_graded_push_matches_dense_polynomial_expansion():
    """An outer polynomial map of degree 0-2 (the identity and identity
    coefficients included) applied to tables graded by degree 0-2."""
    rng = random.Random(1415)
    for case in range(40):
        k = 1 + case % 3
        keys, src = [rng.randint(1, 2) for _ in range(k)], rng.randint(1, 3)
        tables = [random_table(rng, keys, range(src)) for _ in range(rng.randint(1, 3))]
        dst, coeffs, dense_poly = random_poly(rng, src)
        # the map from dim src to dst is the dst x src transpose of each coefficient
        poly = ((None,) if coeffs is None else
                tuple(None if M is None else mat(tuple(zip(*M))) for M in coeffs))
        sign = rng.choice([F(1), F(-1), F(2)])
        for s in range(len(poly) + len(tables)):
            want = {}
            for key in set().union(*tables):
                vec = [TPoly([t.get(key, {}).get(y, 0) for t in tables]) for y in range(src)]
                out = {x: sum((dense_poly[y][x] * vec[y] for y in range(src)), TPoly([]))
                       .coeff(s) for x in range(dst)}
                if any(out.values()):
                    want[key] = {x: q for x, q in out.items() if q}
            acc = random_table(rng, keys, range(dst), 0.3)
            want = added(acc, sign, want)
            graded_push(acc, sign, poly, tables, s)
            assert acc == want


# ---------------------------------------------------------------------------
# the contraction primitive against the dense evaluator of tests/oracles.py

VALUES = [1, -1, 2, -2, F(1, 2), 3, F(1), F(-2), F(3)]
SIGNS = [1, -1, 2, -2]


def values_table(rng, dims, rows, density=0.5):
    """A sparse table over the index tuples of ``dims``, values on range(rows)
    drawn from VALUES."""
    return random_table(rng, dims, range(rows), density, VALUES)


def random_map(rng, n):
    """An n x w matrix, w 2 or 3, of VALUES and zeros."""
    w = rng.choice([2, 3])
    return tuple(tuple(rng.choice(VALUES + [0, 0]) for _ in range(w)) for _ in range(n))


def random_positions(rng, k):
    return None if rng.random() < 0.3 else tuple(rng.sample(range(k), k))


def clean(table):
    """No empty value and no zero entry is ever stored."""
    return all(v and all(q != 0 for q in v.values()) for v in table.values())


def prefilled(rng, term, sign, sizes, rows):
    """An acc to add ``sign`` * ``term`` into: random values, the negated term
    at some keys so that they cancel, and part of it at others."""
    acc = values_table(rng, sizes, rows, 0.3)
    for key, v in term.items():
        x = rng.random()
        if x < 0.3:
            acc[key] = {r: -sign * q for r, q in v.items()}
        elif x < 0.5:
            r = min(v)
            acc[key] = {r: -sign * v[r], rows: 1}
    return acc


def assert_adds(run, acc, sign, term):
    """run(acc) leaves acc + sign * term, with cancelled keys absent."""
    want = oracles.o_plus((1, acc), (sign, term))
    run(acc)
    assert acc == want and clean(acc)


@pytest.mark.parametrize("seed", range(12))
def test_pull_matches_dense_oracle(seed):
    rng = random.Random(7100 + seed)
    k, n, rows = rng.choice([1, 2, 3]), 3, 3
    values = values_table(rng, (n,) * k, rows) if seed % 6 else {}
    maps = [None if rng.random() < 0.3 else random_map(rng, n) for _ in range(k)]
    positions = random_positions(rng, k)
    sign = rng.choice(SIGNS)
    term = oracles.o_pull(values, (n,) * k, maps, positions)
    out = [n if M is None else len(M[0]) for M in maps]
    out = tuple(out) if positions is None else tuple(out[positions.index(x)] for x in range(k))
    lib_maps = [None if M is None else mat(M) for M in maps]
    for acc in ({}, prefilled(rng, term, sign, out, rows)):
        assert_adds(lambda a: linalg.pull(a, sign, values, lib_maps, positions), acc, sign, term)
    # the term and its negation cancel everywhere
    acc = {}
    linalg.pull(acc, sign, values, lib_maps, positions)
    linalg.pull(acc, -sign, values, lib_maps, positions)
    assert acc == {}


@pytest.mark.parametrize("seed", range(8))
def test_push_matches_dense_oracle(seed):
    rng = random.Random(7200 + seed)
    k, n = rng.choice([1, 2, 3]), 3
    table = values_table(rng, (n,) * k, n) if seed % 4 else {}
    M = tuple(zip(*random_map(rng, n)))
    sign = rng.choice(SIGNS)
    term = oracles.o_push(M, table)
    for acc in ({}, prefilled(rng, term, sign, (n,) * k, len(M))):
        assert_adds(lambda a: linalg.push(a, sign, mat(M), table), acc, sign, term)


@pytest.mark.parametrize("seed", range(10))
def test_compose_matches_dense_oracle_at_every_slot(seed):
    rng = random.Random(7300 + seed)
    n = 3
    for a, b in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (3, 2)):
        outer, inner = values_table(rng, (n,) * a, n), values_table(rng, (n,) * b, n, 0.4)
        for p in range(a):
            for positions in (None, tuple(rng.sample(range(a + b - 1), a + b - 1))):
                sign = rng.choice(SIGNS)
                term = oracles.o_compose(outer, p, inner, n, positions)
                for acc in ({}, prefilled(rng, term, sign, (n,) * (a + b - 1), n)):
                    assert_adds(lambda t: linalg.compose(t, sign, outer, p, inner, positions),
                                acc, sign, term)


def test_compose_where_nothing_meets_leaves_acc_unchanged():
    rng = random.Random(7400)
    n = 3
    # every inner value has rows in {2} only, and outer's slot p is never 2
    inner = {key: {2: rng.choice(VALUES)} for key in itertools.product(range(n), repeat=2)}
    for a in (1, 2, 3):
        for p in range(a):
            outer = {key: v for key, v in values_table(rng, (n,) * a, n, 0.8).items()
                     if key[p] != 2}
            assert outer
            for acc in ({}, values_table(rng, (n,) * (a + 1), n)):
                before = {key: dict(v) for key, v in acc.items()}
                linalg.compose(acc, rng.choice(SIGNS), outer, p, inner)
                assert acc == before
                assert oracles.o_compose(outer, p, inner, n) == {}
    # and empty tables on either side
    for outer, inner in (({}, inner), ({(0, 1): {0: 1}}, {}), ({}, {})):
        acc = {(0, 0): {1: F(1, 2)}}
        linalg.compose(acc, 1, outer, 0, inner)
        assert acc == {(0, 0): {1: F(1, 2)}}


@pytest.mark.parametrize("seed", range(8))
def test_signed_sum_matches_dense_oracle(seed):
    rng = random.Random(7500 + seed)
    n = 3
    t2, t3 = values_table(rng, (n, n), n), values_table(rng, (n, n, n), n, 0.3)
    m1 = values_table(rng, (n,), n)
    terms = [(rng.choice(SIGNS), t2, (1, 0)), (rng.choice(SIGNS), t2, 1, m1),
             (rng.choice(SIGNS), t3, 0, m1, (2, 0, 1)), (rng.choice(SIGNS), m1, 0, t2),
             (rng.choice(SIGNS), t3, None)]
    # a term and its negation cancel to nothing
    terms += [(1, t3, 2, t2, (3, 1, 0, 2)), (-1, t3, 2, t2, (3, 1, 0, 2))]
    rng.shuffle(terms)
    got = linalg.signed_sum(terms)
    assert got == oracles.o_signed_sum(terms, n) and clean(got)
    assert linalg.signed_sum([(1, t2, None), (-1, t2, None)]) == {}
    assert linalg.signed_sum([]) == {}


@pytest.mark.parametrize("seed", range(4))
def test_axpy_matches_dense_oracle(seed):
    rng = random.Random(7600 + seed)
    for f in SIGNS + [F(1, 2), F(-1), 0]:
        x = {r: rng.choice(VALUES) for r in range(6) if rng.random() < 0.6}
        acc = {r: rng.choice(VALUES) for r in range(6) if rng.random() < 0.4}
        for r in x:
            if rng.random() < 0.4:
                acc[r] = -f * x[r] or 1    # cancels, unless f is 0
        want = oracles.o_plus((1, {0: acc}), (f, {0: x})).get(0, {})
        linalg.axpy(acc, f, x)
        assert acc == want and all(q != 0 for q in acc.values())
