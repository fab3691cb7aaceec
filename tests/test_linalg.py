import random
from fractions import Fraction as F

import pytest

from lyalg.errors import Inconsistent, NotInvertible
from lyalg.linalg import (Echelon, Subspace, frac, format_frac, invert, mat,
                          mat_id, mat_mul, mat_vec, nullspace_basis, rank, rref,
                          solve)
from oracles import o_in_column_space, o_rank

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


def test_rref_idempotent_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = rref(m)
    assert rank(m) == 2 == len(pivots)
    again, _ = rref(red)
    assert again == red


def test_rank_matches_oracle_random():
    rng = random.Random(101)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = rmat(rng, r, c)
        assert rank(m) == o_rank(m)


def test_nullspace_vectors_annihilate():
    rng = random.Random(202)
    for _ in range(25):
        m = rmat(rng, rng.randint(1, 5), rng.randint(1, 6))
        ns = nullspace_basis(m)
        assert len(ns) == len(m[0]) - rank(m)
        for v in ns:
            assert all(x == 0 for x in mat_vec(m, v))


def test_solve_and_inconsistent():
    rng = random.Random(303)
    for _ in range(25):
        m = rmat(rng, rng.randint(1, 5), rng.randint(1, 5))
        x0 = tuple(rng.choice(POOL) for _ in range(len(m[0])))
        b = mat_vec(m, x0)
        x = solve(m, b)
        assert mat_vec(m, x) == b
    with pytest.raises(Inconsistent):
        solve(mat([[1, 0], [2, 0]]), (F(1), F(3)))


def test_invert():
    m = mat([[2, 1], [1, 1]])
    assert mat_mul(m, invert(m)) == mat_id(2)
    with pytest.raises(NotInvertible):
        invert(mat([[1, 2], [2, 4]]))


def test_subspace_membership_and_lattice():
    u = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    w = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert u.contains((F(2), F(-3), F(0)))
    assert not u.contains((F(0), F(0), F(1)))
    meet = u.intersect(w)
    join = u.sum(w)
    assert meet.dim == 1 and join.dim == 3
    assert meet.contains((F(0), F(1), F(0)))


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
        assert rank(m) == o_rank(m)
        assert rank(as_dicts(m)) == o_rank(m)
        assert Echelon(as_dicts(m)).rank == o_rank(m)


def test_sparse_nullspace_dimension_and_annihilation():
    for r, c, m in sparse_cases(502):
        ns = nullspace_basis(m, ncols=c)
        assert len(ns) == c - o_rank(m)
        for v in ns:
            assert len(v) == c
            assert all(x == 0 for x in mat_vec(m, v))
        assert nullspace_basis(as_dicts(m), ncols=c) == ns


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
        assert all(u.contains(v) and w.contains(v) for v in meet.basis)
        assert u.dim + w.dim == u.sum(w).dim + meet.dim


def test_sparse_solve_inconsistent_exactly_off_column_space():
    rng = random.Random(505)
    for r, c, m in sparse_cases(505):
        x0 = tuple(rng.choice(SPARSE_POOL) for _ in range(c))
        for b in (mat_vec(m, x0) if r else (),
                  tuple(rng.choice(SPARSE_POOL + [F(0)]) for _ in range(r))):
            if o_in_column_space(m, b):
                x = solve(m, b, ncols=c)
                assert len(x) == c and mat_vec(m, x) == b
                assert solve(as_dicts(m), b, ncols=c) == x
            else:
                with pytest.raises(Inconsistent):
                    solve(m, b, ncols=c)


def test_echelon_insert_reports_independence():
    rng = random.Random(506)
    for r, c, m in sparse_cases(506):
        ech = Echelon()
        kept = []
        for row in m:
            new = ech.insert(row)
            assert new == (o_rank(kept + [row]) > o_rank(kept))
            if new:
                kept.append(row)
        assert ech.rank == len(kept)
        assert all(not ech.reduce(row) for row in m)
