import hashlib
import os
import random
from fractions import Fraction as F

import pytest

from lyalg.cohomology import (Cochain, SparseMat, TComplex,
                              coboundary_matrix_for, induced_rep, pair_basis,
                              pushforward_cochain, wedge_coords,
                              yamaguti_coboundary, zero_cochain_map)
from lyalg.cli import run
from lyalg import cohomology, io as lyio
from lyalg.errors import DimMismatch, Inconsistent, ShapeMismatch, TooLarge
from lyalg.core import check_ly_axioms
from lyalg.reps import check_representation
from lyalg.rrb import HomPair, descent_algebra

import oracles
from conftest import fx
from families import (CONSTRUCTION_CORPUS, NONZERO_PARTIAL_SEEDS, basis_vector, forced_operator,
                      live_post_operator, square_zero_operator, two_step_operator, unverified)
from oracles import OpOracle, mid, nested, o_rank


def test_sparse_mat_against_dense():
    a = SparseMat(2, 3, {(0, 0): F(1), (0, 2): F(2), (1, 1): F(-1)})
    b = SparseMat(3, 2, {(0, 0): F(3), (2, 1): F(1), (1, 0): F(5)})
    prod = oracles.o_product(a, b)
    assert prod == {(0, 0): F(3), (0, 1): F(2), (1, 0): F(-5)}
    assert a.apply({0: F(1), 2: F(1)}) == {0: F(3)}
    assert a.apply({1: F(2)}) == {1: F(-2)} and a.apply({}) == {}
    with pytest.raises(ShapeMismatch):
        a.apply({3: F(1)})
    assert a.rank() == o_rank(oracles.o_dense(a)) == 2


def seeded_sparse_mats(seed):
    """Seeded sparse matrices, tall, wide, square and empty, with int and
    non-integral entries; from three columns on, column 1 is zero and the
    last one a combination of columns 0 and 2, so the rank drops."""
    rng = random.Random(seed)
    pool = [1, -1, 2, F(1, 3), F(-5, 2)]
    for rows, cols in ((0, 0), (0, 3), (3, 0), (8, 3), (3, 8), (5, 5), (9, 4), (4, 9), (6, 6)):
        for density in (0.2, 0.5, 0.9):
            columns = [{r: rng.choice(pool) for r in range(rows) if rng.random() < density}
                       for _ in range(cols)]
            if cols >= 3:
                columns[1] = {}
                mix = {r: 2 * columns[0].get(r, 0) - columns[2].get(r, 0)
                       for r in set(columns[0]) | set(columns[2])}
                columns[-1] = {r: q for r, q in mix.items() if q}
            yield SparseMat.from_columns(rows, columns)


def assert_sparse_mat_matches_oracle(m, rng):
    dense = oracles.o_dense(m)
    rank = o_rank(dense)
    assert m.rank() == rank and m.nullity() == m.cols - rank
    assert m.column_echelon().width is None         # a rank alone takes no tags
    kernel = m.nullspace()
    assert [tuple(v.get(c, 0) for c in range(m.cols)) for v in kernel] == \
        oracles.o_nullspace(dense, m.cols)
    assert all(type(q) is F for v in kernel for q in v.values())
    assert m.rank() == rank and m.column_echelon().width == m.rows // m.copies
    pivots = oracles.o_rref(dense)[1]
    x0 = {c: rng.choice([F(1), F(-2), F(3, 4)]) for c in range(m.cols) if rng.random() < 0.5}
    for b in (m.apply(x0), {r: F(rng.randint(-2, 2), 3) for r in range(m.rows)}):
        b = {r: q for r, q in b.items() if q}
        want = tuple(b.get(r, 0) for r in range(m.rows))
        if oracles.o_in_column_space(dense, want):
            x = m.solve(b)
            assert len(x) == m.cols and oracles.mv(dense, x) == want
            assert all(x[c] == 0 for c in range(m.cols) if c not in pivots)
        else:
            with pytest.raises(Inconsistent) as err:
                m.solve(b)
            assert (err.value.rank, err.value.rank_augmented) == \
                (rank, o_rank([row + (q,) for row, q in zip(dense, want)]))


def test_sparse_mat_rank_kernel_and_solve_match_oracle():
    rng = random.Random(1801)
    for m in seeded_sparse_mats(1801):
        assert_sparse_mat_matches_oracle(m, rng)
        if m.rows and m.cols:
            # a matrix with two entries moved, built afresh, answers for its own entries
            data = dict(m.data)
            for rc, q in (((rng.randrange(m.rows), rng.randrange(m.cols)), F(7, 2)),
                          ((rng.randrange(m.rows), 0), 1)):
                data[rc] = data.get(rc, 0) + q
            assert_sparse_mat_matches_oracle(SparseMat(m.rows, m.cols, data), rng)


def test_factored_sparse_mats_match_oracle():
    # S (x) I_k for seeded S: rank, kernel (values and order) and solve of the
    # whole matrix, against the dense oracle of its entries
    rng = random.Random(1802)
    for k in (2, 3):
        for s in seeded_sparse_mats(1802 + k):
            m = SparseMat.from_columns(s.rows, s.factor, k)
            assert (m.rows, m.cols, m.copies) == (k * s.rows, k * s.cols, k)
            assert_sparse_mat_matches_oracle(m, rng)


def assert_factored_kernel_matches_oracle(M, copies):
    """The rank and kernel of a coboundary stored as S (x) I_copies against
    the oracle's canonical kernel of its whole matrix, values and order."""
    assert M.copies == copies > 1 and len(M.factor) * copies == M.cols
    dense = [row for row in oracles.o_dense(M) if any(row)]
    want = oracles.o_nullspace(dense, M.cols)
    assert [tuple(v.get(c, 0) for c in range(M.cols)) for v in M.nullspace()] == want
    assert M.rank() == M.cols - len(want) and M.nullity() == len(want)
    return want


@pytest.mark.parametrize("p", [1, 2, 3])
def test_factored_kernels_match_oracle_on_p3(tcomplex, p):
    assert assert_factored_kernel_matches_oracle(tcomplex.matrix(p), 4)


@pytest.mark.parametrize("p", [1, 2])
def test_factored_kernels_match_oracle_on_a_two_step_operator(p):
    # rho_T, mu_T and D_T vanish: T maps into the center and kills every bracket
    cx = TComplex(two_step_operator(random.Random(5009), 2, 2, 1))
    assert not (cx.rep.rho.support or cx.rep.mu.support or cx.rep.derived_D.support)
    assert assert_factored_kernel_matches_oracle(cx.matrix(p), 5)


def test_factored_solve_matches_oracle(tcomplex):
    M = coboundary_matrix_for(tcomplex.descent, tcomplex.rep, 1)
    assert M.copies == 4
    dense = oracles.o_dense(M)
    rank, pivots = o_rank(dense), oracles.o_rref(dense)[1]
    rng = random.Random(1803)
    b = M.apply({c: rng.choice([F(1), F(-2), F(3, 4)]) for c in range(M.cols)})
    want = tuple(b.get(r, 0) for r in range(M.rows))
    x = M.solve(b)
    assert oracles.mv(dense, x) == want
    assert any(x) and all(x[c] == 0 for c in range(M.cols) if c not in pivots)
    # the same b with one more entry, in the rows of one copy only
    r = next(r for r in range(1, M.rows, 4) if not oracles.o_in_column_space(
        dense, want[:r] + (want[r] + 1,) + want[r + 1:]))
    b[r] = b.get(r, 0) + 1
    with pytest.raises(Inconsistent) as err:
        M.solve(b)
    augmented = [row + (b.get(i, 0),) for i, row in enumerate(dense)]
    assert (err.value.rank, err.value.rank_augmented) == (rank, o_rank(augmented)) == \
        (4 * M.column_echelon().rank, rank + 1)


def test_solve_refuses_a_right_hand_side_outside_the_rows(p3):
    d = cohomology.partial_matrix(p3)
    assert (d.rows, d.cols) == (16, 6)
    for b in ({21: 1}, {-1: 1}, {16: F(1)}, {0: F(0), 16: F(1)}):
        with pytest.raises(ShapeMismatch):
            d.solve(b)
    with pytest.raises(ShapeMismatch):
        TComplex(p3).matrix(1).solve({10 ** 6: 1})
    assert d.solve({}) == (F(0),) * 6


def test_sparse_cancellation():
    # an entry that is zero, however it is given, is not stored
    a = SparseMat(2, 2, {(0, 0): F(2) - F(2), (1, 0): 0, (1, 1): F(-2)})
    assert a.data == {(1, 1): F(-2)} and a.columns == [{}, {1: F(-2)}]


def test_wedge_coords():
    prs = pair_basis(3)
    pidx = {p: t for t, p in enumerate(prs)}
    x = (F(1), F(0), F(2))
    y = (F(0), F(1), F(0))
    d = wedge_coords(x, y, 3)
    # x /\ y = e1/\e2 + 2 e3/\e2 = e1/\e2 - 2 e2/\e3
    assert d == {pidx[(0, 1)]: F(1), pidx[(1, 2)]: F(-2)}
    assert wedge_coords(x, x, 3) == {}
    assert wedge_coords(["1", 0, "2"], [0, 1, 0], 3) == d
    for bad in (x[:2], {0: 1}, "102", 5):
        with pytest.raises(DimMismatch, match="^vectors must have length 3$"):
            wedge_coords(bad, y, 3)


def test_cochain_flat_roundtrip():
    c = Cochain.from_support(2, 3, 2, {})
    c2 = Cochain(2, 3, 2, c.f, c.g)
    assert c2.f == c.f and c2.g == c.g
    with pytest.raises(ShapeMismatch):
        Cochain(1, 3, 2, [(F(0), F(0))] * 2)


def test_cochain_vectors_are_lists_or_tuples():
    """A string or a dict is no value vector, and a string no list of them."""
    for args in [(1, 2, 2, ["12", (3, 4)]), (1, 2, 2, [(1, 2), {0: 3, 1: 4}]),
                 (1, 2, 1, "12"), (2, 2, 1, [(0,)], "12"), (2, 2, 1, "1", [(0,), (1,)]),
                 (2, 2, 2, [(0, 0)], [(0, 0), {0: 1, 1: 2}])]:
        with pytest.raises(ShapeMismatch):
            Cochain(*args)


def test_induced_rep_is_representation(p3):
    for op in (p3, live_post_operator()):
        assert check_representation(induced_rep(op)).passed


def assert_induced_closed_forms(op):
    """rho_T, mu_T and D_T, and the descent brackets, against the oracle's
    closed forms at every basis tuple."""
    rep = induced_rep(op)
    desc = descent_algebra(op)
    oc = OpOracle(op)
    n, m = rep.carrier.dim, rep.acting.dim
    eh = [tuple(F(int(s == a)) for s in range(m)) for a in range(m)]
    eg = [tuple(F(int(s == i)) for s in range(n)) for i in range(n)]
    for a in range(m):
        for b in range(m):
            for i in range(n):
                x = eg[i]
                assert oracles.mv(nested(rep.rho)[a], x) == oc.rho(eh[a], x)
                assert oracles.mv(nested(rep.mu)[a][b], x) == oc.mu(eh[a], eh[b], x)
                assert oracles.mv(nested(rep.derived_D)[a][b], x) == oc.D(eh[a], eh[b], x)
            assert nested(desc.binary)[a][b] == oc.br2(eh[a], eh[b])
            for c in range(m):
                assert nested(desc.ternary)[a][b][c] == oc.br3(eh[a], eh[b], eh[c])


def test_induced_rep_closed_forms(p3):
    assert_induced_closed_forms(p3)


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_CORPUS))
def test_structures_built_unchecked_pass_their_checks(name):
    """The descent algebra, the induced representation and the semidirect
    algebra of the action are built with no check; on every operator of the
    corpus each passes the check it skips, and the induced pair's derived D
    is the oracle's closed form D_T."""
    op = CONSTRUCTION_CORPUS[name]()
    assert check_ly_axioms(unverified(descent_algebra(op))).passed
    assert check_representation(induced_rep(op)).passed
    assert check_ly_axioms(unverified(op.action.semidirect())).passed
    assert_induced_closed_forms(op)


@pytest.mark.parametrize("seed,shape", [(5005, (3, 1, 1)), (5006, (3, 1, 1)), (5007, (2, 2, 1)),
                                        (5008, (2, 1, 2))])
def test_induced_rep_and_descent_closed_forms_at_dim5(seed, shape):
    assert_induced_closed_forms(two_step_operator(random.Random(seed), *shape))


@pytest.mark.parametrize("seed,n,m,k", [(5101, 3, 3, 1), (5102, 4, 3, 2), (5103, 3, 4, 1)])
def test_induced_rep_closed_forms_over_square_zero_action(seed, n, m, k):
    # T's image is not central here, so the mu and rho terms pushed through T
    # do not vanish, as they do for every operator over an adjoint action above
    op = square_zero_operator(random.Random(seed), n, m, k)
    assert_induced_closed_forms(op)
    rep = TComplex(op).rep
    assert rep.rho.support and rep.mu.support and rep.derived_D.support


def test_partial_matrix_matches_oracle(tcomplex, oracle_matrices):
    assert oracles.o_dense(tcomplex.matrix(0)) == tuple(
        tuple(r) for r in oracle_matrices[0])


def test_delta1_matrix_matches_oracle(tcomplex, oracle_matrices):
    assert oracles.o_dense(tcomplex.matrix(1)) == tuple(
        tuple(r) for r in oracle_matrices[1])


def test_delta2_matrix_matches_oracle(tcomplex, oracle_matrices):
    assert oracles.o_dense(tcomplex.matrix(2)) == tuple(
        tuple(r) for r in oracle_matrices[2])


# (the operator, the top degree p of delta^p o delta^(p-1) to check)
COMPOSITE_FAMILIES = {
    "p3": (lambda: lyio.load_operator(fx("p3_on_nilpotent4.json")), 3),
    "square_zero_5102": (lambda: lyio.load_operator(fx("square_zero_5102.json")), 4),
    "square_zero_5107": (lambda: square_zero_operator(random.Random(5107), 4, 3, 2), 4),
    "live_post": (live_post_operator, 4),
    # rho, mu and D vanish, so every matrix is stored as S_p (x) I_n; its
    # delta^4 is over MAX_COBOUNDARY_ROWS
    "two_step_5009": (lambda: two_step_operator(random.Random(5009), 2, 2, 1), 3),
}


@pytest.mark.parametrize("name", sorted(COMPOSITE_FAMILIES))
def test_composites_vanish(name):
    """delta o delta = 0 from delta^1 o partial up to the family's top degree,
    each product taken by the oracle from the matrices' entries; partial and
    delta^1 read T through ``partial_matrix`` and ``induced_rep``."""
    make, top = COMPOSITE_FAMILIES[name]
    cx = TComplex(make())
    assert (cx.matrix(1).copies > 1) == (name in ("p3", "two_step_5009"))
    for p in range(1, top + 1):
        assert any(cx.matrix(p).factor), (name, p)
        assert not oracles.o_product(cx.matrix(p), cx.matrix(p - 1)), (name, p)


def test_budget_admits_the_measured_sizes():
    # p3 at degree 4, and a 5-dim operator over a 5-dim algebra at degree 3
    assert cohomology._Layout(5, 4, 4).total == 25920
    assert cohomology._Layout(4, 5, 5).total == 30000
    assert 30000 <= cohomology.MAX_COBOUNDARY_ROWS < cohomology._Layout(6, 4, 4).total


def test_coboundary_over_budget_raises_before_building(tcomplex, monkeypatch, capsys):
    def no_matrix(*args):
        raise AssertionError("a matrix was allocated")
    monkeypatch.setattr(cohomology, "SparseMat", no_matrix)
    for p in (5, 12):
        with pytest.raises(TooLarge):
            coboundary_matrix_for(tcomplex.descent, tcomplex.rep, p)
    with pytest.raises(TooLarge):
        tcomplex.cohomology_dims(12)
    assert run(["cohomology", "--op", fx("p3_on_nilpotent4.json"), "--degree", "12"]) == 2
    assert "over the budget of 100000" in capsys.readouterr().err


def test_matrix_shapes(tcomplex):
    shapes = [(tcomplex.matrix(p).rows, tcomplex.matrix(p).cols) for p in range(4)]
    assert shapes == [(16, 6), (120, 16), (720, 120), (4320, 720)]


def test_cohomology_dims(tcomplex):
    assert tcomplex.cohomology_dims(1) == (12, 0, 12)
    assert tcomplex.cohomology_dims(2) == (68, 4, 64)


def test_cohomology_dims_degree3(tcomplex):
    assert tcomplex.cohomology_dims(3) == (308, 52, 256)
    m3 = tcomplex.matrix(3)
    assert m3.cols - o_rank(m3.nonzero_rows()) == 308
    assert o_rank(tcomplex.matrix(2).nonzero_rows()) == 52


def test_cohomology_dims_degree4(tcomplex):
    assert tcomplex.cohomology_dims(4) == (1436, 412, 1024)


# SHA-256 of `lyalg cohomology --op fixtures/p3_on_nilpotent4.json --degree N
# --witness --json` stdout, recorded with the dense elimination that the
# sparse routine replaced; the witnesses are canonical, so they must not move
WITNESS_SHA256 = {
    1: "44a916e274f4cf159dc7aad242080e34b4d4d6dd4c9bbb798017c604b12210ba",
    2: "90b5c1f376c05e1b141938fd728da13c741fd58d32db4968d58afa8528177a07",
    3: "a1382b6b8a2a0edda8a9ba7b4ef4c8b3b50ed56ddbcfc2169510462d838b3309",
    4: "e3d048317a7a0a80f263d5fdf2fb6fb9e8f05e919680941e2ec377c40638f419",
}


@pytest.mark.parametrize("degree", sorted(WITNESS_SHA256))
def test_cli_witness_bytes_pinned(degree, capsys):
    assert run(["cohomology", "--op", fx("p3_on_nilpotent4.json"),
                "--degree", str(degree), "--witness", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == WITNESS_SHA256[degree]


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def test_cli_witness_bytes_pinned_on_the_benchmark_operator(tmp_path, monkeypatch, capsys):
    # the fixed dim-5 operator of the benchmark's cohomology workload, written
    # out as it is there, at degree 3: 9,423,113 bytes of witnesses
    monkeypatch.syspath_prepend(PERFBENCH)
    import gen
    import workloads
    op = gen.write_operator(str(tmp_path), "c5", *workloads.cohomology_base())
    assert run(["cohomology", "--op", op, "--degree", "3", "--witness", "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        9423113, "d9a783cae0e906c1651b5fb4069ccfaccc899115324e7531049b0096e689b82d")


@pytest.fixture(scope="module")
def dim5_complex():
    return TComplex(two_step_operator(random.Random(5005), 3, 1, 1))


def test_cohomology_dims_dim5(dim5_complex):
    # recorded with the Fraction elimination; the largest ranks in the suite
    assert [dim5_complex.cohomology_dims(p) for p in (1, 2, 3)] == \
        [(20, 0, 20), (150, 5, 145), (935, 150, 785)]


# SHA-256 of repr((rows, cols, sorted (row, col, str(value)) entries)) of the
# coboundary matrices of p3's complex, of nilpotent4's adjoint action, of
# the complex of a dim-5 operator from ``two_step_operator`` and of
# ``square_zero_operator(Random(5102), 4, 3, 2)``
DELTA_SHA256 = {
    ("p3", 1): "5dbeba89d22137dab5bd2e647014ed1c21e06e81639045f044c6f0ff39201f11",
    ("p3", 2): "e9833daffa11672d3ac571a144818ef5a5210724c3b1f57f613da879fe698aea",
    ("p3", 3): "aa3e4f01b8cf9fb10672b7b750e42e0919456bff9f12685707ee414dfe08e401",
    ("p3", 4): "d9507f7edc0294ddbe8ba2a11bcae54ecff88f696072c89765ccd32e4f24d754",
    ("adjoint", 1): "98e43f641d48fdd3bd22ad3e0cf212b14526f44e6ede000f6a834917f83263a6",
    ("adjoint", 2): "a4d1dc11bed32d779970e13dd8a8539f1924d1d893ead908492aada8e5c6789c",
    ("dim5", 2): "605bed8cf51b63c12e7be3496f73eba96ec4c24d7bd9069330ad168574bca53a",
    ("dim5", 3): "2fb5d0d5c97ed0e01a2b5ee3dcf4443d869bf91aa17a66827c3c959871da8d8b",
    ("square_zero", 1): "2d447fc6937dec0f9b74a13a118cdb575f242a62770a7703dd9fd40b918d7edd",
    ("square_zero", 2): "dceccf4acbd58d09c9815245e1c51ddf27738d7aaba230c0ac3f53a445c4605c",
    ("square_zero", 3): "50ff08c883415cdcbf6c067d623097e6fc2b3f8b5ea8c93c3e9595b361662f75",
    ("square_zero", 4): "48d6ed6c4ed7dea9eb2c695ba226520efcb8d50e1a2333ff96b84eb936972d85",
}


@pytest.fixture(scope="module")
def square_zero_complex():
    # every term of the induced representation is live, and most entries of
    # its coboundaries are not integers (1/2 is in the pool)
    return TComplex(square_zero_operator(random.Random(5102), 4, 3, 2))


def test_cohomology_dims_square_zero(square_zero_complex):
    assert [square_zero_complex.cohomology_dims(p) for p in (1, 2, 3)] == \
        [(6, 1, 5), (24, 6, 18), (81, 24, 57)]


def test_cohomology_dims_square_zero_degree4(square_zero_complex):
    # oracles.o_rank gives delta^4 (1,296 x 432) rank 201 = 432 - 231, but
    # takes 30-50 s, so that confirmation is not repeated here
    assert square_zero_complex.cohomology_dims(4) == (231, 63, 168)


def delta_sha256(M):
    entries = sorted((r, c, str(v)) for (r, c), v in M.data.items())
    return hashlib.sha256(repr((M.rows, M.cols, entries)).encode()).hexdigest()


def test_coboundary_entries_pinned(tcomplex, adjoint_action, dim5_complex, square_zero_complex):
    cases = {"p3": (tcomplex.descent, tcomplex.rep),
             "adjoint": (adjoint_action.acting, adjoint_action),
             "dim5": (dim5_complex.descent, dim5_complex.rep),
             "square_zero": (square_zero_complex.descent, square_zero_complex.rep)}
    got = {(name, p): delta_sha256(coboundary_matrix_for(*cases[name], p))
           for name, p in DELTA_SHA256}
    assert got == DELTA_SHA256


def test_square_zero_fixture_is_the_pinned_operator():
    """fixtures/square_zero_5102.json is the square-zero operator of the pins,
    written out with inline abelian algebras and "p/q" entries."""
    op = lyio.load_operator(fx("square_zero_5102.json"))
    want = square_zero_operator(random.Random(5102), 4, 3, 2)
    assert (op.T.dense(), op.action.rho, op.action.mu) \
        == (want.T.dense(), want.action.rho, want.action.mu)
    cx = TComplex(op)
    for p in (1, 2, 3, 4):
        assert delta_sha256(coboundary_matrix_for(cx.descent, cx.rep, p)) == \
            DELTA_SHA256["square_zero", p]


def test_cohomology_dims_of_the_live_post_operator():
    # rho_T, mu_T and D_T are all live; the dims agree with dense oracle ranks
    cx = TComplex(live_post_operator())
    dims = [cx.cohomology_dims(p) for p in (1, 2, 3)]
    assert dims == [(4, 1, 3), (15, 5, 10), (41, 21, 20)]
    cols = [cx.matrix(p).cols for p in range(4)]
    rank = [o_rank(oracles.o_dense(cx.matrix(p))) for p in range(4)]
    assert dims == [(cols[p] - rank[p], rank[p - 1], cols[p] - rank[p] - rank[p - 1])
                    for p in (1, 2, 3)]


def assert_columns_match(alg, rep, oc, p, cols=None):
    M = coboundary_matrix_for(alg, rep, p)
    got = oracles.o_columns(M)
    want = oracles.o_delta_columns(oc, p, cols)
    if cols is not None:
        got = {c: got[c] for c in cols if c in got}
    assert got == want
    return want


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coboundary_columns_match_yamaguti_oracle_on_p3(tcomplex, p3, p):
    want = assert_columns_match(tcomplex.descent, tcomplex.rep, OpOracle(p3), p)
    assert want


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coboundary_columns_match_yamaguti_oracle_on_random_dim3(p):
    # the random brackets, rho and mu of a seeded operator's action: every
    # structure tensor of the formula is dense, and no axiom holds
    r = forced_operator(random.Random(3003), 3, 3).action
    assert_columns_match(r.acting, r, oracles.RepOracle(r.acting, r), p)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coboundary_columns_match_yamaguti_oracle_on_adjoint(nilpotent4, adjoint_action, p):
    # integral constants, with rho, mu and D all live
    want = assert_columns_match(nilpotent4, adjoint_action,
                                oracles.RepOracle(nilpotent4, adjoint_action), p)
    assert want


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coboundary_columns_match_yamaguti_oracle_on_square_zero(square_zero_complex, p):
    # rational constants, every term of the induced representation live
    cx = square_zero_complex
    want = assert_columns_match(cx.descent, cx.rep, OpOracle(cx.op), p)
    assert want


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_CORPUS))
def test_coboundary_columns_match_yamaguti_oracle_on_the_corpus(name):
    # every column of delta^1 and delta^2 and 48 seeded columns of delta^3
    # (all of them on sl2's 2-dim carrier), factored or live, against the
    # oracle's evaluation of the formula
    op = CONSTRUCTION_CORPUS[name]()
    cx, oc = TComplex(op), OpOracle(op)
    for p in (1, 2):
        assert_columns_match(cx.descent, cx.rep, oc, p)
    total = cohomology._Layout(3, cx.m, cx.n).total
    cols = sorted(random.Random(4201).sample(range(total), min(total, 48)))
    assert assert_columns_match(cx.descent, cx.rep, oc, 3, cols)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sparse_coboundary_builds_no_matrix(p3, tcomplex, monkeypatch, p):
    # delta of single-coordinate cochains, through TComplex.coboundary and
    # yamaguti_coboundary, reads the columns in the support alone
    def no_matrix(*args):
        raise AssertionError("a coboundary matrix was built")
    monkeypatch.setattr(cohomology, "coboundary_matrix_for", no_matrix)
    cx = TComplex(p3)
    total = cohomology._Layout(p, 4, 4).total
    cols = range(total) if total <= 120 else sorted(random.Random(4100 + p).sample(range(total), 40))
    want = oracles.o_delta_columns(OpOracle(p3), p, cols)
    for j in cols:
        c = Cochain.from_support(p, 4, 4, {j: F(1)})
        got = cx.coboundary(c)
        assert got.p == p + 1 and got.support == want.get(j, {}), j
        assert yamaguti_coboundary(tcomplex.descent, tcomplex.rep, c).support == got.support
    assert want


@pytest.mark.parametrize("name,copies", [("p3", 4), ("square-zero-5102-file", 1),
                                         ("live-post", 1)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_coboundary_of_a_cochain_matches_its_matrix(name, copies, p):
    # seeded cochains over many blocks, delta read from their support and
    # the matrix applied to it, on a factored complex and two live ones
    cx = TComplex(CONSTRUCTION_CORPUS[name]())
    assert cx.delta().copies == copies
    rng = random.Random(4300 + p)
    for density in (0.3, 1):
        c = random_cochain(rng, p, cx.m, cx.n, density)
        assert len({k // cx.n for k in c.support}) > 1
        got = cx.coboundary(c)
        assert got.p == p + 1 and got.support == cx.matrix(p).apply(c.support)


def test_degree4_sampled_columns_match_yamaguti_oracle_on_p3(tcomplex, p3):
    cols = sorted(random.Random(4004).sample(range(4320), 48))
    want = assert_columns_match(tcomplex.descent, tcomplex.rep, OpOracle(p3), 4, cols)
    assert len(want) > len(cols) // 2


def test_degrees_below_one_raise(tcomplex):
    for p in (0, -1):
        with pytest.raises(ShapeMismatch):
            coboundary_matrix_for(tcomplex.descent, tcomplex.rep, p)
        with pytest.raises(ShapeMismatch):
            Cochain.from_support(p, 4, 4, {})


def test_witnesses_complement_coboundaries(tcomplex):
    # the witnesses of H^2 are cocycles, and together with the coboundaries
    # they span Z^2 without redundancy (dense oracle ranks)
    cochains = tcomplex.cohomology_witnesses(2)
    for w in cochains:
        assert not tcomplex.matrix(2).apply(w.support)
    ws = [w.as_flat() for w in cochains]
    m1 = oracles.o_dense(tcomplex.matrix(1))
    bcols = [tuple(row[j] for row in m1) for j in range(len(m1[0]))]
    assert o_rank(bcols + ws) == o_rank(bcols) + len(ws) == 68


def test_cohomology_witnesses(tcomplex):
    ws = tcomplex.cohomology_witnesses(1)
    assert len(ws) == 12
    for w in ws:
        assert w.support and not tcomplex.matrix(1).apply(w.support)


def test_witnesses_taken_degree_after_degree_match_fresh_complexes(p3):
    # on one complex, H^2's witnesses are seeded by the echelon of delta^1
    # that H^1's kernel built with tags, and so on up: the tagged seed must
    # keep reading its tags as tags.  The echelon is that of the factor S of
    # delta^(p-1) = S (x) I_4, whose rows are the seed's over its copies
    cx = TComplex(p3)
    for p, count in ((1, 12), (2, 64), (3, 256)):
        got = [w.support for w in cx.cohomology_witnesses(p)]
        seed = cx.matrix(p - 1)
        assert seed.copies == (1 if p == 1 else 4)
        assert seed.column_echelon().width == (None if p == 1 else seed.rows // 4)
        assert len(got) == count
        assert got == [w.support for w in TComplex(p3).cohomology_witnesses(p)]


def test_zero_cochain_map_is_cocycle(tcomplex):
    x = basis_vector(4, 0)
    y = basis_vector(4, 1)
    c = zero_cochain_map(tcomplex.op, x, y)
    d = tcomplex.coboundary(c)
    assert d.p == 2 and d.is_zero()


def test_yamaguti_complex_of_adjoint(nilpotent4, adjoint_action):
    # the plain complex over the algebra itself also composes to zero
    m1 = coboundary_matrix_for(nilpotent4, adjoint_action, 1)
    m2 = coboundary_matrix_for(nilpotent4, adjoint_action, 2)
    assert not oracles.o_product(m2, m1)
    c = Cochain(1, 4, 4, [basis_vector(4, i) for i in range(4)])  # the identity map
    d = yamaguti_coboundary(nilpotent4, adjoint_action, c)
    assert d.p == 2


def test_pushforward_identity(tcomplex, p3):
    pair = HomPair(mid(4), mid(4))
    c = zero_cochain_map(p3, basis_vector(4, 0), basis_vector(4, 1))
    assert pushforward_cochain(pair, c).f == c.f
    c2 = Cochain.from_support(2, 4, 4, tcomplex.matrix(1).apply(
        Cochain(1, 4, 4, [basis_vector(4, 0)] * 4).support))
    p = pushforward_cochain(pair, c2)
    assert p.f == c2.f and p.g == c2.g


def random_invertible(rng, k):
    pool = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3)]
    while True:
        M = [[rng.choice(pool) for _ in range(k)] for _ in range(k)]
        if o_rank(M) == k:
            return M


def random_cochain(rng, p, m, n, density=0.3):
    """A seeded cochain with about ``density`` of its coordinates nonzero."""
    pool = [F(1), F(-1), F(2), F(1, 3), F(-5, 2)]
    total = cohomology._Layout(p, m, n).total
    flat = [rng.choice(pool) if rng.random() < density else F(0) for _ in range(total)]
    return Cochain.from_support(p, m, n, dict(enumerate(flat)))


@pytest.mark.parametrize("seed,p,m,n", [(6101, 1, 3, 2), (6102, 1, 2, 4), (6103, 2, 3, 2),
                                        (6104, 2, 4, 3), (6105, 3, 3, 2), (6106, 3, 4, 3),
                                        (6107, 2, 4, 4), (6108, 3, 3, 3)])
def test_pushforward_matches_transport_oracle(seed, p, m, n):
    # general invertible (psi_g, psi_h), so transposing psi_h^-1 or psi_g
    # anywhere changes the result
    rng = random.Random(seed)
    c = random_cochain(rng, p, m, n)
    pg, ph = random_invertible(rng, n), random_invertible(rng, m)
    got = pushforward_cochain(HomPair(pg, ph), c)
    assert (got.p, got.m, got.n) == (p, m, n)
    want = oracles.o_pushforward(p, m, n, c.as_flat(), pg, ph)
    assert got.as_flat() == want
    assert any(want)


@pytest.mark.parametrize("p", [1, 2])
def test_pushforward_rejects_maps_of_the_wrong_size(p):
    # a degree-p cochain on a 4-dim carrier with values in a 3-dim algebra
    rng = random.Random(6110 + p)
    c = random_cochain(rng, p, 4, 3)
    pg, ph = random_invertible(rng, 3), random_invertible(rng, 4)
    for bad in (HomPair(random_invertible(rng, 4), ph), HomPair(random_invertible(rng, 2), ph),
                HomPair(pg, random_invertible(rng, 5)), HomPair(pg, random_invertible(rng, 3))):
        with pytest.raises(DimMismatch):
            pushforward_cochain(bad, c)


@pytest.fixture(scope="module", params=NONZERO_PARTIAL_SEEDS)
def nonzero_partial_operator(request):
    return square_zero_operator(random.Random(request.param), 4, 3, 2)


def test_partial_matrix_matches_oracle_where_nonzero(nonzero_partial_operator):
    op = nonzero_partial_operator
    P = TComplex(op).matrix(0)
    assert P.data
    assert oracles.o_dense(P) == tuple(tuple(r) for r in oracles.partial_matrix(OpOracle(op)))


@pytest.mark.parametrize("seed,n,m", [(6130, 3, 2), (6131, 2, 3), (6132, 4, 4)])
def test_partial_matrix_matches_oracle_on_dense_random_data(seed, n, m):
    # random brackets, rho, mu and T with no axiom imposed: both terms of
    # partial(x /\ y)(u) = T(D(x,y)u) - <x,y,Tu> are live, where the
    # square-zero operators have an abelian acting algebra
    op = forced_operator(random.Random(seed), n, m)
    want = tuple(tuple(r) for r in oracles.partial_matrix(OpOracle(op)))
    assert oracles.o_dense(cohomology.partial_matrix(op)) == want
    assert 2 * sum(map(any, want)) >= m * n


def test_zero_cochain_map_matches_oracle_where_nonzero(nonzero_partial_operator):
    op = nonzero_partial_operator
    oc = OpOracle(op)
    rng = random.Random(6120)
    g, h = op.action.acting, op.action.carrier
    vecs = [basis_vector(g.dim, i) for i in range(4)] + [
        tuple(rng.choice([F(0), F(1), F(-2), F(1, 3)]) for _ in range(4)) for _ in range(3)]
    live = 0
    for x in vecs:
        for y in vecs:
            c = zero_cochain_map(op, x, y)
            want = tuple(oc.partial(x, y, basis_vector(h.dim, a)) for a in range(3))
            assert c.f == want
            live += any(map(any, want))
    assert live
