import hashlib
import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg.cohomology import (Cochain, SparseMat, TComplex,
                              coboundary_matrix_for, induced_rep, pair_basis,
                              pushforward_cochain, wedge_coords,
                              yamaguti_coboundary)
from lyalg.cli import run
from lyalg import cohomology
from lyalg.errors import DimMismatch, ShapeMismatch, TooLarge
from lyalg.linalg import mat_id
from lyalg.reps import adjoint_rep
from lyalg.rrb import HomPair, descent_algebra

import oracles
from conftest import fx
from oracles import OpOracle, o_rank
from test_reports import forced_operator


def test_sparse_mat_against_dense():
    a = SparseMat(2, 3)
    a.add(0, 0, F(1)); a.add(0, 2, F(2)); a.add(1, 1, F(-1))
    b = SparseMat(3, 2)
    b.add(0, 0, F(3)); b.add(2, 1, F(1)); b.add(1, 0, F(5))
    prod = oracles.o_product(a, b)
    assert prod == {(0, 0): F(3), (0, 1): F(2), (1, 0): F(-5)}
    assert a.apply({0: F(1), 2: F(1)}) == {0: F(3)}
    assert a.apply({1: F(2)}) == {1: F(-2)} and a.apply({}) == {}
    with pytest.raises(ShapeMismatch):
        a.apply({3: F(1)})
    assert a.rank() == o_rank(oracles.o_dense(a)) == 2


def test_sparse_cancellation():
    a = SparseMat(1, 1)
    a.add(0, 0, F(2))
    a.add(0, 0, F(-2))
    assert a.data == {}


def test_wedge_coords():
    prs = pair_basis(3)
    pidx = {p: t for t, p in enumerate(prs)}
    x = (F(1), F(0), F(2))
    y = (F(0), F(1), F(0))
    d = wedge_coords(x, y, pidx)
    # x /\ y = e1/\e2 + 2 e3/\e2 = e1/\e2 - 2 e2/\e3
    assert d == {pidx[(0, 1)]: F(1), pidx[(1, 2)]: F(-2)}
    assert wedge_coords(x, x, pidx) == {}


def test_cochain_flat_roundtrip():
    c = Cochain.zero(2, 3, 2)
    flat = c.as_flat()
    c2 = Cochain.from_flat(2, 3, 2, flat)
    assert c2.f == c.f and c2.g == c.g
    with pytest.raises(ShapeMismatch):
        Cochain(1, 3, 2, [(F(0), F(0))] * 2)


def test_induced_rep_is_representation(p3):
    rep = induced_rep(p3)
    from lyalg.reps import check_representation
    assert check_representation(rep).passed


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
                assert oracles.mv(rep.rho[a], x) == oc.rho(eh[a], x)
                assert oracles.mv(rep.mu[a][b], x) == oc.mu(eh[a], eh[b], x)
                assert oracles.mv(rep.derived_D[a][b], x) == oc.D(eh[a], eh[b], x)
            assert desc.binary[a][b] == oc.br2(eh[a], eh[b])
            for c in range(m):
                assert desc.ternary[a][b][c] == oc.br3(eh[a], eh[b], eh[c])


def test_induced_rep_closed_forms(p3):
    assert_induced_closed_forms(p3)


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
    rep = TComplex(op).rep       # built and checked as a representation
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


def test_composites_vanish(tcomplex):
    assert not oracles.o_product(tcomplex.matrix(1), tcomplex.matrix(0))
    assert not oracles.o_product(tcomplex.matrix(2), tcomplex.matrix(1))
    assert not oracles.o_product(tcomplex.matrix(3), tcomplex.matrix(2))


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


def two_step_operator(rng, v, free, targets):
    """A weight-1 operator over the adjoint action of a two-step nilpotent
    algebra of dim v + free + targets: brackets of the first v basis vectors
    land in the last ``targets``, a bracket with any later vector vanishes, and
    the ternary bracket is antisymmetric in its first two slots with zero
    cyclic sum, so the LY axioms hold and the adjoint action is an action.  T
    maps into the center and kills the targets, hence every bracket, so both
    weight-1 equations hold."""
    dim = v + free + targets
    tgt = range(v + free, dim)
    pool = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3)]

    def value():
        return [rng.choice(pool) if s in tgt else F(0) for s in range(dim)]

    zero = [F(0)] * dim
    binary = [[list(zero) for _ in range(dim)] for _ in range(dim)]
    for i in range(v):
        for j in range(i + 1, v):
            binary[i][j] = value()
            binary[j][i] = [-x for x in binary[i][j]]
    a = {}
    for i in range(v):
        for j in range(i + 1, v):
            for k in range(v):
                a[i, j, k] = value()
                a[j, i, k] = [-x for x in a[i, j, k]]
    ternary = [[[list(zero) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k) in a:
        # 2a(i,j,k) - a(j,k,i) - a(k,i,j): antisymmetric in (i, j), zero cyclic sum
        terms = [(2, a[i, j, k]), (-1, a.get((j, k, i), zero)), (-1, a.get((k, i, j), zero))]
        ternary[i][j][k] = [sum(c * x[s] for c, x in terms) for s in range(dim)]
    A = L.LYAlgebra(dim, binary, ternary)
    T = [[rng.choice(pool) if c >= v and s not in tgt else F(0) for s in range(dim)]
         for c in range(dim)]
    return L.RRBOperator(adjoint_rep(A), T).ensure_verified()


def square_zero_operator(rng, n, m, k):
    """A weight-1 operator from an abelian m-dim carrier into an abelian n-dim
    algebra, with image in the span of the first k basis vectors, over the
    action rho(e_i) = r_i N, mu(e_i, e_j) = c_ij N for a fixed N = v w^T with
    w.v = 0, so every product of two action matrices vanishes.  r_i and c_ij
    vanish for i, j < k, so rho(Tu), mu(Tu, Tv) and D(Tu, Tv) vanish and both
    weight-1 equations hold, while T(mu(e_i, Tu)v), T(mu(Tu, e_i)v) and
    T(rho(e_i)u) need not: every term of the induced representation is live."""
    pool = [F(1), F(-1), F(2), F(1, 2)]
    v = [rng.choice(pool) for _ in range(m - 1)]
    v.append(F(1))
    w = [rng.choice(pool) for _ in range(m - 1)]
    w.append(-sum(a * b for a, b in zip(v, w)))
    N = [[a * b for b in w] for a in v]

    def times_N(*idx):
        c = F(0) if all(i < k for i in idx) else rng.choice(pool + [F(0)])
        return [[c * x for x in row] for row in N]

    rho = [times_N(i) for i in range(n)]
    mu = [[times_N(i, j) for j in range(n)] for i in range(n)]
    r = L.RepAction(L.abelian(n), L.abelian(m), rho, mu)
    T = [[rng.choice(pool) if i < k else F(0) for _ in range(m)] for i in range(n)]
    return L.RRBOperator(r, T).ensure_verified()


@pytest.fixture(scope="module")
def dim5_complex():
    return TComplex(two_step_operator(random.Random(5005), 3, 1, 1))


# SHA-256 of repr((rows, cols, sorted (row, col, str(value)) entries)) of the
# coboundary matrices of p3's complex, of nilpotent4's adjoint action and of
# the complex of a dim-5 operator from ``two_step_operator``
DELTA_SHA256 = {
    ("p3", 1): "5dbeba89d22137dab5bd2e647014ed1c21e06e81639045f044c6f0ff39201f11",
    ("p3", 2): "e9833daffa11672d3ac571a144818ef5a5210724c3b1f57f613da879fe698aea",
    ("p3", 3): "aa3e4f01b8cf9fb10672b7b750e42e0919456bff9f12685707ee414dfe08e401",
    ("p3", 4): "d9507f7edc0294ddbe8ba2a11bcae54ecff88f696072c89765ccd32e4f24d754",
    ("adjoint", 1): "98e43f641d48fdd3bd22ad3e0cf212b14526f44e6ede000f6a834917f83263a6",
    ("adjoint", 2): "a4d1dc11bed32d779970e13dd8a8539f1924d1d893ead908492aada8e5c6789c",
    ("dim5", 2): "605bed8cf51b63c12e7be3496f73eba96ec4c24d7bd9069330ad168574bca53a",
    ("dim5", 3): "2fb5d0d5c97ed0e01a2b5ee3dcf4443d869bf91aa17a66827c3c959871da8d8b",
}


def test_coboundary_entries_pinned(tcomplex, adjoint_action, dim5_complex):
    cases = {"p3": (tcomplex.descent, tcomplex.rep),
             "adjoint": (adjoint_action.acting, adjoint_action),
             "dim5": (dim5_complex.descent, dim5_complex.rep)}
    got = {}
    for name, p in DELTA_SHA256:
        M = coboundary_matrix_for(*cases[name], p)
        entries = sorted((r, c, str(v)) for (r, c), v in M.data.items())
        got[name, p] = hashlib.sha256(repr((M.rows, M.cols, entries)).encode()).hexdigest()
    assert got == DELTA_SHA256


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


def test_degree4_sampled_columns_match_yamaguti_oracle_on_p3(tcomplex, p3):
    cols = sorted(random.Random(4004).sample(range(4320), 48))
    want = assert_columns_match(tcomplex.descent, tcomplex.rep, OpOracle(p3), 4, cols)
    assert len(want) > len(cols) // 2


def test_degrees_below_one_raise(tcomplex):
    for p in (0, -1):
        with pytest.raises(ShapeMismatch):
            coboundary_matrix_for(tcomplex.descent, tcomplex.rep, p)
        with pytest.raises(ShapeMismatch):
            Cochain.zero(p, 4, 4)


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


def test_zero_cochain_map_is_cocycle(tcomplex, nilpotent4):
    x = nilpotent4.e(0)
    y = nilpotent4.e(1)
    c = tcomplex.zero_cochain_map(x, y)
    d = tcomplex.coboundary(c)
    assert d.p == 2 and d.is_zero()


def test_yamaguti_complex_of_adjoint(nilpotent4, adjoint_action):
    # the plain complex over the algebra itself also composes to zero
    m1 = coboundary_matrix_for(nilpotent4, adjoint_action, 1)
    m2 = coboundary_matrix_for(nilpotent4, adjoint_action, 2)
    assert not oracles.o_product(m2, m1)
    c = Cochain(1, 4, 4, [nilpotent4.e(i) for i in range(4)])  # the identity map
    d = yamaguti_coboundary(nilpotent4, adjoint_action, c)
    assert d.p == 2


def test_pushforward_identity(tcomplex, p3):
    pair = HomPair(mat_id(4), mat_id(4))
    c = tcomplex.zero_cochain_map(p3.action.acting.e(0), p3.action.acting.e(1))
    assert pushforward_cochain(pair, c).f == c.f
    c2 = Cochain.from_support(2, 4, 4, tcomplex.matrix(1).apply(
        Cochain(1, 4, 4, [p3.action.acting.e(0)] * 4).support))
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
    return Cochain.from_flat(p, m, n, flat)


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


# square-zero operators whose partial map is nonzero (nnz 12, 24 and 16); on
# p3 and every ``two_step_operator`` it vanishes
NONZERO_PARTIAL_SEEDS = (401, 402, 7)


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
    vecs = [g.e(i) for i in range(4)] + [tuple(rng.choice([F(0), F(1), F(-2), F(1, 3)])
                                               for _ in range(4)) for _ in range(3)]
    live = 0
    for x in vecs:
        for y in vecs:
            c = cohomology.zero_cochain_map(op, x, y)
            want = tuple(oc.partial(x, y, h.e(a)) for a in range(3))
            assert c.f == want
            live += any(map(any, want))
    assert live
