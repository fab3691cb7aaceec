import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg.cli import run
from lyalg.deformation import (OrderNDeformation, binary_coefficient,
                               check_equivalence, check_linear_deformation,
                               check_order_n, difference_class, extend,
                               obstruction_class, ternary_coefficient)
from lyalg.errors import InvalidDeformation
from lyalg.linalg import dense as to_dense, mat, mat_add, mat_id, mat_zero
from lyalg.rrb import coefficients

import oracles
from conftest import family_matrix, fx, random_matrix
from test_reports import dense, heisenberg5_operator


def test_zero_terms_pass(p3):
    d = OrderNDeformation(p3, [mat_zero(4, 4)])
    assert check_order_n(d).passed
    ob = obstruction_class(d)
    assert ob.as_cochain.is_zero() and ob.closed
    t2, rep = extend(d)
    assert rep.passed and t2 == mat_zero(4, 4)


def test_order_zero_reduces_to_base(p3):
    d = OrderNDeformation(p3, [])
    assert d.order == 0
    assert check_order_n(d).passed


def test_coefficients_match_polynomial_oracle(p3, rng):
    """Every t^s table entry, s = 0 included, on every basis pair and triple,
    and the public coefficients at random vectors, against the dense
    polynomial expansion; the inputs include dense terms and a dense base
    map, so the coefficients do not vanish."""
    h5 = heisenberg5_operator(random.Random(5163))
    cases = [(p3.action, [p3.T, mat(random_matrix(rng, 4, 4)), mat(random_matrix(rng, 4, 4))]),
             (p3.action, [mat(dense(rng, 4, 4))]),
             (h5.action, [h5.T, mat(dense(rng, 5, 5))])]
    nonzero = set()
    for r, Ts in cases:
        h, n = r.carrier, r.acting.dim
        top = 3 * (len(Ts) - 1)        # no coefficient survives above this degree
        tables = coefficients(r, Ts, range(top + 2))
        assert tables[top + 1] == ({}, {})
        basis = [h.e(a) for a in range(h.dim)]
        for args in itertools.product(range(h.dim), repeat=2):
            want = oracles.poly_binary_residual(r, Ts, *(basis[a] for a in args), top + 1)
            for s in range(top + 1):
                assert to_dense(tables[s][0].get(args, {}), (n,)) == want[s]
                if any(want[s]):
                    nonzero.add(("binary", s))
        for args in itertools.product(range(h.dim), repeat=3):
            want = oracles.poly_ternary_residual(r, Ts, *(basis[a] for a in args), top + 1)
            for s in range(top + 1):
                assert to_dense(tables[s][1].get(args, {}), (n,)) == want[s]
                if any(want[s]):
                    nonzero.add(("ternary", s))
        u, v, w = (tuple(rng.choice([F(0), F(1), F(-2), F(1, 3)]) for _ in range(h.dim))
                   for _ in range(3))
        want2 = oracles.poly_binary_residual(r, Ts, u, v, top + 1)
        want3 = oracles.poly_ternary_residual(r, Ts, u, v, w, top + 1)
        for s in range(top + 1):
            assert binary_coefficient(r, Ts, s, u, v) == want2[s]
            assert ternary_coefficient(r, Ts, s, u, v, w) == want3[s]
    assert nonzero >= {("binary", 0), ("binary", 1), ("binary", 2),
                       ("ternary", 0), ("ternary", 1), ("ternary", 2), ("ternary", 3)}


def test_linear_deformation_family(p3, rng):
    for _ in range(5):
        T1 = family_matrix(rng)
        rep = check_linear_deformation(p3, T1)
        assert rep.passed
        assert rep.data["t1_closed"]
        assert rep.data["coefficient_verdicts"] == {
            "t^1": "pass", "t^2": "pass", "t^3": "pass"}


def test_linear_deformation_failure(p3):
    rep = check_linear_deformation(p3, mat_id(4))
    assert not rep.passed
    # the identity is not a 1-cocycle of p3's complex either
    assert rep.data["t1_closed"] is False
    flat = [x for a in range(4) for x in (F(int(a == t)) for t in range(4))]
    assert any(oracles.mv(oracles.delta1_matrix(oracles.OpOracle(p3)), flat))


def cocycle_terms(tcomplex, count=6, seed=5):
    """T1 as random combinations of the degree-1 cocycles: each T + t*T1 is an
    order-1 deformation, and most of their obstructions are nonzero."""
    rng = random.Random(seed)
    zbasis = [to_dense(w, (16,)) for w in tcomplex.matrix(1).nullspace()]
    out = []
    for _ in range(count):
        v = [F(0)] * 16
        for w in zbasis:
            c = rng.choice([F(0), F(0), F(1), F(-1), F(2)])
            v = [a + c * b for a, b in zip(v, w)]
        out.append(tuple(tuple(v[a * 4 + t] for a in range(4)) for t in range(4)))
    return out


def test_obstruction_matches_brute_force(p3, rng, tcomplex):
    h = p3.action.carrier
    prs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    terms = [mat(family_matrix(rng)) for _ in range(5)] + cocycle_terms(tcomplex)
    nonzero = 0
    for T1 in terms:
        d = OrderNDeformation(p3, [T1])
        ob = obstruction_class(d)
        assert ob.closed
        nonzero += not ob.as_cochain.is_zero()
        # brute force: t^2 coefficient with T_2 = 0
        Ts = [p3.T, T1]
        for t, (a, b) in enumerate(prs):
            want = oracles.poly_binary_residual(p3.action, Ts, h.e(a), h.e(b), 3)[2]
            assert ob.ob_I[t] == want
        i = 0
        for (a, b) in prs:
            for c in range(4):
                want = oracles.poly_ternary_residual(p3.action, Ts,
                                                     h.e(a), h.e(b), h.e(c), 3)[2]
                assert ob.ob_II[i] == want
                i += 1
    assert nonzero >= 1


def test_extension_extends(p3, rng):
    for _ in range(5):
        T1 = family_matrix(rng)
        d = OrderNDeformation(p3, [T1])
        t2, rep = extend(d)
        if t2 is None:
            assert rep.data["rank_augmented"] > rep.data["rank"]
        else:
            d2 = OrderNDeformation(p3, [T1, t2])
            assert check_order_n(d2).passed


def test_extension_rank_certificate_on_cocycle_terms(p3, tcomplex):
    # T + t*T1 with T1 a random combination of 1-cocycles is an order-1
    # deformation; some of these obstructions are not coboundaries
    dense = oracles.o_dense(tcomplex.matrix(1))
    outcomes = set()
    for T1 in cocycle_terms(tcomplex):
        d = OrderNDeformation(p3, [T1])
        assert check_order_n(d).passed
        t2, rep = extend(d)
        rhs = tuple(-x for x in obstruction_class(d).as_cochain.as_flat())
        assert (t2 is not None) == oracles.o_in_column_space(dense, rhs)
        if t2 is None:
            assert rep.data["rank"] == oracles.o_rank(dense)
            assert rep.data["rank_augmented"] == rep.data["rank"] + 1
        else:
            assert check_order_n(OrderNDeformation(p3, [T1, t2])).passed
        outcomes.add(t2 is None)
    assert outcomes == {True, False}


def test_obstruction_requires_valid_deformation(p3):
    d = OrderNDeformation(p3, [mat_id(4)])
    with pytest.raises(InvalidDeformation):
        obstruction_class(d)


def test_equivalence_trivial(p3):
    T1 = mat_zero(4, 4)
    rep = check_equivalence(p3, T1, T1, [])
    assert rep.passed
    assert rep.data["difference_equals_boundary"]


def test_equivalence_with_boundary(p3, tcomplex, rng):
    g = p3.action.acting
    T1 = mat(family_matrix(rng))
    x, y = g.e(0), g.e(1)
    pc = tcomplex.zero_cochain_map(x, y)
    bound = tuple(tuple(pc.f[a][t] for a in range(4)) for t in range(4))
    T2 = mat_add(T1, bound)
    rep = check_equivalence(p3, T1, T2, [(x, y)])
    assert rep.passed and rep.data["difference_equals_boundary"]


def test_difference_class(p3, rng):
    T1 = mat(family_matrix(rng))
    rep = difference_class(p3, T1, T1)
    assert rep.passed and rep.data["cohomologous"]
    # the partial map is zero on this fixture, so any nonzero difference is
    # not a boundary
    T2 = mat_add(T1, mat_id(4))
    rep = difference_class(p3, T1, T2)
    assert not rep.passed and not rep.data["cohomologous"]


def test_abelian_fixture_everything_trivial():
    A = L.abelian(2)
    zero = mat_zero(2, 2)
    rho = [zero, zero]
    mu = [[zero, zero], [zero, zero]]
    r = L.RepAction(A, A, rho, mu)
    r.ensure_action()
    op = L.RRBOperator(r, mat_id(2))
    op.ensure_verified()
    rng = random.Random(55)
    T1 = random_matrix(rng, 2, 2)
    assert check_linear_deformation(op, T1).passed
    d = OrderNDeformation(op, [T1])
    ob = obstruction_class(d)
    assert ob.as_cochain.is_zero() and ob.closed


def test_obstruct_extend_checks_the_deformation_once(monkeypatch, capsys):
    """The CLI builds the obstruction once and extend reuses it."""
    from lyalg import deformation
    calls = []
    orig = deformation.check_order_n

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(deformation, "check_order_n", counting)
    code = run(["deform", "obstruct", "--op", fx("p3_on_nilpotent4.json"),
                "--terms", fx("t1_family.json"), "--extend", "--json"])
    out = capsys.readouterr().out
    assert code == 0 and len(calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6a7f0d42df3c4cfa013c830d6efc0c2e8aed910c53f9c089aa5ad16911bf8d2d")


def nonzero_partial_cases():
    """Square-zero operators with a nonzero partial map (see test_cohomology),
    each with X = e0/\\e1 + 2 e1/\\e3."""
    from test_cohomology import NONZERO_PARTIAL_SEEDS, square_zero_operator
    for seed in NONZERO_PARTIAL_SEEDS:
        op = square_zero_operator(random.Random(seed), 4, 3, 2)
        g = op.action.acting
        wedges = [(g.e(0), g.e(1)), (tuple(2 * x for x in g.e(1)), g.e(3))]
        yield seed, op, wedges


def oracle_boundary(op, wedges):
    """partial(X) as an n x m matrix, from the oracle's closed form."""
    oc = oracles.OpOracle(op)
    h = op.action.carrier
    n, m = op.action.acting.dim, h.dim
    return tuple(tuple(sum((oc.partial(x, y, h.e(a))[t] for x, y in wedges), F(0))
                       for a in range(m)) for t in range(n))


def test_equivalence_difference_where_partial_is_nonzero():
    for seed, op, wedges in nonzero_partial_cases():
        n, m = op.action.acting.dim, op.action.carrier.dim
        bound = oracle_boundary(op, wedges)
        assert any(map(any, bound)), seed
        rng = random.Random(seed)
        T1 = mat(random_matrix(rng, n, m))
        T2 = mat_add(T1, bound)
        perturbed = [list(row) for row in T2]
        perturbed[1][2] += 1
        for t2, want in ((T2, True), (perturbed, False)):
            rep = check_equivalence(op, T1, t2, wedges, all_violations=True)
            assert rep.data["difference_equals_boundary"] is want, seed
            assert rep.data == oracles.o_equivalence(op, T1, t2, wedges)[1], seed


def test_difference_class_where_partial_is_nonzero():
    for seed, op, wedges in nonzero_partial_cases():
        n, m = op.action.acting.dim, op.action.carrier.dim
        P = oracles.partial_matrix(oracles.OpOracle(op))
        rng = random.Random(seed + 1)
        T1 = mat(random_matrix(rng, n, m))
        T2 = mat_add(T1, oracle_boundary(op, wedges))
        rep = difference_class(op, T1, T2)
        assert rep.passed and rep.data["cohomologous"], seed
        x = [F(q) for q in rep.data["X_pair_coordinates"]]
        diff = oracles.mv(P, x)
        assert diff == tuple(T2[t][a] - T1[t][a] for a in range(m) for t in range(n))
        assert any(diff)
        off = [list(row) for row in T2]
        off[0][0] += 1
        want = oracles.o_in_column_space(P, [off[t][a] - T1[t][a]
                                             for a in range(m) for t in range(n)])
        assert difference_class(op, T1, off).passed is want is False


def test_t1_closed_matches_oracle_where_partial_is_nonzero():
    closed = set()
    for seed, op, _ in nonzero_partial_cases():
        n, m = op.action.acting.dim, op.action.carrier.dim
        d1 = oracles.delta1_matrix(oracles.OpOracle(op))
        rng = random.Random(seed + 2)
        z = L.TComplex(op).matrix(1).nullspace()
        for k in range(4):
            if k % 2:
                coeffs = [rng.choice([F(0), F(1), F(-2)]) for _ in z]
                flat = [sum((c * w.get(j, F(0)) for c, w in zip(coeffs, z)), F(0))
                        for j in range(m * n)]
            else:
                flat = [rng.choice([F(0), F(1), F(1, 2)]) for _ in range(m * n)]
            T1 = tuple(tuple(flat[a * n + t] for a in range(m)) for t in range(n))
            rep = check_linear_deformation(op, T1)
            want = not any(oracles.mv(d1, flat))
            assert rep.data["t1_closed"] is want, (seed, k)
            closed.add(want)
    assert closed == {True, False}
