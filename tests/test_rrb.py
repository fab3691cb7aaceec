import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg import io as lyio
from lyalg.errors import PreconditionFailed, Unverified
from lyalg.linalg import Subspace, Tensor, hom_table
from lyalg.rrb import (HomPair, check_nijenhuis, check_rrb,
                       check_rrb_homomorphism, descent_algebra,
                       graph_subalgebra_check, lift_operator,
                       projection_operator)

from conftest import fx
from families import dense, family_matrix, random_matrix, square_zero_operator, unverified
from oracles import mid, mm


def test_p3_fixture_passes(p3):
    assert p3.verified
    # T = projection onto span{e3}
    assert p3.T.dense() == tuple(tuple(F(1) if (i, j) == (2, 2) else F(0)
                               for j in range(4)) for i in range(4))


def test_projection_operator_construction(nilpotent4):
    h = Subspace(4, [(0, 0, 1, 0)])
    t = Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    op = projection_operator(nilpotent4, h, t)
    assert op.verified
    P = op.T.dense()
    assert mm(P, P) == P


def test_projection_hypotheses_rejected(nilpotent4):
    # span{e1, e2} is not an abelian subalgebra ([e1,e2] = 2 e4 lies outside)
    h = Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = Subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(PreconditionFailed) as e:
        projection_operator(nilpotent4, h, t)
    assert e.value.hypothesis == "h-abelian-subalgebra"
    assert str(e.value) == "binary bracket does not vanish on h"
    # span{e4} meets the derived algebra
    h2 = Subspace(4, [(0, 0, 0, 1)])
    t2 = Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(PreconditionFailed) as e:
        projection_operator(nilpotent4, h2, t2)
    assert e.value.hypothesis == "derived-meets-h-trivially"
    # non-complementary pair
    with pytest.raises(PreconditionFailed) as e:
        projection_operator(nilpotent4, Subspace(4, [(0, 0, 1, 0)]),
                            Subspace(4, [(1, 0, 0, 0)]))
    assert e.value.hypothesis == "t-h-complementary"


def test_projection_names_the_ternary_bracket():
    """nilpotent4 with its binary bracket dropped: <e1, e2, e1> = e4 is left,
    so the brackets on span{e1, e2} fail in the ternary one only."""
    A = L.LYAlgebra(4, L.Tensor.from_support({}, 4, 2, (4,)),
                    L.Tensor.from_support({(0, 1, 0): {3: 1}, (1, 0, 0): {3: -1}}, 4, 3, (4,)))
    h = Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = Subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(PreconditionFailed) as e:
        projection_operator(A, h, t)
    assert e.value.hypothesis == "h-abelian-subalgebra"
    assert str(e.value) == "ternary bracket does not vanish on h"


def test_p12_projection_fails_rrb1(adjoint_action):
    """Projection onto span{e1,e2}: the binary equation fails at (e1, e2)."""
    op = lyio.load_operator(fx("p12_projection.json"))
    rep = check_rrb(op)
    assert not rep.passed
    wit = [v for v in rep.violations if v.eq == "RRB1" and v.args == (0, 1)]
    assert wit and wit[0].residual == (F(0), F(0), F(0), F(2))


def test_identity_fails_on_fixture(adjoint_action):
    op = L.RRBOperator(adjoint_action, mid(4))
    rep = check_rrb(op)
    assert not rep.passed
    assert any(v.eq == "RRB1" for v in rep.violations)


def test_zero_operator_passes(adjoint_action):
    op = L.RRBOperator(adjoint_action, [[0] * 4 for _ in range(4)])
    assert check_rrb(op).passed


def test_family_operators_pass(adjoint_action, rng):
    for _ in range(5):
        op = L.RRBOperator(adjoint_action, family_matrix(rng))
        assert check_rrb(op).passed


def test_three_way_equivalence_random(adjoint_action, rng):
    S = adjoint_action.semidirect()
    for _ in range(30):
        T = random_matrix(rng, 4, 4)
        op = L.RRBOperator(adjoint_action, T)
        a = check_rrb(op).passed
        b = graph_subalgebra_check(op).passed
        c = check_nijenhuis(S, lift_operator(op)).passed
        assert a == b == c


def test_lift_shape(p3):
    N = lift_operator(p3).dense()
    assert len(N) == 8 and len(N[0]) == 8
    # idempotent block form
    assert mm(N, N) == N


def test_descent_algebra(p3):
    D = descent_algebra(p3)
    assert L.check_ly_axioms(unverified(D)).passed
    # T is a homomorphism descent -> g by construction (re-assert directly)
    rep = L.check_homomorphism(D, p3.action.acting, p3.T)
    assert rep.passed


def test_descent_and_complex_build_each_inner_sum_once(monkeypatch, capsys):
    """The operator's check and the descent algebra read one t-expansion:
    ``construct descent`` and a ``TComplex`` of p3 each build I_0 and J_0
    once.  A build is a call of ``Expansion.inner`` that returns a table no
    call has returned before."""
    from lyalg import rrb
    from lyalg.cli import run
    from lyalg.cohomology import TComplex
    inner, seen, built = rrb.Expansion.inner, [], []

    def recording(self, arity, p):
        table = inner(self, arity, p)
        if not any(table is t for t in seen):
            seen.append(table)
            built.append((arity, p))
        return table
    monkeypatch.setattr(rrb.Expansion, "inner", recording)
    assert run(["construct", "descent", fx("p3_on_nilpotent4.json")]) == 0
    capsys.readouterr()
    assert sorted(built) == [(2, 0), (3, 0)]
    built.clear()
    TComplex(lyio.load_operator(fx("p3_on_nilpotent4.json")))
    assert sorted(built) == [(2, 0), (3, 0)]


def test_descent_homomorphism_tables_are_the_negated_t0_tables(adjoint_action):
    """The homomorphism tables of T from the descent brackets I_0, J_0 to g
    are the operator's t^0 tables negated, so ``descent_algebra`` needs no
    scan of its own: on passing operators and on failing ones, a screened
    dense candidate included."""
    candidate = L.RRBOperator(adjoint_action, dense(random.Random(5205), 4, 4))
    ops = [lyio.load_operator(fx(name)) for name in
           ("p3_on_nilpotent4.json", "p12_projection.json", "id_on_nilpotent4.json")]
    ops += [candidate, square_zero_operator(random.Random(401), 3, 3, 1)]
    assert [check_rrb(op).passed for op in ops] == [True, False, False, False, True]
    for op in ops:
        r, ex, m = op.action, op.expansion, op.action.carrier.dim
        for arity, g in ((2, r.acting.binary), (3, r.acting.ternary)):
            descent = Tensor.from_support(ex.inner(arity, 0), m, arity, (m,))
            assert hom_table(descent, g, op.T, (op.T,) * arity) == {
                k: {x: -q for x, q in v.items()} for k, v in ex.table(arity, 0).items()}


def test_descent_requires_verified(adjoint_action):
    op = L.RRBOperator(adjoint_action, mid(4))
    with pytest.raises(Unverified):
        descent_algebra(op)


def test_nijenhuis_identity_map(nilpotent4):
    assert check_nijenhuis(nilpotent4, mid(4)).passed


def test_nijenhuis_violation(adjoint_action):
    # the lift of a non-weight-1 operator is not Nijenhuis on the semidirect
    op = L.RRBOperator(adjoint_action, mid(4))
    S = adjoint_action.semidirect()
    rep = check_nijenhuis(S, lift_operator(op))
    assert not rep.passed


def test_rrb_homomorphism_diagonal_family(adjoint_action, p3):
    # psi = diag(1, b, c, b) is an automorphism of the fixture intertwining
    # scaled copies of the projection operator
    b, c = F(3), F(5)
    psi = tuple(tuple((F(1), b, c, b)[i] if i == j else F(0) for j in range(4))
                for i in range(4))
    pair = HomPair(psi, psi)
    rep = check_rrb_homomorphism(p3, p3, pair)
    assert rep.passed


def test_rrb_homomorphism_failure(p3):
    psi = tuple(tuple(F(2) if i == j else F(0) for j in range(4)) for i in range(4))
    rep = check_rrb_homomorphism(p3, p3, HomPair(psi, psi))
    assert not rep.passed
