import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg import io as lyio
from lyalg.errors import AxiomsFailed, NotAnAction
from lyalg.linalg import SparseMat
from lyalg.reps import (adjoint_rep, check_action, check_lemma_identities,
                        check_representation, semidirect_product)

import families
from conftest import fx
from oracles import col, mzero, nested, o_center_dim, o_center_equations


def test_adjoint_is_representation(nilpotent4):
    r = adjoint_rep(nilpotent4)
    assert check_representation(r).passed
    # rho(e1) maps e2 to [e1, e2] = 2 e4
    assert col(nested(r.rho)[0], 1) == (F(0), F(0), F(0), F(2))
    # mu(e2, e1) maps e1 to <e1, e2, e1> = e4
    assert col(nested(r.mu)[1][0], 0) == (F(0), F(0), F(0), F(1))


def test_derived_D_matches_definition(nilpotent4):
    r = adjoint_rep(nilpotent4)
    # D(x,y)z = <x,y,z> for the adjoint pair over this fixture
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert col(nested(r.derived_D)[i][j], k) == nested(nilpotent4.ternary)[i][j][k]


def test_lemma_identities(nilpotent4):
    r = adjoint_rep(nilpotent4)
    assert check_lemma_identities(r).passed


def test_adjoint_is_action(nilpotent4):
    r = adjoint_rep(nilpotent4)
    rep = check_action(r)
    assert rep.passed
    assert rep.data["center_dim"] == 2
    assert r.action_certified


def test_certifying_an_action_takes_no_elimination(monkeypatch):
    """Certifying an action computes no center dimension, which only
    ``check_action``'s own report shows: loading p3, building a projection
    operator and the induced action of a post-algebra ask no ``SparseMat``
    for a rank or a nullity."""
    def refuse(self):
        raise AssertionError("an elimination while certifying")
    monkeypatch.setattr(SparseMat, "rank", refuse)
    monkeypatch.setattr(SparseMat, "nullity", refuse)
    op = lyio.load_operator(fx("p3_on_nilpotent4.json"))
    assert op.action.action_certified
    h, t = L.Subspace(4, [(0, 0, 1, 0)]), L.Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    assert L.projection_operator(families.nilpotent4(), h, t).action.action_certified
    assert L.induced_action(L.induced_post_from_rrb(op)).action_certified


def test_loaded_action_matches_adjoint(nilpotent4, adjoint_action):
    r = adjoint_rep(nilpotent4)
    assert adjoint_action.rho == r.rho
    assert adjoint_action.mu == r.mu
    assert adjoint_action.action_certified


def test_broken_representation_reports_equations(nilpotent4):
    # perturb rho(e3) to a non-central image: representation axioms break
    r = adjoint_rep(nilpotent4)
    rho = list(nested(r.rho))
    bad = [[F(0)] * 4 for _ in range(4)]
    bad[0][1] = F(1)
    rho[2] = tuple(tuple(row) for row in bad)
    r2 = L.RepAction(nilpotent4, nilpotent4, rho, r.mu)
    rep = check_representation(r2)
    assert not rep.passed


def test_semidirect_requires_certification(nilpotent4):
    r = adjoint_rep(nilpotent4)
    r2 = L.RepAction(nilpotent4, nilpotent4, r.rho, r.mu)
    with pytest.raises(NotAnAction):
        semidirect_product(r2)


def test_semidirect_brackets(nilpotent4, adjoint_action):
    S = adjoint_action.semidirect()
    assert S.dim == 8 and L.check_ly_axioms(families.unverified(S)).passed
    n = 4
    # [g:e1, g:e2] = g:[e1,e2]
    assert nested(S.binary)[0][1] == (F(0),) * 3 + (F(2),) + (F(0),) * 4
    # [g:e1, h:e2] = h:rho(e1)e2
    assert nested(S.binary)[0][n + 1] == (F(0),) * 4 + tuple(
        col(nested(adjoint_action.rho)[0], 1))
    # <h:u, g:x, g:y> = h:mu(x,y)u
    assert nested(S.ternary)[n + 0][0][1] == (F(0),) * 4 + tuple(
        col(nested(adjoint_action.mu)[0][1], 0))
    # two carrier slots kill the ternary bracket
    assert nested(S.ternary)[n + 0][n + 1][0] == (F(0),) * 8


def test_semidirect_of_screened_actions_passes_the_axioms():
    """The semidirect algebra is built unchecked; on the seeded perturbations
    of two adjoint actions that still pass ``check_action`` (none of the
    ``moved_rep`` ones do), it passes the axioms it was not checked against."""
    n4, h5 = adjoint_rep(families.nilpotent4()), adjoint_rep(families.heisenberg5())
    passing = []
    for seed in range(200):
        for kind, r in (("perturbed", families.perturbed_adjoint(random.Random(seed))),
                        ("moved_rep", families.moved_rep(random.Random(seed), n4)),
                        ("moved_rep", families.moved_rep(random.Random(seed), h5)),
                        ("moved", families.moved(random.Random(seed), n4, 1)),
                        ("moved", families.moved(random.Random(seed), h5, 1))):
            if check_action(r).passed:
                passing.append(kind)
                assert L.check_ly_axioms(families.unverified(semidirect_product(r))).passed
    assert sorted(set(passing)) == ["moved", "perturbed"] and len(passing) >= 10


def test_action_checks_the_acting_algebra():
    """A certified action carries every hypothesis of its semidirect algebra:
    the zero pair of an algebra that fails the axioms is a representation,
    but not an action."""
    g = lyio.load_algebra(fx("bad_algebra.json"))
    zero = [[[0]]] * 4
    r = L.RepAction(g, L.abelian(1), zero, [zero] * 4)
    assert check_representation(r).passed
    with pytest.raises(AxiomsFailed, match="^bad fails Lie-Yamaguti axioms$"):
        check_action(r)


def test_action_fails_for_noncentral_images():
    # a 2-dim non-abelian carrier: [f1, f2] = f2; acting algebra abelian with a
    # rho image that is not central
    g = L.abelian(1)
    b = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    h = L.from_lie_algebra(2, b)
    rho = [((F(0), F(0)), (F(0), F(1)))]  # rho(e1) = E22: image span{f2} noncentral
    mu = [[tuple(mzero(2, 2))]]
    r = L.RepAction(g, h, rho, mu)
    rep = check_action(r)
    assert not rep.passed
    assert any(v.eq.endswith("kills-binary") or v.eq.endswith("image-central")
               for v in rep.violations)


ALGEBRAS = {"nilpotent4": families.nilpotent4, "heisenberg5": families.heisenberg5,
            "sl2": families.sl2, "sl2-triple-system": families.sl2_triple_system,
            "gl3": lambda: families.gl(3), "sl3-cartan": families.sl3_cartan,
            "filiform5": lambda: families.filiform(5), "semidirect8": families.semidirect8}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_center_dim_is_the_dense_center_dimension(name):
    """check_action reports dim h less the rank of the center's equations;
    the adjoint representation reaches that count whether or not it is an
    action.  ``center`` is a subspace of that dimension killed by every
    equation."""
    A = ALGEBRAS[name]()
    rep = check_action(adjoint_rep(A), all_violations=True)
    assert rep.data == {"center_dim": o_center_dim(A)}
    C = L.center(A)
    assert C.dim == o_center_dim(A)
    assert not any(sum(c * q for c, q in zip(row, x)) for x in C.basis
                   for row in o_center_equations(A))
