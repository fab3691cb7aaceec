import pytest
from fractions import Fraction as F

import lyalg as L
from lyalg.errors import NotAnAction
from lyalg.linalg import mat_zero
from lyalg.reps import (adjoint_rep, check_action, check_lemma_identities,
                        check_representation, semidirect_product)

from oracles import col


def test_adjoint_is_representation(nilpotent4):
    r = adjoint_rep(nilpotent4)
    assert check_representation(r).passed
    # rho(e1) maps e2 to [e1, e2] = 2 e4
    assert col(r.rho[0], 1) == (F(0), F(0), F(0), F(2))
    # mu(e2, e1) maps e1 to <e1, e2, e1> = e4
    assert col(r.mu[1][0], 0) == (F(0), F(0), F(0), F(1))


def test_derived_D_matches_definition(nilpotent4):
    r = adjoint_rep(nilpotent4)
    # D(x,y)z = <x,y,z> for the adjoint pair over this fixture
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert col(r.derived_D[i][j], k) == nilpotent4.ternary[i][j][k]


def test_lemma_identities(nilpotent4):
    r = adjoint_rep(nilpotent4)
    assert check_lemma_identities(r).passed


def test_adjoint_is_action(nilpotent4):
    r = adjoint_rep(nilpotent4)
    rep = check_action(r)
    assert rep.passed
    assert rep.data["center_dim"] == 2
    assert r.action_certified


def test_loaded_action_matches_adjoint(nilpotent4, adjoint_action):
    r = adjoint_rep(nilpotent4)
    assert adjoint_action.rho == r.rho
    assert adjoint_action.mu == r.mu
    assert adjoint_action.action_certified


def test_broken_representation_reports_equations(nilpotent4):
    # perturb rho(e3) to a non-central image: representation axioms break
    r = adjoint_rep(nilpotent4)
    rho = list(r.rho)
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
    assert S.dim == 8 and S.verified
    n = 4
    # [g:e1, g:e2] = g:[e1,e2]
    assert S.binary[0][1] == (F(0),) * 3 + (F(2),) + (F(0),) * 4
    # [g:e1, h:e2] = h:rho(e1)e2
    assert S.binary[0][n + 1] == (F(0),) * 4 + tuple(
        col(adjoint_action.rho[0], 1))
    # <h:u, g:x, g:y> = h:mu(x,y)u
    assert S.ternary[n + 0][0][1] == (F(0),) * 4 + tuple(
        col(adjoint_action.mu[0][1], 0))
    # two carrier slots kill the ternary bracket
    assert S.ternary[n + 0][n + 1][0] == (F(0),) * 8


def test_action_fails_for_noncentral_images():
    # a 2-dim non-abelian carrier: [f1, f2] = f2; acting algebra abelian with a
    # rho image that is not central
    g = L.abelian(1)
    b = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    h = L.from_lie_algebra(2, b)
    rho = [((F(0), F(0)), (F(0), F(1)))]  # rho(e1) = E22: image span{f2} noncentral
    mu = [[tuple(mat_zero(2, 2))]]
    r = L.RepAction(g, h, rho, mu)
    rep = check_action(r)
    assert not rep.passed
    assert any(v.eq.endswith("kills-binary") or v.eq.endswith("image-central")
               for v in rep.violations)
