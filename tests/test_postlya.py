import pytest
from fractions import Fraction as F

import lyalg as L
from lyalg.errors import DimMismatch, StructureError
from lyalg.postlya import (PostLYAlgebra, check_post_axioms,
                           check_post_homomorphism, identity_is_rrb,
                           induced_action, induced_post_from_rrb, subadjacent,
                           zero_post)
from lyalg.reps import RepAction, regular_pair
from lyalg.rrb import descent_algebra

from families import family_matrix, generated_posts, live_post, live_post_operator
from oracles import mid, nested


def test_zero_post_passes():
    A = zero_post(3)
    assert check_post_axioms(A).passed
    S = subadjacent(A)
    assert all(all(all(c == 0 for c in nested(S.binary)[i][j]) for j in range(3))
               for i in range(3))


def test_antisymmetry_enforced():
    nz = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # dot(e1,e1) = e2 on the diagonal
    z2 = [[[0, 0]] * 2] * 2
    z3 = [[z2[0]] * 2] * 2
    with pytest.raises(StructureError):
        PostLYAlgebra(2, nz, z2, z3, z3)


def test_a_basis_of_the_wrong_length_is_refused_when_built():
    z2 = [[[0, 0]] * 2] * 2
    z3 = [[z2[0]] * 2] * 2
    with pytest.raises(DimMismatch, match="^1 basis labels for dim 2$"):
        PostLYAlgebra(2, z2, z2, z3, z3, basis=["a"])
    with pytest.raises(DimMismatch, match="^1 basis labels for dim 2$"):
        L.LYAlgebra(2, z2, z3, basis=["a"])


def test_induced_post_passes_axioms(p3):
    A = induced_post_from_rrb(p3)
    assert A.verified
    assert check_post_axioms(A).passed
    # the round trip through Id over the induced action gives the live algebra back
    live = live_post()
    B = induced_post_from_rrb(live_post_operator())
    assert B.verified and check_post_axioms(B).passed
    assert B.star.support and B.brace.support
    assert (B.dot, B.star, B.angle, B.brace) == (live.dot, live.star, live.angle, live.brace)


def test_subadjacent_equals_descent(p3):
    for op in (p3, live_post_operator()):
        A = induced_post_from_rrb(op)
        S = subadjacent(A)
        D = descent_algebra(op)
        assert S.binary == D.binary
        assert S.ternary == D.ternary


def test_identity_is_weight_one(p3):
    A = induced_post_from_rrb(p3)
    assert identity_is_rrb(A).passed
    live = live_post()
    r = induced_action(live)
    assert r.rho.support and r.mu.support and r.derived_D.support
    assert subadjacent(live).binary.support and subadjacent(live).ternary.support
    assert identity_is_rrb(live).passed


def test_induced_action_derived_matches(p3):
    live = live_post()
    for A in (induced_post_from_rrb(p3), live):
        r = induced_action(A)
        assert r.action_certified
        # L(x)z = x * z and R(x,y)z = {z,x,y} columnwise, D the derived brace
        for i in range(A.dim):
            for j in range(A.dim):
                assert tuple(nested(r.rho)[i][t][j] for t in range(A.dim)) == nested(A.star)[i][j]
                for k in range(A.dim):
                    assert tuple(nested(r.mu)[i][j][t][k] for t in range(A.dim)) \
                        == nested(A.brace)[k][i][j]
        assert r.derived_D.support == A.brace_D.support
        if A is live:
            assert r.rho.support and r.mu.support and r.derived_D.support


def test_derived_D_of_L_and_R_is_the_derived_brace_with_no_axiom():
    """``induced_action`` does not compare the pair's derived D with the
    derived brace: both expand to the same seven terms, so they agree on the
    generated post-algebras too, though those fail their axioms."""
    posts = [P for _, P in generated_posts()]
    assert not any(check_post_axioms(P).passed for P in posts)
    assert sum(bool(P.brace_D.support) for P in posts) == 3
    for P in posts:
        S = L.LYAlgebra(P.dim, P.sub_binary, P.sub_ternary)
        r = RepAction(S, P.base_ly(), *regular_pair(P.star, P.brace))
        assert r.derived_D.support == P.brace_D.support


def test_induced_post_family(adjoint_action, rng):
    for _ in range(5):
        op = L.RRBOperator(adjoint_action, family_matrix(rng))
        op.ensure_verified()
        A = induced_post_from_rrb(op)
        S = subadjacent(A)
        D = descent_algebra(op)
        assert S.binary == D.binary and S.ternary == D.ternary
        assert identity_is_rrb(A).passed


def test_post_homomorphism_identity(p3):
    A = induced_post_from_rrb(p3)
    rep = check_post_homomorphism(A, A, mid(4))
    assert rep.passed
    live = live_post()
    assert live.star.support and live.brace.support
    assert check_post_homomorphism(live, live, mid(3)).passed


def test_post_homomorphism_failure(p3):
    A = induced_post_from_rrb(p3)
    psi = tuple(tuple(F(2) if i == j else F(0) for j in range(4)) for i in range(4))
    rep = check_post_homomorphism(A, A, psi)
    assert not rep.passed


def test_as_printed_variants_on_fixture(p3):
    # the variant equation set also holds on the induced fixture (the
    # equations only differ in slots where this structure's brace vanishes),
    # but passing it must not mark the algebra verified
    A = induced_post_from_rrb(p3)
    B = PostLYAlgebra(A.dim, A.dot, A.star, A.angle, A.brace)
    rep = check_post_axioms(B, as_printed=True)
    assert rep.passed
    assert not B.verified
