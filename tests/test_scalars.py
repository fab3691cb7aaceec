"""One scalar convention: a scalar stored in a support, a sparse map or an
equation table is an int when its denominator is 1 and a Fraction otherwise,
while every scalar the library hands out is a Fraction.

The inputs mix integral entries with 1/2 entries: p3, the projection
p12_projection, and operators over generated two-step algebras whose entries
are drawn from {1, -1, 2, -2, 1/2, 3}.  On those, the full witness lists of
the axiom, representation, weight-1 and post checks match the dense oracles.
"""

import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg import io as lyio
from lyalg.cohomology import Cochain, induced_rep
from lyalg.linalg import SparseMat, contract, dense, mat, solve
from lyalg.postlya import check_post_axioms, induced_post_from_rrb
from lyalg.reps import adjoint_rep, check_representation

import oracles
from conftest import fx
from families import (HALF, listed, mixed_operator, moved_algebra, moved_operator, moved_rep,
                      perturb_post)


def mixed(want):
    """The residual entries of an oracle witness list mix integral nonzero
    values with non-integral ones."""
    flat = set()
    for _, _, res in want:
        for x in res:
            flat.update(x if isinstance(x, tuple) else (x,))
    return (any(q.denominator > 1 for q in flat)
            and any(q and q.denominator == 1 for q in flat))


@pytest.mark.parametrize("seed", [1901, 1902])
def test_mixed_data_witness_lists_match_dense_oracles(seed):
    rng = random.Random(seed)
    op = mixed_operator(seed)
    A = op.action.acting
    cases = [
        (L.check_ly_axioms, oracles.o_ly_violations, moved_algebra(rng, A), {}),
        (check_representation, oracles.o_rep_violations, moved_rep(rng, adjoint_rep(A)), {}),
        (L.check_rrb, oracles.o_rrb_violations, moved_operator(rng, op), {}),
    ]
    P = perturb_post(rng, induced_post_from_rrb(op))
    for as_printed in (False, True):
        cases.append((check_post_axioms,
                      lambda P, as_printed=as_printed: oracles.o_post_violations(P, as_printed),
                      P, {"as_printed": as_printed}))
    for check, oracle, subject, kwargs in cases:
        want = oracle(subject)
        assert want and mixed(want), check.__name__
        assert listed(check(subject, all_violations=True, **kwargs)) == want, check.__name__


def stored(q):
    """q is stored by the convention: an int exactly when it is integral."""
    return type(q) is (int if q.denominator == 1 else F)


def handed_out(x):
    """Every scalar in the nested tuples, lists or dict values x is a
    Fraction, and there is at least one."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        return bool(x) and all(handed_out(y) for y in x)
    return type(x) is F


def tensors(op):
    """The structure tensors of an operator's algebras and action."""
    r = op.action
    return [r.rho, r.mu, r.derived_D, r.acting.binary, r.acting.ternary, r.carrier.binary,
            r.carrier.ternary]


@pytest.fixture(scope="module")
def operators():
    return {"p3": lyio.load_operator(fx("p3_on_nilpotent4.json")),
            "p12": lyio.load_operator(fx("p12_projection.json")),
            "mixed": mixed_operator(1901)}


def test_supports_and_sparse_maps_store_ints_exactly_when_integral(operators):
    kinds = set()
    for name, op in operators.items():
        found = tensors(op)
        if name != "p12":                    # p12 fails the weight-1 equations
            r = induced_rep(op)
            P = induced_post_from_rrb(op)
            found += [r.rho, r.mu, r.derived_D, r.acting.binary, r.acting.ternary,
                      P.star, P.brace, P.brace_D, P.sub_binary, P.sub_ternary]
        for t in found:
            for v in t.support.values():
                assert all(stored(q) for q in v.values()), name
                kinds.update(type(q) for q in v.values())
        for entries in [row for row in op.T.rows.values()] + [
                list(v.items()) for v in op.T.cols.values()]:
            assert all(stored(q) for _, q in entries), name
            kinds.update(type(q) for _, q in entries)
    assert kinds == {int, F}
    # integral Fractions that arithmetic produces are stored as ints
    t = L.Tensor.from_support({(0,): {0: HALF * 2, 1: HALF}}, 2, 1, (2,))
    assert [type(q) for q in t.support[(0,)].values()] == [int, F]
    for M in (mat({(0, 0): F(4, 2), (0, 1): F(2, 4)}, (1, 2)), mat([[F(4, 2), "2/4"]])):
        assert [type(q) for _, q in M.rows[0]] == [int, F]
        assert [type(q) for col in M.cols.values() for q in col.values()] == [int, F]


def test_every_scalar_handed_out_is_a_fraction(operators, tcomplex):
    p3, p12, mix = operators["p3"], operators["p12"], operators["mixed"]
    # failing reports: the weight-1 residuals of p12, a capped LY failure, and
    # mixed residuals of an algebra moved by 1/2
    for rep in (L.check_rrb(p12), L.check_rrb(p12, all_violations=True),
                L.check_ly_axioms(lyio.load_algebra(fx("bad_algebra.json"))),
                L.check_ly_axioms(moved_algebra(random.Random(1), mix.action.acting))):
        assert not rep.passed
        assert all(handed_out(v.residual) for v in rep.violations)
    A, r = mix.action.acting, p3.action
    x = tuple(F(k % 3) for k in range(A.dim))
    assert handed_out(contract(A.binary, x, 0)) and handed_out(contract(A.ternary, 0, 1, x))
    assert handed_out(contract(r.rho, 0)) and handed_out(contract(r.mu, 1, x[:4]))
    assert handed_out(dense({0: 1, 2: HALF}, (3,)))
    assert handed_out(dense({(0, 1): -2, (1, 0): HALF}, (2, 2)))
    assert handed_out(lyio.load_matrix({"matrix": [["1", "1/2"], [2, 0]]}).dense())
    assert handed_out([v.dense() for pair in lyio.load_wedges({"wedges": [[["1", 0], [0, "1/2"]]]})
                       for v in pair])
    assert handed_out(p3.T.dense())
    # kernels, solves and cochains of p3's complex
    M = tcomplex.matrix(1)
    kernel = M.nullspace()
    assert kernel and all(handed_out(v) for v in kernel)
    b = M.apply({0: 1, 3: -2})
    assert handed_out(M.solve(b))
    witnesses = tcomplex.cohomology_witnesses(2)
    assert witnesses
    for c in witnesses + [tcomplex.coboundary(Cochain.from_support(1, 4, 4, {0: 1, 5: 2}))]:
        assert handed_out(c.as_flat()) and handed_out(c.f)
        assert c.p == 1 or handed_out(c.g)
    assert all(handed_out(c.support) for c in witnesses)
    assert handed_out(SparseMat(2, 2, {(0, 0): 1, (1, 1): 2}).nonzero_rows())
    assert handed_out(SparseMat(1, 2, {(0, 0): 1, (0, 1): -2}).nullspace())
    assert handed_out(solve([{0: 2, 1: 4}], {0: 2}, 2))
