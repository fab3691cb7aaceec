"""The support-driven axiom scans list exactly the witnesses of a dense scan.

Every input here is sparse and failing, so most basis tuples have no live term
and are skipped, while the oracle in ``tests/oracles.py`` evaluates every
equation at every tuple.
"""

import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg.cohomology import induced_rep
from lyalg.reps import RepAction, adjoint_rep, check_lemma_identities, check_representation

import oracles
from test_reports import heisenberg5, perturbed_adjoint, perturbed_semidirect

POOL = [F(-1), F(0), F(0), F(0), F(1), F(2)]


def listed(rep):
    return [(v.eq, v.args, v.residual) for v in rep.violations]


def assert_rep_matches(r):
    rep = check_representation(r, all_violations=True)
    assert listed(rep) == oracles.o_rep_violations(r)
    lem = check_lemma_identities(r, all_violations=True)
    assert listed(lem) == oracles.o_lemma_violations(r)
    return rep


def moved(rng, r, count):
    """r with ``count`` random entries of rho and of mu moved by a nonzero amount."""
    n, m = r.acting.dim, r.carrier.dim
    rho = [[list(row) for row in M] for M in r.rho]
    mu = [[[list(row) for row in M] for M in line] for line in r.mu]
    for _ in range(count):
        rho[rng.randrange(n)][rng.randrange(m)][rng.randrange(m)] += rng.choice([-1, 1, 2])
        mu[rng.randrange(n)][rng.randrange(n)][rng.randrange(m)][rng.randrange(m)] += 1
    return RepAction(r.acting, r.carrier, rho, mu)


@pytest.mark.parametrize("seed", [11, 12])
def test_sparse_ly_scan_matches_dense_oracle(seed):
    A = perturbed_semidirect(random.Random(seed))
    rep = L.check_ly_axioms(A, all_violations=True)
    assert not rep.passed
    assert listed(rep) == oracles.o_ly_violations(A)


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_perturbed_adjoint_scans_match_dense_oracle(seed):
    assert not assert_rep_matches(perturbed_adjoint(random.Random(seed))).passed


def test_perturbed_heisenberg_adjoint_matches_dense_oracle():
    r = moved(random.Random(31), adjoint_rep(heisenberg5()), 1)
    assert not assert_rep_matches(r).passed


def test_perturbed_induced_rep_of_p3_matches_dense_oracle(p3):
    r = induced_rep(p3)
    assert assert_rep_matches(r).passed
    for seed in (41, 42):
        assert not assert_rep_matches(moved(random.Random(seed), r, 2)).passed


def plain(rng, *shape):
    if not shape:
        return rng.choice(POOL)
    return [plain(rng, *shape[1:]) for _ in range(shape[0])]


@pytest.mark.parametrize("n,m", [(0, 0), (0, 2), (2, 0), (1, 0), (1, 1), (1, 3), (3, 1)])
def test_small_acting_or_carrier_matches_dense_oracle(n, m):
    rng = random.Random(100 * n + m)
    r = RepAction(L.abelian(n), L.abelian(m), plain(rng, n, m, m), plain(rng, n, n, m, m))
    assert_rep_matches(r)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_small_algebras_match_dense_oracle(n):
    from test_reports import antisym2, antisym3
    rng = random.Random(200 + n)
    A = L.LYAlgebra(n, antisym2(rng, n), antisym3(rng, n))
    assert listed(L.check_ly_axioms(A, all_violations=True)) == oracles.o_ly_violations(A)
