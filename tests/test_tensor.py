"""The structure-tensor type and its one evaluation routine, ``contract``."""

import copy
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg.errors import DimMismatch
from lyalg.linalg import Tensor, contract, dense, mat_zero
from lyalg import io as lyio
from lyalg.reps import RepAction, check_action, check_representation
from lyalg.rrb import check_rrb

import oracles
from conftest import fx

POOL = [F(-1), F(0), F(0), F(0), F(1), F(1, 2)]


def nested(rng, *shape):
    if not shape:
        return rng.choice(POOL)
    return [nested(rng, *shape[1:]) for _ in range(shape[0])]


def test_tensor_indexes_as_nested_tuples_and_keeps_its_support():
    rng = random.Random(7)
    raw = nested(rng, 3, 3, 2)
    t = Tensor(raw, 3, 2, (2,))
    assert t == tuple(tuple(tuple(v) for v in row) for row in raw)
    assert t[1][2] == tuple(raw[1][2])
    assert list(t.support) == [(i, j) for i in range(3) for j in range(3) if any(raw[i][j])]
    assert all(dense(t.support[i, j], t.shape) == t[i][j] for i, j in t.support)
    for u in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert u == t and u.support == t.support and u.shape == t.shape


@pytest.mark.parametrize("shape", [(3,), (2, 2)])
def test_contract_matches_the_dense_sum(shape):
    rng = random.Random(11)
    t = Tensor(nested(rng, 3, 3, 3, *shape), 3, 3, shape)
    for _ in range(20):
        x, y, z = (tuple(nested(rng, 3)) for _ in range(3))
        want = oracles.ev(t, x, y, z)
        assert contract(t, x, y, z) == want
        # a basis index in a slot is the same as the basis vector there
        e1 = tuple(F(int(s == 1)) for s in range(3))
        assert contract(t, x, 1, z) == oracles.ev(t, x, e1, z)
        assert contract(t, 2, 0, 1) == t[2][0][1]


def test_contract_rejects_wrong_lengths_and_arity():
    t = Tensor([[(F(1), F(0))] * 2] * 2, 2, 2, (2,))
    with pytest.raises(DimMismatch):
        contract(t, (F(1),), 0)
    with pytest.raises(DimMismatch):
        contract(t, 0)
    with pytest.raises(DimMismatch):
        Tensor([[(F(1),)] * 2] * 2, 2, 2, (2,))


@pytest.mark.parametrize("n", [0, 1])
def test_abelian_in_dim_0_and_1(n):
    A = L.abelian(n)
    zero = (F(0),) * n
    assert A.bracket2(zero, zero) == zero
    assert A.bracket3(zero, zero, zero) == zero
    assert A.binary.support == {} and A.ternary.support == {}
    assert L.check_ly_axioms(A).passed


def test_action_of_a_zero_dim_algebra():
    r = RepAction(L.abelian(0), L.abelian(2), [], [])
    assert contract(r.rho, ()) == mat_zero(2, 2)
    assert contract(r.mu, (), ()) == mat_zero(2, 2) == contract(r.derived_D, (), ())
    assert r.derived_D == ()
    assert check_representation(r).passed
    rep = check_action(r)
    assert rep.passed and rep.data == {"center_dim": 2}


def test_action_on_a_zero_dim_carrier():
    e = ((), ())
    r = RepAction(L.abelian(2), L.abelian(0), list(e), [list(e), list(e)])
    x, y = (F(1), F(0)), (F(0), F(1))
    assert contract(r.rho, x) == () and contract(r.mu, x, y) == ()
    assert contract(r.derived_D, x, y) == ()
    assert r.derived_D == (e, e)
    assert check_representation(r).passed
    rep = check_action(r)
    assert rep.passed and rep.data == {"center_dim": 0}


def random_table(rng, dim, arity, shape):
    """A sparse table {index tuple: sparse value} with random keys and entries,
    some of them zero, and its nested values."""
    entries = (list(range(shape[0])) if len(shape) == 1 else
               [(r, c) for r in range(shape[0]) for c in range(shape[1])])
    table = {}
    for key in itertools.product(range(dim), repeat=arity):
        if entries and rng.random() < 0.4:
            table[key] = {e: rng.choice(POOL) for e in rng.sample(entries, rng.randint(1, 2))}

    def level(key):
        if len(key) == arity:
            return dense(table.get(key, {}), shape)
        return [level(key + (i,)) for i in range(dim)]
    return table, level(())


def shuffled(rng, table):
    keys = list(table)
    rng.shuffle(keys)
    out = {}
    for key in keys:
        items = list(table[key].items())
        rng.shuffle(items)
        out[key] = dict(items)
    return out


CASES = [(dim, arity, shape) for dim in range(5) for arity in (1, 2, 3)
         for shape in ((3,), (2, 3), (dim,), (dim, dim))]


@pytest.mark.parametrize("dim, arity, shape", CASES)
def test_from_support_agrees_with_the_nested_constructor(dim, arity, shape):
    rng = random.Random(repr((dim, arity, shape)))
    table, values = random_table(rng, dim, arity, shape)
    a = Tensor.from_support(shuffled(rng, table), dim, arity, shape)
    b = Tensor(values, dim, arity, shape)
    assert a == b
    assert list(a.support.items()) == list(b.support.items())
    assert all(list(v) == sorted(v) for v in a.support.values())
    assert Tensor(a, dim, arity, shape) is a
    for _ in range(3):
        slots = [tuple(rng.choice(POOL) for _ in range(dim)) for _ in range(arity)]
        assert contract(a, *slots) == contract(b, *slots)
        if dim:
            assert contract(a, *slots) == oracles.ev(b, *slots)
    for u in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert u == b and list(u.support.items()) == list(b.support.items())
        assert (u.dim, u.arity, u.shape) == (dim, arity, shape)


@pytest.mark.parametrize("name", ["p3_on_nilpotent4.json", "id_on_nilpotent4.json"])
def test_checks_leave_the_supports_as_they_were(name):
    op = lyio.load_operator(fx(name))
    r = op.action
    tensors = [r.acting.binary, r.acting.ternary, r.carrier.binary, r.carrier.ternary,
               r.rho, r.mu, r.derived_D]
    before = [copy.deepcopy(t.support) for t in tensors]
    for check in (lambda: L.check_ly_axioms(r.acting, True), lambda: check_action(r, True),
                  lambda: check_rrb(op, True)):
        first, second = check(), check()
        assert first.to_dict() == second.to_dict()
    assert [t.support for t in tensors] == before
