"""The structure-tensor type and its one evaluation routine, ``contract``."""

import copy
import itertools
import json
import pickle
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg.errors import DimMismatch
from lyalg.linalg import Tensor, contract, dense
from lyalg import io as lyio
from lyalg.postlya import PostLYAlgebra
from lyalg.reps import RepAction, adjoint_rep, check_action, check_representation
from lyalg.rrb import check_rrb

import oracles
from conftest import fx
from families import square_zero_operator
from oracles import mzero, nested

POOL = [F(-1), F(0), F(0), F(0), F(1), F(1, 2)]


def random_values(rng, *shape):
    if not shape:
        return rng.choice(POOL)
    return [random_values(rng, *shape[1:]) for _ in range(shape[0])]


def test_tensor_indexes_as_nested_tuples_and_keeps_its_support():
    rng = random.Random(7)
    raw = random_values(rng, 3, 3, 2)
    t = Tensor(raw, 3, 2, (2,))
    assert not isinstance(t, tuple)
    assert nested(t) == tuple(tuple(tuple(v) for v in row) for row in raw)
    assert nested(t)[1][2] == tuple(raw[1][2])
    assert list(t.support) == [(i, j) for i in range(3) for j in range(3) if any(raw[i][j])]
    assert all(dense(t.support[i, j], t.shape) == nested(t)[i][j] for i, j in t.support)
    for u in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert u == t and u.support == t.support and u.shape == t.shape
        assert not isinstance(u, tuple)
    # equality is value equality: dim, arity, shape and support
    assert t == Tensor(nested(t), 3, 2, (2,))
    assert t != Tensor.from_support(t.support, 3, 2, (3,))
    assert t != Tensor.from_support(t.support, 4, 2, (2,))
    assert t != nested(t)


def test_from_support_cost_follows_the_support():
    """A dim-32 matrix-valued binary tensor with 128 nonzero keys: a dense
    view would hold 1024 values of 32 x 32 entries."""
    n = 32
    table = {(i, (7 * i + k) % n, i): {k: F(1)} for i in range(n) for k in range(4)}
    tracemalloc.start()
    try:
        t = Tensor.from_support(table, n, 2, (n, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert len(t.support) == 128 and not isinstance(t, tuple)


@pytest.mark.parametrize("shape", [(3,), (2, 2)])
def test_contract_matches_the_dense_sum(shape):
    rng = random.Random(11)
    t = Tensor(random_values(rng, 3, 3, 3, *shape), 3, 3, shape)
    for _ in range(20):
        x, y, z = (tuple(random_values(rng, 3)) for _ in range(3))
        want = oracles.ev(nested(t), x, y, z)
        assert contract(t, x, y, z) == want
        # a basis index in a slot is the same as the basis vector there
        e1 = tuple(F(int(s == 1)) for s in range(3))
        assert contract(t, x, 1, z) == oracles.ev(nested(t), x, e1, z)
        assert contract(t, 2, 0, 1) == nested(t)[2][0][1]


def test_contract_rejects_wrong_lengths_and_arity():
    t = Tensor([[(F(1), F(0))] * 2] * 2, 2, 2, (2,))
    with pytest.raises(DimMismatch):
        contract(t, (F(1),), 0)
    with pytest.raises(DimMismatch):
        contract(t, 0)
    with pytest.raises(DimMismatch):
        Tensor([[(F(1),)] * 2] * 2, 2, 2, (2,))


def test_a_basis_index_outside_the_dim_is_refused(nilpotent4):
    """Every slot of a 4-dim bracket takes 0..3; an index outside is refused,
    not read as the zero vector."""
    A = nilpotent4
    assert contract(A.binary, 0, 1) == (0, 0, 0, 2)
    for slots in ((7, 1), (-1, 1), (0, 4), (1, -4)):
        with pytest.raises(DimMismatch):
            contract(A.binary, *slots)
    for slots in ((0, 1, 4), (-1, 1, 0)):
        with pytest.raises(DimMismatch):
            contract(A.ternary, *slots)
    with pytest.raises(DimMismatch):
        contract(adjoint_rep(A).rho, 4)


def levels_off(values, drop):
    """Nested values with their last innermost index level made one entry
    longer or, with ``drop``, one entry shorter."""
    out = copy.deepcopy(values)
    level = out
    while isinstance(level[-1], list) and isinstance(level[-1][-1], list):
        level = level[-1]
    if drop:
        level.pop()
    else:
        level.append(copy.deepcopy(level[-1]))
    return out


@pytest.mark.parametrize("drop", [False, True])
def test_every_index_level_must_have_dim_entries(drop):
    zero2 = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    zero3 = [[[[F(0)] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    # [e1, e2] = e1, and a third row of brackets, with a nonzero bracket in it,
    # that a dim-2 algebra has no room for
    binary = copy.deepcopy(zero2)
    binary[0][1], binary[1][0] = [F(1), F(0)], [F(-1), F(0)]
    rows3 = binary + [[[F(1), F(0)], [F(0), F(0)]]]
    with pytest.raises(DimMismatch):
        L.LYAlgebra(2, rows3[:1] if drop else rows3, zero3)
    with pytest.raises(DimMismatch):
        L.LYAlgebra(2, binary, levels_off(zero3, drop))
    for k in range(4):
        ops = [zero2, zero2, zero3, zero3]
        ops[k] = levels_off(ops[k], drop)
        with pytest.raises(DimMismatch):
            PostLYAlgebra(2, *ops)
    A = L.abelian(2)
    rho = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    mu = [copy.deepcopy(rho) for _ in range(2)]
    RepAction(A, A, rho, mu)
    with pytest.raises(DimMismatch):
        RepAction(A, A, rho[:1] if drop else rho + rho[:1], mu)
    with pytest.raises(DimMismatch):
        RepAction(A, A, rho, [mu[0], mu[1][:1] if drop else mu[1] + mu[1][:1]])


def nest(sizes):
    """Zero values nested as lists with the given entry count per level."""
    return [nest(sizes[1:]) for _ in range(sizes[0])] if sizes else F(0)


@pytest.mark.parametrize("off", [1, -1])
def test_values_one_level_too_deep_or_too_shallow_are_refused(off):
    """A nested value one level too deep (a sequence where a rational is
    due) or too shallow (a rational where a sequence is due) is refused with
    DimMismatch, for vector- and matrix-valued tensors and their users."""
    def wrong(*sizes):
        return nest(sizes + (2,) if off > 0 else sizes[:-1])

    for arity in (1, 2, 3):
        for shape in ((2,), (2, 2)):
            sizes = (2,) * arity + shape
            assert Tensor(nest(sizes), 2, arity, shape).support == {}
            with pytest.raises(DimMismatch):
                Tensor(wrong(*sizes), 2, arity, shape)
    binary, ternary = nest((2, 2, 2)), nest((2, 2, 2, 2))
    L.LYAlgebra(2, binary, ternary)
    with pytest.raises(DimMismatch):
        L.LYAlgebra(2, wrong(2, 2, 2), ternary)
    with pytest.raises(DimMismatch):
        L.LYAlgebra(2, binary, wrong(2, 2, 2, 2))
    ops = [binary, binary, ternary, ternary]
    PostLYAlgebra(2, *ops)
    for k in range(4):
        bad = list(ops)
        bad[k] = wrong(*((2,) * (k // 2 + 3)))
        with pytest.raises(DimMismatch):
            PostLYAlgebra(2, *bad)
    A = L.abelian(2)
    rho, mu = nest((2, 2, 2)), nest((2, 2, 2, 2))
    RepAction(A, A, rho, mu)
    with pytest.raises(DimMismatch):
        RepAction(A, A, wrong(2, 2, 2), mu)
    with pytest.raises(DimMismatch):
        RepAction(A, A, rho, wrong(2, 2, 2, 2))


def test_a_tensor_of_another_signature_is_refused(nilpotent4):
    A, r = nilpotent4, adjoint_rep(nilpotent4)
    for values, dim, arity, shape in ((A.binary, 4, 3, (4,)), (A.binary, 3, 2, (3,)),
                                      (A.binary, 4, 2, (3,)), (r.rho, 4, 1, (4, 3))):
        with pytest.raises(DimMismatch):
            Tensor(values, dim, arity, shape)
    with pytest.raises(DimMismatch):
        L.LYAlgebra(4, A.binary, A.binary)
    with pytest.raises(DimMismatch):
        L.LYAlgebra(3, L.abelian(4).binary, L.abelian(3).ternary)
    with pytest.raises(DimMismatch):
        PostLYAlgebra(4, A.binary, A.binary, A.ternary, A.binary)
    with pytest.raises(DimMismatch):
        RepAction(A, A, r.mu, r.mu)
    with pytest.raises(DimMismatch):
        RepAction(A, A, r.rho, r.rho)
    with pytest.raises(DimMismatch):
        RepAction(A, L.abelian(3), r.rho, r.mu)


@pytest.mark.parametrize("n", [0, 1])
def test_abelian_in_dim_0_and_1(n):
    A = L.abelian(n)
    zero = (F(0),) * n
    assert contract(A.binary, zero, zero) == zero
    assert contract(A.ternary, zero, zero, zero) == zero
    assert A.binary.support == {} and A.ternary.support == {}
    assert L.check_ly_axioms(A).passed


def test_action_of_a_zero_dim_algebra():
    r = RepAction(L.abelian(0), L.abelian(2), [], [])
    assert contract(r.rho, ()) == mzero(2, 2)
    assert contract(r.mu, (), ()) == mzero(2, 2) == contract(r.derived_D, (), ())
    assert nested(r.derived_D) == ()
    assert check_representation(r).passed
    rep = check_action(r)
    assert rep.passed and rep.data == {"center_dim": 2}


def test_action_on_a_zero_dim_carrier():
    e = ((), ())
    r = RepAction(L.abelian(2), L.abelian(0), list(e), [list(e), list(e)])
    x, y = (F(1), F(0)), (F(0), F(1))
    assert contract(r.rho, x) == () and contract(r.mu, x, y) == ()
    assert contract(r.derived_D, x, y) == ()
    assert nested(r.derived_D) == (e, e)
    assert check_representation(r).passed
    rep = check_action(r)
    assert rep.passed and rep.data == {"center_dim": 0}


def random_table(rng, dim, arity, shape):
    """A sparse table {index tuple: {row: q}} with random keys and entries,
    some of them zero, a matrix value's column in the last key slot, and its
    nested values."""
    entries = (list(range(shape[0])) if len(shape) == 1 else
               [(r, c) for r in range(shape[0]) for c in range(shape[1])])
    values, table = {}, {}
    for key in itertools.product(range(dim), repeat=arity):
        if entries and rng.random() < 0.4:
            values[key] = {e: rng.choice(POOL) for e in rng.sample(entries, rng.randint(1, 2))}
            for e, q in values[key].items():
                r, col = (e, ()) if len(shape) == 1 else (e[0], e[1:])
                table.setdefault(key + col, {})[r] = q

    def level(key):
        if len(key) == arity:
            return dense(values.get(key, {}), shape)
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
            assert contract(a, *slots) == oracles.ev(nested(b), *slots)
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


# ---------------------------------------------------------------------------
# the support format of matrix values: column c of the matrix at (i, .., k)
# is the value {row: q} keyed (i, .., k, c)

def matrix_tensors(p3):
    """Every matrix-valued tensor the library builds, by name."""
    loaded = lyio.load_action(fx("nilpotent4_adjoint.json"))
    adjoint = adjoint_rep(lyio.load_algebra(fx("nilpotent4.json")))
    # p3's induced representation and post action vanish; these two do not:
    # a square-zero operator's induced representation, and the action of the
    # post-algebra with e0*e0 = {e0,e0,e0} = e1 on an abelian base
    live = square_zero_operator(random.Random(401), 4, 3, 2)
    z2 = [[[0, 0], [0, 0]]] * 2
    e1 = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    small = PostLYAlgebra(2, z2, e1, [z2] * 2, [e1, z2])
    rng = random.Random(2023)
    out = {"nested (2, 3)": Tensor(random_values(rng, 3, 3, 2, 3), 3, 2, (2, 3)),
           "p3 action rho": p3.action.rho, "p3 action mu": p3.action.mu}
    for name, r in (("loaded", loaded), ("adjoint", adjoint),
                    ("p3 induced", L.induced_rep(p3)), ("live induced", L.induced_rep(live)),
                    ("p3 post action", L.induced_action(L.induced_post_from_rrb(p3))),
                    ("small post action", L.induced_action(small))):
        out.update({name + " rho": r.rho, name + " mu": r.mu, name + " D": r.derived_D})
    return out


def test_matrix_values_are_stored_by_column(p3):
    tensors = matrix_tensors(p3)
    assert all(tensors[name].support for name in (
        "nested (2, 3)", "loaded rho", "loaded mu", "loaded D", "live induced rho",
        "live induced mu", "live induced D", "small post action rho", "small post action mu"))
    rng = random.Random(2024)
    for name, t in tensors.items():
        rows, cols = t.shape
        for key, v in t.support.items():
            assert len(key) == t.arity + 1 and all(0 <= i < t.dim for i in key[:-1]), name
            assert 0 <= key[-1] < cols, name
            assert isinstance(v, dict) and v, name
            assert all(type(r) is int and 0 <= r < rows and q for r, q in v.items()), name
        for _ in range(3):
            vecs = [tuple(rng.choice(POOL) for _ in range(t.dim)) for _ in range(t.arity)]
            assert contract(t, *vecs) == oracles.ev(nested(t), *vecs), name
            idx = [rng.randrange(t.dim) for _ in range(t.arity)]
            value = nested(t)
            for i in idx:
                value = value[i]
            assert contract(t, *idx) == value, name


def test_loaded_matrix_entry_sits_at_its_column():
    """Entry (r, c) of rho(e_i) in the file is row r of the value at (i, c)."""
    with open(fx("nilpotent4_adjoint.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    r = lyio.load_action(fx("nilpotent4_adjoint.json"))
    want = {}
    for i, mx in enumerate(doc["rho"]):
        for row, entries in enumerate(mx):
            for c, q in enumerate(entries):
                if F(q):
                    want.setdefault((i, c), {})[row] = F(q)
    assert want and r.rho.support == want
