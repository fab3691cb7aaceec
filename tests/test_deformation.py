import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg import io as lyio
from lyalg.cli import run
from lyalg.cohomology import TComplex, zero_cochain_map
from lyalg.deformation import (OrderNDeformation, binary_coefficient,
                               check_equivalence, check_linear_deformation,
                               check_order_n, difference_class, extend,
                               obstruction_class, ternary_coefficient)
from lyalg.errors import DimMismatch, InvalidDeformation
from lyalg.linalg import SparseMat, dense as to_dense, format_frac, mat
from lyalg.rrb import Expansion

import oracles
from conftest import fx
from families import (NONZERO_PARTIAL_SEEDS, basis_vector, dense, family_matrix,
                      heisenberg5_operator, listed, p3_operator, random_matrix,
                      square_zero_operator, two_step_operator)
from oracles import madd, mid, mzero


def test_zero_terms_pass(p3):
    d = OrderNDeformation(p3, [mzero(4, 4)])
    assert check_order_n(d).passed
    ob = obstruction_class(d)
    assert ob.as_cochain.is_zero() and ob.closed
    t2, rep = extend(d)
    assert rep.passed and t2.dense() == mzero(4, 4)


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
    cases = [(p3.action, [p3.T, mat(random_matrix(rng, 4, 4)).dense(),
                          mat(random_matrix(rng, 4, 4)).dense()]),
             (p3.action, [mat(dense(rng, 4, 4)).dense()]),
             (h5.action, [h5.T, mat(dense(rng, 5, 5)).dense()])]
    nonzero = set()
    for r, Ts in cases:
        h, n = r.carrier, r.acting.dim
        top = 3 * (len(Ts) - 1)        # no coefficient survives above this degree
        ex = Expansion(r, Ts)
        assert ex.table(2, top + 1) == {} and ex.table(3, top + 1) == {}
        basis = [basis_vector(h.dim, a) for a in range(h.dim)]
        for args in itertools.product(range(h.dim), repeat=2):
            want = oracles.poly_binary_residual(r, Ts, *(basis[a] for a in args), top + 1)
            for s in range(top + 1):
                assert to_dense(ex.table(2, s).get(args, {}), (n,)) == want[s]
                if any(want[s]):
                    nonzero.add(("binary", s))
        for args in itertools.product(range(h.dim), repeat=3):
            want = oracles.poly_ternary_residual(r, Ts, *(basis[a] for a in args), top + 1)
            for s in range(top + 1):
                assert to_dense(ex.table(3, s).get(args, {}), (n,)) == want[s]
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


def test_coefficients_read_rational_strings_and_check_shapes(p3):
    """The public coefficients read their maps as every map-taking entry
    point does: "p/q" strings as their Fractions, a wrong shape DimMismatch."""
    rng = random.Random(5191)
    r = p3.action
    Ts = [p3.T.dense(), mat(dense(rng, 4, 4)).dense()]
    strings = [[[format_frac(q) for q in row] for row in T] for T in Ts]
    assert any("/" in q for T in strings for row in T for q in row)
    u, v, w = (tuple(rng.choice([F(0), F(1), F(-2), F(1, 3)]) for _ in range(4))
               for _ in range(3))
    for s in range(4):
        assert binary_coefficient(r, strings, s, u, v) == binary_coefficient(r, Ts, s, u, v)
        assert ternary_coefficient(r, strings, s, u, v, w) \
            == ternary_coefficient(r, Ts, s, u, v, w)
    assert any(binary_coefficient(r, Ts, 1, u, v))
    T = p3.T.dense()
    for bad in ([T[:3]], [T, [row[:3] for row in T]]):
        with pytest.raises(DimMismatch, match=r"^each T_i must be 4x4 \(carrier -> acting\)$"):
            binary_coefficient(r, bad, 0, u, v)
        with pytest.raises(DimMismatch, match=r"^each T_i must be 4x4 \(carrier -> acting\)$"):
            ternary_coefficient(r, bad, 0, u, v, w)


def failing_deformations(op, orders, seed=5190):
    """Terms of each order that fail to make an order-n deformation of
    ``op``: every term dense, or T_1..T_(n-1) zero and T_n dense, so that t^n
    is the first failing degree."""
    rng = random.Random(seed)
    n, m = op.action.acting.dim, op.action.carrier.dim
    for order in orders:
        yield [mat(dense(rng, n, m)).dense() for _ in range(order)]
        if order > 1:
            yield [mzero(n, m)] * (order - 1) + [mat(dense(rng, n, m)).dense()]


def square_zero_and_two_step():
    """A square-zero operator whose induced representation is live, and the
    dim-5 two-step operator."""
    return (square_zero_operator(random.Random(401), 3, 3, 1),
            two_step_operator(random.Random(5005), 3, 1, 1))


def oracle_order_n(op, terms):
    """Every nonzero t^1..t^n coefficient of both equations on the basis
    tuples, from the dense polynomial expansion, in the report's order."""
    r, h = op.action, op.action.carrier
    Ts, n = [op.T] + list(terms), len(terms)
    basis = [basis_vector(h.dim, a) for a in range(h.dim)]
    equations = [(name, {args: poly(r, Ts, *(basis[a] for a in args), n + 1)
                         for args in itertools.product(range(h.dim), repeat=arity)})
                 for name, arity, poly in (("binary", 2, oracles.poly_binary_residual),
                                           ("ternary", 3, oracles.poly_ternary_residual))]
    return [("deform-%s-t^%d" % (name, s), args, c[s]) for s in range(1, n + 1)
            for name, coefficients in equations for args, c in coefficients.items() if any(c[s])]


def test_failing_order_n_never_builds_the_obstruction_degree(p3, monkeypatch):
    """A deformation failing at t^1..t^n never builds a t^(n+1) table or
    inner sum, capped, in full or through the obstruction, and a capped check
    stops at the degree of its tenth witness; a passing one builds t^(n+1)
    for its obstruction only."""
    from lyalg import rrb
    degrees = []
    graded = rrb.graded

    def recording(acc, sign, values, polys, s, positions=None):
        degrees.append(s)
        return graded(acc, sign, values, polys, s, positions)

    monkeypatch.setattr(rrb, "graded", recording)
    settled = 0
    for op in (p3,) + square_zero_and_two_step():
        zero = mzero(op.action.acting.dim, op.action.carrier.dim)
        for terms in failing_deformations(op, (1, 2, 3)):
            n = len(terms)
            d = OrderNDeformation(op, terms)
            degrees.clear()
            rep = check_order_n(d)
            assert not rep.passed
            if len(rep.violations) == 10:
                settled += 1
                assert max(degrees) == int(rep.violations[-1].eq.split("^")[1])
            with pytest.raises(InvalidDeformation):
                obstruction_class(d)
            assert not check_order_n(d, all_violations=True).passed
            assert max(degrees) == n
            d = OrderNDeformation(op, [zero] * n)
            degrees.clear()
            assert check_order_n(d).passed and max(degrees) == n
            obstruction_class(d)
            assert max(degrees) == n + 1
    assert settled >= 5


def test_failing_order_n_witnesses_match_polynomial_oracle(p3):
    """Capped and full reports of failing deformations list the oracle's
    witnesses, every failing degree included.  The dense oracle takes seconds
    a case on p3 at order 3 and on the dim-5 operator, so those are left to
    the test above."""
    square_zero, _ = square_zero_and_two_step()
    failing = set()
    for op, orders in ((p3, (1, 2)), (square_zero, (1, 2, 3))):
        for terms in failing_deformations(op, orders):
            want = oracle_order_n(op, terms)
            assert want
            assert listed(check_order_n(OrderNDeformation(op, terms),
                                        all_violations=True)) == want
            assert listed(check_order_n(OrderNDeformation(op, terms))) == want[:10]
            failing.add(len({eq.split("^")[1] for eq, _, _ in want}))
    assert max(failing) >= 2


def test_linear_deformation_family(p3, rng):
    for _ in range(5):
        T1 = family_matrix(rng)
        rep = check_linear_deformation(p3, T1)
        assert rep.passed
        assert rep.data["t1_closed"]
        assert rep.data["coefficient_verdicts"] == {
            "t^1": "pass", "t^2": "pass", "t^3": "pass"}


def test_linear_deformation_failure(p3):
    rep = check_linear_deformation(p3, mid(4))
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
    e = [basis_vector(4, a) for a in range(4)]
    prs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    terms = [mat(family_matrix(rng)).dense() for _ in range(5)] + cocycle_terms(tcomplex)
    nonzero = 0
    for T1 in terms:
        d = OrderNDeformation(p3, [T1])
        ob = obstruction_class(d)
        assert ob.closed
        nonzero += not ob.as_cochain.is_zero()
        # brute force: t^2 coefficient with T_2 = 0
        Ts = [p3.T, T1]
        for t, (a, b) in enumerate(prs):
            want = oracles.poly_binary_residual(p3.action, Ts, e[a], e[b], 3)[2]
            assert ob.ob_I[t] == want
        i = 0
        for (a, b) in prs:
            for c in range(4):
                want = oracles.poly_ternary_residual(p3.action, Ts, e[a], e[b], e[c], 3)[2]
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
    d = OrderNDeformation(p3, [mid(4)])
    with pytest.raises(InvalidDeformation):
        obstruction_class(d)


def test_equivalence_trivial(p3):
    T1 = mzero(4, 4)
    rep = check_equivalence(p3, T1, T1, [])
    assert rep.passed
    assert rep.data["difference_equals_boundary"]


def test_equivalence_with_boundary(p3, rng):
    T1 = mat(family_matrix(rng)).dense()
    x, y = basis_vector(4, 0), basis_vector(4, 1)
    pc = zero_cochain_map(p3, x, y)
    bound = tuple(tuple(pc.f[a][t] for a in range(4)) for t in range(4))
    T2 = madd(T1, bound)
    rep = check_equivalence(p3, T1, T2, [(x, y)])
    assert rep.passed and rep.data["difference_equals_boundary"]


def test_difference_class(p3, rng):
    T1 = mat(family_matrix(rng)).dense()
    rep = difference_class(p3, T1, T1)
    assert rep.passed and rep.data["cohomologous"]
    # the partial map is zero on this fixture, so any nonzero difference is
    # not a boundary
    T2 = madd(T1, mid(4))
    rep = difference_class(p3, T1, T2)
    assert not rep.passed and not rep.data["cohomologous"]


def test_abelian_fixture_everything_trivial():
    A = L.abelian(2)
    zero = mzero(2, 2)
    rho = [zero, zero]
    mu = [[zero, zero], [zero, zero]]
    r = L.RepAction(A, A, rho, mu)
    r.ensure_action()
    op = L.RRBOperator(r, mid(2))
    op.ensure_verified()
    rng = random.Random(55)
    T1 = random_matrix(rng, 2, 2)
    assert check_linear_deformation(op, T1).passed
    d = OrderNDeformation(op, [T1])
    ob = obstruction_class(d)
    assert ob.as_cochain.is_zero() and ob.closed


def operator_doc(op):
    """The operator file of ``op``, its algebras inline and entries "p/q"."""
    r = op.action
    g = range(r.acting.dim)
    return {"action": {"acting": lyio.dump_structure(r.acting),
                       "carrier": lyio.dump_structure(r.carrier),
                       "rho": [lyio.dump_matrix(L.contract(r.rho, i)) for i in g],
                       "mu": [[lyio.dump_matrix(L.contract(r.mu, i, j)) for j in g] for i in g]},
            "T": lyio.dump_matrix(op.T)}


def test_cli_obstruction_is_the_formatted_class(tmp_path, capsys):
    """On a live square-zero operator, sums of 1-cocycles are order-1
    deformations whose obstruction is often nonzero and not a coboundary.
    The CLI's ob_I and ob_II are the class's f and g vectors formatted
    entry by entry, and t_next, when there is one, the rows of extend's map."""
    op = square_zero_operator(random.Random(5107), 4, 3, 2)
    n, m = 4, 3
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_doc(op)))
    cocycles = TComplex(op).matrix(1).nullspace()
    rng, outcomes = random.Random(1), []
    for _ in range(6):
        v = {}
        for w in cocycles:
            c = rng.choice([0, 1, -1, 2])
            for k, q in w.items():
                v[k] = v.get(k, 0) + c * q
        term = mat({(k % n, k // n): q for k, q in v.items()}, (n, m))
        (tmp_path / "t1.json").write_text(json.dumps({"matrix": lyio.dump_matrix(term)}))
        assert run(["deform", "obstruct", "--op", str(path), "--terms", str(tmp_path / "t1.json"),
                    "--extend", "--json"]) in (0, 1)
        data = json.loads(capsys.readouterr().out)["data"]
        d = OrderNDeformation(op, [term])
        ob, (t2, _) = obstruction_class(d), extend(d)
        assert data["ob_I"] == [[format_frac(q) for q in vec] for vec in ob.ob_I]
        assert data["ob_II"] == [[format_frac(q) for q in vec] for vec in ob.ob_II]
        assert data.get("t_next") == (None if t2 is None else lyio.dump_matrix(t2.dense()))
        outcomes.append((ob.as_cochain.is_zero(), t2 is None))
    assert outcomes == [(False, True)] * 2 + [(True, False)] * 2 + [(False, True)] * 2


def test_obstruct_extend_checks_the_deformation_once(monkeypatch, capsys):
    """The CLI builds the t^(n+1) tables of the obstruction once, and extend
    reuses the obstruction: its coboundary is taken once.  A build is a call
    of ``Expansion.table`` that returns a table no call has returned before."""
    from lyalg import rrb
    from lyalg.cohomology import TComplex
    table, coboundary, seen, built, closed = rrb.Expansion.table, TComplex.coboundary, [], [], []

    def recording(self, arity, s):
        t = table(self, arity, s)
        if not any(t is u for u in seen):
            seen.append(t)
            built.append((arity, s))
        return t

    def counting(self, c):
        closed.append(1)
        return coboundary(self, c)

    monkeypatch.setattr(rrb.Expansion, "table", recording)
    monkeypatch.setattr(TComplex, "coboundary", counting)
    code = run(["deform", "obstruct", "--op", fx("p3_on_nilpotent4.json"),
                "--terms", fx("t1_family.json"), "--extend", "--json"])
    out = capsys.readouterr().out
    assert code == 0 and len(closed) == 1
    assert sorted(built) == [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6a7f0d42df3c4cfa013c830d6efc0c2e8aed910c53f9c089aa5ad16911bf8d2d")


def binary_closed_term(op):
    """A term X whose t^1 binary table vanishes and whose t^1 ternary table
    does not, from the kernel of X -> the binary table, or None."""
    r = op.action
    n, m = r.acting.dim, r.carrier.dim
    images = []
    for t, a in itertools.product(range(n), range(m)):
        ex = Expansion(r, [op.T, mat({(t, a): 1}, (n, m))])
        images.append([{(k, x): q for k, v in ex.table(arity, 1).items() for x, q in v.items()}
                       for arity in (2, 3)])
    keys = sorted({k for binary, _ in images for k in binary})
    entries = {(i, j): binary[k] for i, k in enumerate(keys)
               for j, (binary, _) in enumerate(images) if k in binary}
    for x in SparseMat(len(keys), n * m, entries).nullspace():
        term = mat({divmod(j, m): q for j, q in x.items()}, (n, m))
        if Expansion(r, [op.T, term]).table(3, 1):
            return term.dense()
    return None


def order_n_cases():
    """(op, terms, expected verdict) for p3, the square-zero and two-step
    operators and heisenberg5 at orders 1-3: zero terms, a closed term in the
    top degree, family terms and their extension, and failing terms whose
    first non-empty table is of each kind (binary or ternary, below or at the
    top degree); on the square-zero operator one term makes only the top
    ternary table non-empty."""
    square_zero, two_step = square_zero_and_two_step()
    rng = random.Random(5201)
    p3 = p3_operator()
    for op in (p3, square_zero, two_step, heisenberg5_operator(random.Random(5163))):
        n, m = op.action.acting.dim, op.action.carrier.dim
        zero = mzero(n, m)
        closed = [tuple(tuple(z.get(t + n * a, F(0)) for a in range(m)) for t in range(n))
                  for z in L.TComplex(op).matrix(1).nullspace()[:2]]
        X = binary_closed_term(op)
        for order in (1, 2, 3):
            yield op, [zero] * order, True
            for Z in closed:
                yield op, [zero] * (order - 1) + [Z], True
            yield op, [mat(dense(rng, n, m)).dense() for _ in range(order)], False
            yield op, [zero] * (order - 1) + [mat(dense(rng, n, m)).dense()], False
            if X is not None:
                yield op, [zero] * (order - 1) + [X], False
                if order > 1:
                    yield op, [X] + [zero] * (order - 1), False
    for T1 in (family_matrix(rng) for _ in range(5)):
        # the family's linear deformations pass at t^1..t^3
        yield p3, [T1, mzero(4, 4), mzero(4, 4)], True
        t2, _ = extend(OrderNDeformation(p3, [T1]))
        if t2 is not None:
            yield p3, [T1, t2], True


def first_failing_table(op, terms):
    """(arity, s) of the first non-empty order-n table, from the full report."""
    rep = check_order_n(OrderNDeformation(op, terms), all_violations=True)
    name, s = rep.violations[0].eq.split("-t^")
    return 2 if name.endswith("binary") else 3, int(s)


def test_obstruction_verdict_agrees_with_check_order_n():
    """obstruction_class raises InvalidDeformation exactly when check_order_n
    fails, on passing terms and on failing terms whose first non-empty table
    is each of the four kinds, a ternary table at the top degree alone
    included."""
    kinds, top_ternary_only = set(), 0
    for op, terms, passed in order_n_cases():
        assert check_order_n(OrderNDeformation(op, terms)).passed is passed
        d = OrderNDeformation(op, terms)
        if passed:
            obstruction_class(d)
        else:
            with pytest.raises(InvalidDeformation, match=r"^not an order-%d deformation$"
                               % len(terms)):
                obstruction_class(d)
            arity, s = first_failing_table(op, terms)
            kinds.add((arity, s == len(terms)))
            ex = d.coefficients()
            top_ternary_only += [k for k in itertools.product((2, 3), range(1, len(terms) + 1))
                                 if ex.table(*k)] == [(3, len(terms))]
    assert kinds == {(2, False), (2, True), (3, False), (3, True)}
    assert top_ternary_only >= 3


def test_failing_obstruct_builds_no_table_after_the_first_nonempty(monkeypatch, capsys,
                                                                   tmp_path):
    """A failing ``deform obstruct`` reads the order-n tables up to the first
    non-empty one and builds no table or inner sum after it: on p3 with a
    dense term, RRB2's t^1 table and J_1 are never built.  The library call
    stops alike where the first non-empty table is binary at the top degree,
    or ternary."""
    from lyalg import rrb
    table, inner, built = rrb.Expansion.table, rrb.Expansion.inner, []

    def recording(self, arity, s):
        t = table(self, arity, s)
        built.append((arity, s, bool(t)))
        return t

    def reading(self, arity, p):
        built.append(("inner", arity, p))
        return inner(self, arity, p)

    monkeypatch.setattr(rrb.Expansion, "table", recording)
    monkeypatch.setattr(rrb.Expansion, "inner", reading)
    p3 = p3_operator()
    term = tmp_path / "term.json"
    term.write_text(json.dumps({"matrix": [[format_frac(q) for q in row] for row in
                                           mat(dense(random.Random(5202), 4, 4)).dense()]}))
    built.clear()
    code = run(["deform", "obstruct", "--op", fx("p3_on_nilpotent4.json"), "--terms",
                str(term), "--extend", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["data"] == {"error": "not an order-1 deformation"}

    def stopped_at(last):
        """The tables read end at ``last``, the first non-empty one, and no
        inner sum of a higher degree is built."""
        tables = [b for b in built if b[0] != "inner"]
        assert tables[-1] == last + (True,) and not any(b[2] for b in tables[:-1])
        assert max(b[2] for b in built if b[0] == "inner") == last[1]

    stopped_at((2, 1))
    assert ("inner", 3, 1) not in built
    square_zero, _ = square_zero_and_two_step()
    n, m = square_zero.action.acting.dim, square_zero.action.carrier.dim
    for op, terms, last in ((p3, [mzero(4, 4), mat(dense(random.Random(5203), 4, 4)).dense()],
                             (2, 2)),
                            (square_zero, [mzero(n, m), binary_closed_term(square_zero)],
                             (3, 2))):
        d = OrderNDeformation(op, terms)
        built.clear()
        with pytest.raises(InvalidDeformation):
            obstruction_class(d)
        stopped_at(last)


def test_extended_expansion_equals_a_fresh_one(p3):
    """A deformation's expansion, and a linear deformation's, extend the base
    operator's: the degree-0 inner sums and t^0 tables are the base's own
    objects, and every table up to t^(n+1) equals a fresh expansion's.  The
    base's own higher degrees, read first here, vanish and are not taken over."""
    rng = random.Random(5204)
    square_zero, two_step = square_zero_and_two_step()
    for op in (p3, square_zero, two_step):
        n, m = op.action.acting.dim, op.action.carrier.dim
        base = op.expansion
        assert base.table(2, 3) == base.table(3, 3) == {}
        for order in (1, 2, 3):
            terms = [mat(dense(rng, n, m)).dense() for _ in range(order)]
            ex = OrderNDeformation(op, terms).coefficients()
            fresh = Expansion(op.action, [op.T] + terms)
            for arity in (2, 3):
                assert ex.inner(arity, 0) is base.inner(arity, 0)
                assert ex.table(arity, 0) is base.table(arity, 0)
                for s in range(order + 2):
                    assert ex.table(arity, s) == fresh.table(arity, s)
                    assert ex.inner(arity, s) == fresh.inner(arity, s)
        T1 = mat(dense(rng, n, m)).dense()
        fresh = Expansion(op.action, [op.T, T1])
        rep = check_linear_deformation(op, T1, all_violations=True)
        assert rep.data["coefficient_verdicts"] == {
            "t^%d" % s: "fail" if fresh.table(2, s) or fresh.table(3, s) else "pass"
            for s in (1, 2, 3)}
        assert listed(rep) == [("deform-%s-t^%d" % (name, s), k, to_dense(v, (n,)))
                               for s in (1, 2, 3)
                               for name, arity in (("binary", 2), ("ternary", 3))
                               for k, v in sorted(fresh.table(arity, s).items())]


def nonzero_partial_cases():
    """Square-zero operators with a nonzero partial map, each with
    X = e0/\\e1 + 2 e1/\\e3."""
    for seed in NONZERO_PARTIAL_SEEDS:
        op = square_zero_operator(random.Random(seed), 4, 3, 2)
        e = [basis_vector(op.action.acting.dim, i) for i in range(4)]
        wedges = [(e[0], e[1]), (tuple(2 * x for x in e[1]), e[3])]
        yield seed, op, wedges


def oracle_boundary(op, wedges):
    """partial(X) as an n x m matrix, from the oracle's closed form."""
    oc = oracles.OpOracle(op)
    n, m = op.action.acting.dim, op.action.carrier.dim
    return tuple(tuple(sum((oc.partial(x, y, basis_vector(m, a))[t] for x, y in wedges), F(0))
                       for a in range(m)) for t in range(n))


def test_equivalence_difference_where_partial_is_nonzero():
    for seed, op, wedges in nonzero_partial_cases():
        n, m = op.action.acting.dim, op.action.carrier.dim
        bound = oracle_boundary(op, wedges)
        assert any(map(any, bound)), seed
        rng = random.Random(seed)
        T1 = mat(random_matrix(rng, n, m)).dense()
        T2 = madd(T1, bound)
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
        T1 = mat(random_matrix(rng, n, m)).dense()
        T2 = madd(T1, oracle_boundary(op, wedges))
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


def test_t1_closed_is_the_coboundary_of_t1(p3):
    """``t1_closed``, read off the t^1 tables, is whether delta^T of T1 as a
    degree-1 cochain vanishes, for T1 drawn from Z^1 and at random."""
    ops = [p3] + [op for _, op, _ in nonzero_partial_cases()] \
        + [two_step_operator(random.Random(seed), 3, 1, 1) for seed in (5005, 5006)]
    seen = set()
    for case, op in enumerate(ops):
        n, m = op.action.acting.dim, op.action.carrier.dim
        cx = L.TComplex(op)
        z = cx.matrix(1).nullspace()
        rng = random.Random(case)
        for k in range(6):
            if k % 2:
                coeffs = [rng.choice([F(0), F(1), F(-2)]) for _ in z]
                flat = [sum((c * w.get(j, F(0)) for c, w in zip(coeffs, z)), F(0))
                        for j in range(m * n)]
            else:
                flat = [rng.choice([F(0), F(1), F(1, 2)]) for _ in range(m * n)]
            T1 = tuple(tuple(flat[a * n + t] for a in range(m)) for t in range(n))
            c = L.Cochain.from_support(1, m, n, dict(enumerate(flat)))
            want = cx.coboundary(c).is_zero()
            assert check_linear_deformation(op, T1).data["t1_closed"] is want, (case, k)
            seen.add(want)
    assert seen == {True, False}
