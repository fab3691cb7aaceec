"""Deformations of weight-1 operators: linear and order-n deformations,
equivalences, obstruction classes, and the extension solver.

A polynomial family T_t = T + t T_1 + ... + t^n T_n is an order-n deformation
when both defining equations hold over K[t]/(t^(n+1)); the coefficient of t^s
in the binary equation is

    sum_{i+j=s} ( [T_i u, T_j v] - T_i( rho(T_j u)v - rho(T_j v)u ) )
    - T_s([u, v]_h)

and analogously with a triple index sum for the ternary one.  The coefficient
of t^(n+1) of an extension splits as Ob + delta^T(T_{n+1}) where Ob collects
exactly the summands with all indices at most n; extendability is solvability
of delta^T(T_{n+1}) = -Ob over Hom(h, g).

Every coefficient comes from ``rrb.coefficients``, which tabulates it over the
supports of the brackets and the action and the nonzero entries of the T_i:
the checks scan the t^1..t^n tables, the obstruction reads the t^(n+1) table
of the same cached set, and a linear deformation reads t^1..t^3.
"""

import itertools
from dataclasses import dataclass

from .cohomology import Cochain, TComplex, pair_basis, partial_matrix, zero_cochain_map
from .errors import DimMismatch, Inconsistent, InvalidDeformation
from .linalg import (Q1, axpy, dense, is_zero_mat, is_zero_vec, mat, mat_add, mat_col,
                     mat_id, mat_mul, mat_sub, mat_vec, mat_zero, rank, skew_faults,
                     vadd, vsub, vzero)
from .reports import Checker, Report
from .rrb import coefficients


def _contract(r, table, *vecs):
    """The table {basis tuple: sparse vector} of a coefficient at ``vecs``."""
    m = r.carrier.dim
    if any(len(x) != m for x in vecs):
        raise DimMismatch("vectors must have length %d" % m)
    acc = {}
    for key, v in table.items():
        f = Q1
        for x, a in zip(vecs, key):
            f *= x[a]
        if f:
            axpy(acc, f, v)
    return dense(acc, (r.acting.dim,))


def binary_coefficient(r, Ts, s, u, v):
    """t^s coefficient of the binary defining equation for sum_i t^i T_i."""
    return _contract(r, coefficients(r, Ts, (s,))[s][0], u, v)


def ternary_coefficient(r, Ts, s, u, v, w):
    """t^s coefficient of the ternary defining equation for sum_i t^i T_i."""
    return _contract(r, coefficients(r, Ts, (s,))[s][1], u, v, w)


class OrderNDeformation:
    """T_t = T + t T_1 + ... + t^n T_n over a verified base operator."""

    def __init__(self, base, terms):
        base.ensure_verified()
        self.base = base
        n, m = base.action.acting.dim, base.action.carrier.dim
        self.terms = [mat(t) for t in terms]
        for t in self.terms:
            if len(t) != n or any(len(r) != m for r in t):
                raise DimMismatch("deformation terms must be %dx%d" % (n, m))
        self.order = len(self.terms)
        self._cx = None
        self._ob = None
        self._coefficients = None

    @property
    def all_terms(self):
        return [self.base.T] + self.terms

    def complex(self):
        if self._cx is None:
            self._cx = TComplex(self.base)
        return self._cx

    def coefficients(self):
        """The t^1..t^(n+1) coefficient tables (see ``rrb.coefficients``), built once."""
        if self._coefficients is None:
            self._coefficients = coefficients(self.base.action, self.all_terms,
                                              range(1, self.order + 2))
        return self._coefficients

    def __repr__(self):
        return "OrderNDeformation(order=%d)" % self.order


def check_order_n(d, all_violations=False):
    """Coefficients t^1..t^n of both defining equations on all basis tuples,
    read from the deformation's tables; witnesses come degree by degree, in
    lexicographic order with pairs first."""
    shape = (d.base.action.acting.dim,)
    tables = d.coefficients()
    ck = Checker("order-%d-deformation" % d.order, all_violations)
    for s in range(1, d.order + 1):
        binary, ternary = tables[s]
        ck.table(shape, ("deform-binary-t^%d" % s, binary))
        ck.table(shape, ("deform-ternary-t^%d" % s, ternary))
    return ck.report({"order": d.order})


def check_linear_deformation(op, T1, all_violations=False):
    """Per-coefficient verdicts for T + t*T1 (t^1..t^3 can be nonzero).

    The report fails when any coefficient survives; data lists the verdict per
    coefficient, read from whether its tables are empty, and whether T1 is
    closed for the operator's complex (the degree-1 cocycle condition, which
    the t^1 coefficient reproduces).
    """
    op.ensure_verified()
    r = op.action
    m = r.carrier.dim
    T1 = mat(T1)
    shape = (r.acting.dim,)
    tables = coefficients(r, [op.T, T1], (1, 2, 3))
    ck = Checker("linear-deformation", all_violations)
    per = {}
    for s in (1, 2, 3):
        binary, ternary = tables[s]
        ck.table(shape, ("deform-binary-t^%d" % s, binary))
        ck.table(shape, ("deform-ternary-t^%d" % s, ternary))
        per["t^%d" % s] = "fail" if binary or ternary else "pass"
    cx = TComplex(op)
    flat = _flatten_map(T1, m)
    closed = all(v == 0 for v in cx.matrix(1).apply(flat))
    return ck.report({"coefficient_verdicts": per, "t1_closed": closed})


def _flatten_map(T, m):
    out = []
    for a in range(m):
        out.extend(mat_col(T, a))
    return tuple(out)


def _unflatten_map(flat, n, m):
    cols = [flat[a * n:(a + 1) * n] for a in range(m)]
    return tuple(tuple(cols[a][t] for a in range(m)) for t in range(n))


def _by_degree(values, top, zero, add):
    """The sums of {index tuple: value} by index sum: coefficients t^0..t^top."""
    out = [zero] * (top + 1)
    for key, v in values.items():
        out[sum(key)] = add(out[sum(key)], v)
    return out


def check_equivalence(op, T1, T2, wedges, all_violations=False):
    """Whether (Id + t L(X), Id + t D(X)) is a homomorphism T+tT2 -> T+tT1.

    ``wedges`` lists (x, y) vector pairs whose sum is X in the wedge square of
    the acting algebra.  All homomorphism equations are expanded in t; the
    verdict covers the coefficients of t^0 and t^1 (the identities are read
    modulo t^2), higher coefficients are reported in the data payload.  Each
    product of the degree-0 and degree-1 parts at a basis tuple is formed
    once and summed by degree.
    """
    op.ensure_verified()
    r = op.action
    g, h = r.acting, r.carrier
    n, m = g.dim, h.dim
    T1, T2 = mat(T1), mat(T2)
    LX = mat_zero(n, n)
    DX = mat_zero(m, m)
    for x, y in wedges:
        LXc = [g.bracket3(x, y, g.e(i)) for i in range(n)]
        LX = mat_add(LX, tuple(tuple(LXc[i][t] for i in range(n)) for t in range(n)))
        DX = mat_add(DX, r.D_at(x, y))
    P, Q = (mat_id(n), LX), (mat_id(m), DX)
    ck = Checker("deformation-equivalence", all_violations)
    higher = {}

    def note(eq, args, s, res, zero_test):
        if zero_test(res):
            return
        if s <= 1:
            ck.record("%s-t^%d" % (eq, s), args, res)
        else:
            higher.setdefault(eq, set()).add(s)

    from_poly, to_poly = (op.T, T2), (op.T, T1)
    res = _by_degree({(a, b): mat_sub(mat_mul(P[a], from_poly[b]), mat_mul(to_poly[a], Q[b]))
                      for a, b in itertools.product((0, 1), repeat=2)},
                     2, mat_zero(n, m), mat_add)
    for s in range(3):
        note("intertwines-T", (), s, res[s], is_zero_mat)

    def homomorphism(alg, M, eq):
        """Both bracket equations for Id + t M on ``alg``."""
        d = alg.dim
        Ms = (mat_id(d), M)
        cols = [[mat_col(Mi, i) for i in range(d)] for Mi in Ms]
        for i, j in itertools.product(range(d), repeat=2):
            res = _by_degree({(a, b): alg.bracket2(cols[a][i], cols[b][j])
                              for a, b in itertools.product((0, 1), repeat=2)},
                             2, vzero(d), vadd)
            for s in range(3):
                if s <= 1:
                    res[s] = vsub(res[s], mat_vec(Ms[s], alg.binary[i][j]))
                note(eq + "-binary", (i, j), s, res[s], is_zero_vec)
            for k in range(d):
                res = _by_degree({abc: alg.bracket3(cols[abc[0]][i], cols[abc[1]][j],
                                                    cols[abc[2]][k])
                                  for abc in itertools.product((0, 1), repeat=3)},
                                 3, vzero(d), vadd)
                for s in range(4):
                    if s <= 1:
                        res[s] = vsub(res[s], mat_vec(Ms[s], alg.ternary[i][j][k]))
                    note(eq + "-ternary", (i, j, k), s, res[s], is_zero_vec)

    homomorphism(g, LX, "psi_g")
    homomorphism(h, DX, "psi_h")
    pe = [[mat_col(Pa, i) for i in range(n)] for Pa in P]
    zero = mat_zero(m, m)
    for i in range(n):
        rho = [r.rho_at(pe[a][i]) for a in (0, 1)]
        res = _by_degree({(a, c): mat_mul(rho[a], Q[c])
                          for a, c in itertools.product((0, 1), repeat=2)},
                         2, zero, mat_add)
        for s in range(3):
            if s <= 1:
                res[s] = mat_sub(res[s], mat_mul(Q[s], r.rho[i]))
            note("rho-equivariance", (i,), s, res[s], is_zero_mat)
        for j in range(n):
            mus, Ds = {}, {}
            for a, b in itertools.product((0, 1), repeat=2):
                mu_ab, D_ab = r.mu_at(pe[a][i], pe[b][j]), r.D_at(pe[a][i], pe[b][j])
                for c in (0, 1):
                    mus[a, b, c] = mat_mul(mu_ab, Q[c])
                    Ds[a, b, c] = mat_mul(D_ab, Q[c])
            resm = _by_degree(mus, 3, zero, mat_add)
            resd = _by_degree(Ds, 3, zero, mat_add)
            for s in range(4):
                if s <= 1:
                    resm[s] = mat_sub(resm[s], mat_mul(Q[s], r.mu[i][j]))
                    resd[s] = mat_sub(resd[s], mat_mul(Q[s], r.derived_D[i][j]))
                note("mu-equivariance", (i, j), s, resm[s], is_zero_mat)
                note("D-equivariance", (i, j), s, resd[s], is_zero_mat)

    boundary = mat_zero(n, m)
    for x, y in wedges:
        pc = zero_cochain_map(op, x, y)
        boundary = mat_add(boundary, tuple(tuple(pc.f[a][t] for a in range(m))
                                           for t in range(n)))
    diff_ok = is_zero_mat(mat_sub(mat_sub(T2, T1), boundary))
    data = {"difference_equals_boundary": diff_ok,
            "higher_order_residual_degrees": {k: sorted(v) for k, v in sorted(higher.items())}}
    return ck.report(data)


@dataclass
class ObstructionClass:
    ob_I: list        # per pair (a < b) of carrier basis indices, a value vector
    ob_II: list       # per (pair, plain index), a value vector
    as_cochain: Cochain
    closed: bool


def obstruction_class(d):
    """The degree-2 cochain obstructing extension of an order-n deformation.

    Its components are the t^(n+1) coefficients of both defining equations
    with every index in 0..n, that is with T_(n+1) = 0; its coboundary must
    vanish (checked), and extension is solvable iff it is a coboundary.  The
    class is built once per deformation and then cached.
    """
    if d._ob is not None:
        return d._ob
    rep = check_order_n(d)
    if not rep.passed:
        raise InvalidDeformation("not an order-%d deformation" % d.order)
    n, m = d.base.action.acting.dim, d.base.action.carrier.dim
    first, second = d.coefficients()[d.order + 1]
    # the first component must be alternating to be a cochain
    fault = min((k for k in skew_faults(first) if k[0] >= k[1]), default=None)
    if fault is not None:
        raise InvalidDeformation("first component not alternating" if fault[0] == fault[1]
                                 else "first component not antisymmetric")
    prs = pair_basis(m)
    fs = [dense(first.get(p, {}), (n,)) for p in prs]
    gs = [dense(second.get((a, b, c), {}), (n,)) for (a, b) in prs for c in range(m)]
    c2 = Cochain(2, m, n, fs, gs)
    cx = d.complex()
    closed = all(v == 0 for v in cx.matrix(2).apply(c2.as_flat()))
    d._ob = ObstructionClass(fs, gs, c2, closed)
    return d._ob


def extend(d):
    """Try to solve delta^T(T_{n+1}) = -Ob; returns (T_{n+1} or None, report).

    On failure the report carries a rank certificate showing the right-hand
    side lies outside the column space of the degree-1 coboundary matrix.
    """
    ob = obstruction_class(d)
    cx = d.complex()
    A = cx.matrix(1)
    rhs = tuple(-v for v in ob.as_cochain.as_flat())
    m, n = d.base.action.carrier.dim, d.base.action.acting.dim
    data = {"obstruction_closed": ob.closed}
    try:
        x = A.solve(rhs)
    except Inconsistent:
        rows = A.row_dicts()
        rk = rank(rows)
        rk_aug = rank([{**row, A.cols: b} for row, b in zip(rows, rhs)])
        data.update({"extendable": False, "rank": rk, "rank_augmented": rk_aug})
        rep = Report("deformation-extension", "fail", [], data)
        return None, rep
    t_next = _unflatten_map(x, n, m)
    data.update({"extendable": True})
    rep = Report("deformation-extension", "pass", [], data)
    return t_next, rep


def difference_class(op, T1, T2):
    """Decide whether T2 - T1 is the boundary of some X in the wedge square.

    Solves partial(X) = T2 - T1; on success the data payload carries X's
    coordinates on the (i < j) pair basis of the acting algebra.
    """
    op.ensure_verified()
    diff = mat_sub(mat(T2), mat(T1))
    rhs = _flatten_map(diff, op.action.carrier.dim)
    try:
        x = partial_matrix(op).solve(rhs)
    except Inconsistent:
        return Report("difference-class", "fail", [],
                      {"cohomologous": False})
    from .linalg import format_frac
    return Report("difference-class", "pass", [],
                  {"cohomologous": True,
                   "X_pair_coordinates": [format_frac(c) for c in x]})
