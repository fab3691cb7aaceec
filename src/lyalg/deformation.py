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
"""

from dataclasses import dataclass

from .cohomology import Cochain, TComplex, pair_basis
from .errors import DimMismatch, Inconsistent, InvalidDeformation
from .linalg import (Q0, is_zero_mat, is_zero_vec, mat, mat_add, mat_col,
                     mat_mul, mat_sub, mat_vec, mat_zero, rank, vadd,
                     vscale, vsub, vzero)
from .reports import Checker, Report


def binary_coefficient(r, Ts, s, u, v):
    """t^s coefficient of the binary defining equation for sum_i t^i T_i."""
    g, h = r.acting, r.carrier
    res = vzero(g.dim)
    for i in range(0, s + 1):
        j = s - i
        if i >= len(Ts) or j >= len(Ts):
            continue
        res = vadd(res, g.bracket2(mat_vec(Ts[i], u), mat_vec(Ts[j], v)))
        inner = vsub(mat_vec(r.rho_at(mat_vec(Ts[j], u)), v),
                     mat_vec(r.rho_at(mat_vec(Ts[j], v)), u))
        res = vsub(res, mat_vec(Ts[i], inner))
    if s < len(Ts):
        res = vsub(res, mat_vec(Ts[s], h.bracket2(u, v)))
    return res


def ternary_coefficient(r, Ts, s, u, v, w):
    """t^s coefficient of the ternary defining equation for sum_i t^i T_i."""
    g, h = r.acting, r.carrier
    res = vzero(g.dim)
    for i in range(0, s + 1):
        for j in range(0, s - i + 1):
            k = s - i - j
            if i >= len(Ts) or j >= len(Ts) or k >= len(Ts):
                continue
            Tu = mat_vec(Ts[i], u)
            Tv, Tw = mat_vec(Ts[j], v), mat_vec(Ts[k], w)
            res = vadd(res, g.bracket3(Tu, Tv, Tw))
            inner = vadd(mat_vec(r.D_at(mat_vec(Ts[j], u), mat_vec(Ts[k], v)), w),
                         vsub(mat_vec(r.mu_at(Tv, Tw), u),
                              mat_vec(r.mu_at(mat_vec(Ts[j], u), Tw), v)))
            res = vsub(res, mat_vec(Ts[i], inner))
    if s < len(Ts):
        res = vsub(res, mat_vec(Ts[s], h.bracket3(u, v, w)))
    return res


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

    @property
    def all_terms(self):
        return [self.base.T] + self.terms

    def complex(self):
        if self._cx is None:
            self._cx = TComplex(self.base)
        return self._cx

    def __repr__(self):
        return "OrderNDeformation(order=%d)" % self.order


def check_order_n(d, all_violations=False):
    """Coefficients t^1..t^n of both defining equations on all basis tuples."""
    r = d.base.action
    h = r.carrier
    m = h.dim
    Ts = d.all_terms
    ck = Checker("order-%d-deformation" % d.order, all_violations)
    for s in range(1, d.order + 1):
        for a, b in ck.tuples(m, 2):
            res = binary_coefficient(r, Ts, s, h.e(a), h.e(b))
            if not is_zero_vec(res):
                ck.record("deform-binary-t^%d" % s, (a, b), res)
        for a, b, c in ck.tuples(m, 3):
            res = ternary_coefficient(r, Ts, s, h.e(a), h.e(b), h.e(c))
            if not is_zero_vec(res):
                ck.record("deform-ternary-t^%d" % s, (a, b, c), res)
    return ck.report({"order": d.order})


def check_linear_deformation(op, T1, all_violations=False):
    """Per-coefficient verdicts for T + t*T1 (t^1..t^3 can be nonzero).

    The report fails when any coefficient survives; data lists the verdict per
    coefficient and whether T1 is closed for the operator's complex (the
    degree-1 cocycle condition, which the t^1 coefficient reproduces).
    """
    op.ensure_verified()
    r = op.action
    h = r.carrier
    m = h.dim
    T1 = mat(T1)
    Ts = [op.T, T1]
    ck = Checker("linear-deformation", all_violations)
    per = {}
    for s in (1, 2, 3):
        ok = True
        if s <= 2:
            for a in range(m):
                for b in range(m):
                    res = binary_coefficient(r, Ts, s, h.e(a), h.e(b))
                    if not is_zero_vec(res):
                        ok = False
                        ck.record("deform-binary-t^%d" % s, (a, b), res)
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    res = ternary_coefficient(r, Ts, s, h.e(a), h.e(b), h.e(c))
                    if not is_zero_vec(res):
                        ok = False
                        ck.record("deform-ternary-t^%d" % s, (a, b, c), res)
        per["t^%d" % s] = "pass" if ok else "fail"
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


def check_equivalence(op, T1, T2, wedges, all_violations=False):
    """Whether (Id + t L(X), Id + t D(X)) is a homomorphism T+tT2 -> T+tT1.

    ``wedges`` lists (x, y) vector pairs whose sum is X in the wedge square of
    the acting algebra.  All homomorphism equations are expanded in t; the
    verdict covers the coefficients of t^0 and t^1 (the identities are read
    modulo t^2), higher coefficients are reported in the data payload.
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
    P = [tuple(tuple(Q0 + (1 if i == j else 0) for j in range(n)) for i in range(n)), LX]
    Q = [tuple(tuple(Q0 + (1 if i == j else 0) for j in range(m)) for i in range(m)), DX]

    def pcoef(poly, s):
        return poly[s] if s < len(poly) else None

    def pvec(poly, s, v):
        c = pcoef(poly, s)
        return mat_vec(c, v) if c is not None else vzero(len(v))

    ck = Checker("deformation-equivalence", all_violations)
    higher = {}

    def note(eq, args, s, res, zero_test):
        if zero_test(res):
            return
        if s <= 1:
            ck.record("%s-t^%d" % (eq, s), args, res)
        else:
            higher.setdefault(eq, set()).add(s)

    from_poly = [op.T, T2]
    to_poly = [op.T, T1]
    for s in range(0, 3):
        res = mat_zero(n, m)
        for i in range(s + 1):
            a, b = pcoef(P, i), pcoef(from_poly, s - i)
            if a is not None and b is not None:
                res = mat_add(res, mat_mul(a, b))
            a, b = pcoef(to_poly, i), pcoef(Q, s - i)
            if a is not None and b is not None:
                res = mat_sub(res, mat_mul(a, b))
        note("intertwines-T", (), s, res, is_zero_mat)
    for i in range(n):
        for j in range(n):
            for s in range(0, 3):
                res = vzero(n)
                for a in range(s + 1):
                    res = vadd(res, g.bracket2(pvec(P, a, g.e(i)), pvec(P, s - a, g.e(j))))
                res = vsub(res, pvec(P, s, g.binary[i][j]))
                note("psi_g-binary", (i, j), s, res, is_zero_vec)
            for k in range(n):
                for s in range(0, 4):
                    res = vzero(n)
                    for a in range(s + 1):
                        for b in range(s - a + 1):
                            res = vadd(res, g.bracket3(pvec(P, a, g.e(i)),
                                                       pvec(P, b, g.e(j)),
                                                       pvec(P, s - a - b, g.e(k))))
                    res = vsub(res, pvec(P, s, g.ternary[i][j][k]))
                    note("psi_g-ternary", (i, j, k), s, res, is_zero_vec)
    for i in range(m):
        for j in range(m):
            for s in range(0, 3):
                res = vzero(m)
                for a in range(s + 1):
                    res = vadd(res, h.bracket2(pvec(Q, a, h.e(i)), pvec(Q, s - a, h.e(j))))
                res = vsub(res, pvec(Q, s, h.binary[i][j]))
                note("psi_h-binary", (i, j), s, res, is_zero_vec)
            for k in range(m):
                for s in range(0, 4):
                    res = vzero(m)
                    for a in range(s + 1):
                        for b in range(s - a + 1):
                            res = vadd(res, h.bracket3(pvec(Q, a, h.e(i)),
                                                       pvec(Q, b, h.e(j)),
                                                       pvec(Q, s - a - b, h.e(k))))
                    res = vsub(res, pvec(Q, s, h.ternary[i][j][k]))
                    note("psi_h-ternary", (i, j, k), s, res, is_zero_vec)
    for i in range(n):
        for s in range(0, 3):
            res = mat_zero(m, m)
            for a in range(s + 1):
                qb = pcoef(Q, s - a)
                if qb is None:
                    continue
                res = mat_add(res, mat_mul(r.rho_at(pvec(P, a, g.e(i))), qb))
            qs = pcoef(Q, s)
            if qs is not None:
                res = mat_sub(res, mat_mul(qs, r.rho[i]))
            note("rho-equivariance", (i,), s, res, is_zero_mat)
        for j in range(n):
            for s in range(0, 4):
                resm = mat_zero(m, m)
                resd = mat_zero(m, m)
                for a in range(s + 1):
                    for b in range(s - a + 1):
                        qc = pcoef(Q, s - a - b)
                        if qc is None:
                            continue
                        pa = pvec(P, a, g.e(i))
                        pb = pvec(P, b, g.e(j))
                        resm = mat_add(resm, mat_mul(r.mu_at(pa, pb), qc))
                        resd = mat_add(resd, mat_mul(r.D_at(pa, pb), qc))
                qs = pcoef(Q, s)
                if qs is not None:
                    resm = mat_sub(resm, mat_mul(qs, r.mu[i][j]))
                    resd = mat_sub(resd, mat_mul(qs, r.derived_D[i][j]))
                note("mu-equivariance", (i, j), s, resm, is_zero_mat)
                note("D-equivariance", (i, j), s, resd, is_zero_mat)

    cx = TComplex(op)
    boundary = mat_zero(n, m)
    for x, y in wedges:
        pc = cx.zero_cochain_map(x, y)
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
    r = d.base.action
    h = r.carrier
    m = h.dim
    n = d.base.action.acting.dim
    Ts = d.all_terms
    s = d.order + 1

    first = {(a, b): binary_coefficient(r, Ts, s, h.e(a), h.e(b))
             for a in range(m) for b in range(m)}
    # the first component must be alternating to be a cochain
    for (a, b), v in first.items():
        if a == b and not is_zero_vec(v):
            raise InvalidDeformation("first component not alternating")
        if a > b and v != vscale(-1, first[b, a]):
            raise InvalidDeformation("first component not antisymmetric")
    prs = pair_basis(m)
    fs = [first[p] for p in prs]
    gs = [ternary_coefficient(r, Ts, s, h.e(a), h.e(b), h.e(c))
          for (a, b) in prs for c in range(m)]
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
    cx = TComplex(op)
    r = op.action
    n, m = r.acting.dim, r.carrier.dim
    diff = mat_sub(mat(T2), mat(T1))
    rhs = _flatten_map(diff, m)
    try:
        x = cx.matrix(0).solve(rhs)
    except Inconsistent:
        return Report("difference-class", "fail", [],
                      {"cohomologous": False})
    from .linalg import format_frac
    return Report("difference-class", "pass", [],
                  {"cohomologous": True,
                   "X_pair_coordinates": [format_frac(c) for c in x]})
