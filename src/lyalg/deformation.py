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
of the same cached set, and a linear deformation reads t^1..t^3.  An
equivalence is tabulated the same way, each identity of (Id + t L(X),
Id + t D(X)) graded by the power of t.
"""

import itertools
from dataclasses import dataclass

from .cohomology import Cochain, TComplex, pair_basis, partial_matrix, zero_cochain_map
from .errors import DimMismatch, Inconsistent, InvalidDeformation
from .linalg import (Q1, axpy, dense, is_zero_mat, mat, mat_add, mat_col, mat_id, mat_mul,
                     mat_sub, mat_zero, matrix_values, pull, push, rank, skew_faults,
                     sparse_map, transpose, vector_values)
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


def _operator_matrix(op, T, what):
    """T as a matrix of the operator's shape, dim(acting) x dim(carrier)."""
    n, m = op.action.acting.dim, op.action.carrier.dim
    T = mat(T)
    if len(T) != n or any(len(row) != m for row in T):
        raise DimMismatch("%s must be %dx%d (carrier -> acting)" % (what, n, m))
    return T


class OrderNDeformation:
    """T_t = T + t T_1 + ... + t^n T_n over a verified base operator."""

    def __init__(self, base, terms):
        base.ensure_verified()
        self.base = base
        self.terms = [_operator_matrix(base, t, "deformation terms") for t in terms]
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


def check_equivalence(op, T1, T2, wedges, all_violations=False):
    """Whether (Id + t L(X), Id + t D(X)) is a homomorphism T+tT2 -> T+tT1.

    ``wedges`` lists (x, y) vector pairs whose sum is X in the wedge square of
    the acting algebra.  All homomorphism equations are expanded in t; the
    verdict covers the coefficients of t^0 and t^1 (the identities are read
    modulo t^2), higher coefficients are reported in the data payload.

    With psi = Id + t M, the t^s coefficient of an identity in k slots is the
    sum over the s-subsets of its slots of the tensor with M in those slots,
    less M applied to the tensor at s = 1; at s = 0 it vanishes.  L(X) fills
    the acting algebra's slots and D(X) the carrier's, rho, mu and D being
    read with the matrix column as one more slot, and every coefficient is
    tabulated over all basis tuples (``linalg.pull``/``push``): witnesses come
    psi_g's pairs and triples interleaved, then psi_h's, then the
    equivariance, rho at (i,) before mu and D at (i, j).
    """
    op.ensure_verified()
    r = op.action
    g, h = r.acting, r.carrier
    n, m = g.dim, h.dim
    T1, T2 = (_operator_matrix(op, T, "T1 and T2") for T in (T1, T2))
    LX = mat_zero(n, n)
    DX = mat_zero(m, m)
    for x, y in wedges:
        LX = mat_add(LX, transpose([g.bracket3(x, y, g.e(i)) for i in range(n)]))
        DX = mat_add(DX, r.D_at(x, y))
    P, Q = (mat_id(n), LX), (mat_id(m), DX)
    ck = Checker("deformation-equivalence", all_violations)
    higher = {}
    from_poly, to_poly = (op.T, T2), (op.T, T1)
    res = [mat_zero(n, m)] * 3
    for a, b in itertools.product((0, 1), repeat=2):
        res[a + b] = mat_add(res[a + b], mat_sub(mat_mul(P[a], from_poly[b]),
                                                 mat_mul(to_poly[a], Q[b])))
    for s, v in enumerate(res):
        if not is_zero_mat(v):
            if s <= 1:
                ck.record("intertwines-T-t^%d" % s, (), v)
            else:
                higher.setdefault("intertwines-T", set()).add(s)

    def graded(name, t, maps, cols):
        """(name-t^1, the t^1 table) of ``t`` with slot p read through
        maps[p] and psi_1 given by ``cols``; each degree above with a nonzero
        table goes to ``higher``."""
        values, k = vector_values(t), len(maps)
        for s in range(1, k + 1):
            acc = {}
            for slots in itertools.combinations(range(k), s):
                pull(acc, Q1, values, [maps[p] if p in slots else None for p in range(k)])
            if s == 1:
                push(acc, -Q1, cols, values)
                first = ("%s-t^1" % name, acc)
            elif acc:
                higher.setdefault(name, set()).add(s)
        return first

    (L_rows, L_cols), (D_rows, D_cols) = sparse_map(LX), sparse_map(DX)
    for name, alg, rows, cols in (("psi_g", g, L_rows, L_cols), ("psi_h", h, D_rows, D_cols)):
        ck.table((alg.dim,), graded(name + "-binary", alg.binary, (rows,) * 2, cols),
                 graded(name + "-ternary", alg.ternary, (rows,) * 3, cols))
    ck.table((m, m), *[(name, matrix_values(acc)) for name, acc in (
        graded(name, t, (L_rows,) * t.arity + (D_rows,), D_cols)
        for name, t in (("rho-equivariance", r.rho), ("mu-equivariance", r.mu),
                        ("D-equivariance", r.derived_D)))])

    boundary = mat_zero(n, m)
    for x, y in wedges:
        pc = zero_cochain_map(op, x, y)
        boundary = mat_add(boundary, transpose(pc.f))
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
    T1, T2 = (_operator_matrix(op, T, "T1 and T2") for T in (T1, T2))
    diff = mat_sub(T2, T1)
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
