"""Independent brute-force implementations used to cross-check the library.

Nothing here touches the library's elimination, sparse-matrix, coboundary
assembly or tensor evaluation code, and imports nothing from it: ranks come
from a plain dense Gaussian elimination, brackets and actions from a dense
sum over nested tuples (with D rebuilt from its closed form), coboundary
matrices from direct evaluation of the defining formulas (column by column,
or at a generic cochain of linear forms), and deformation coefficients and
equivalences from polynomial expansion in t.  The library's structure
tensors are read through their ``dim``, ``arity``, ``shape`` and ``support``
fields only, expanded into nested tuples by ``nested``; its sparse matrices
through their ``rows``, ``cols`` and ``data`` fields only; its linear maps
through their ``shape`` and ``rows`` fields only, by ``rows_of``.
"""

import functools
import itertools
import operator
import weakref
from fractions import Fraction

Z = Fraction(0)


# ---------------------------------------------------------------------------
# dense elimination

def o_rref(rows):
    """The reduced row echelon form by dense Gauss-Jordan elimination, zero
    rows last, and its pivot columns."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        lead = len(pivots)
        if lead == len(rows):
            break
        piv = next((r for r in range(lead, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        pv = Fraction(rows[lead][col])
        rows[lead] = [x / pv for x in rows[lead]]
        for r in range(len(rows)):
            if r != lead and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[lead])]
        pivots.append(col)
    return [tuple(r) for r in rows], pivots


def o_rank(rows):
    return len(o_rref(rows)[1])


def o_center_equations(A):
    """The equations [x, e_j] = <x, e_j, e_k> = <e_j, e_k, x> = 0 in x, one
    dense row per coordinate, written out from the nested brackets."""
    n, b, t = A.dim, nested(A.binary), nested(A.ternary)
    rows = [[b[x][j][r] for x in range(n)] for j in range(n) for r in range(n)]
    for j in range(n):
        for k in range(n):
            for r in range(n):
                rows.append([t[x][j][k][r] for x in range(n)])
                rows.append([t[j][k][x][r] for x in range(n)])
    return rows


def o_center_dim(A):
    """dim {x : [x, e_j] = <x, e_j, e_k> = <e_j, e_k, x> = 0 for all j, k}:
    dim A less the rank of those equations."""
    return A.dim - o_rank(o_center_equations(A))


def o_nullspace(rows, ncols):
    """The kernel basis read off the reduced echelon form: for each free
    column c, e_c minus the pivot coordinates of column c."""
    red, pivots = o_rref(rows)
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = [Z] * ncols
            v[c] = Fraction(1)
            for row, pc in zip(red, pivots):
                v[pc] = -row[c]
            basis.append(tuple(v))
    return basis


def o_in_column_space(rows, b):
    """Whether b lies in the span of the matrix's columns (dense elimination)."""
    cols = list(zip(*rows)) if rows else []
    return o_rank(cols) == o_rank(cols + [tuple(b)])


# ---------------------------------------------------------------------------
# contractions of sparse tables {key: {row: q}}, evaluated densely: every
# index tuple in range is visited, so a term counts whatever its support

def _placed(key, positions):
    """The tuple with slot p of ``key`` at position positions[p]."""
    if positions is None:
        return key
    out = [None] * len(key)
    for p, x in enumerate(positions):
        out[x] = key[p]
    return tuple(out)


def o_plus(*scaled):
    """The sum of f * table over the (f, table) of ``scaled``, with no zero
    entry and no empty value, each entry a Fraction."""
    acc = {}
    for f, table in scaled:
        for key, v in table.items():
            w = acc.setdefault(key, {})
            for r, q in v.items():
                w[r] = w.get(r, Z) + Fraction(f) * Fraction(q)
    return {key: w for key, w in ((k, {r: q for r, q in v.items() if q != 0})
                                  for k, v in acc.items()) if w}


def o_pull(values, sizes, maps, positions=None):
    """``values``, its slot p ranging over sizes[p], with slot p read through
    the dense matrix maps[p] (input index s to output index a with
    coefficient maps[p][s][a]) or as it is when None, then placed."""
    outs = [range(n) if M is None else range(len(M[0])) for M, n in zip(maps, sizes)]
    parts = []
    for out in itertools.product(*outs):
        for key in itertools.product(*map(range, sizes)):
            f = Fraction(1)
            for M, s, a in zip(maps, key, out):
                f *= Fraction(int(s == a)) if M is None else Fraction(M[s][a])
            if f and key in values:
                parts.append((f, {_placed(out, positions): values[key]}))
    return o_plus(*parts)


def o_push(M, table):
    """The dense matrix M applied to every value of ``table``."""
    rows, cols = range(len(M)), range(len(M[0]))
    return o_plus((1, {key: {r: sum((Fraction(M[r][c]) * v.get(c, 0) for c in cols), Z)
                             for r in rows} for key, v in table.items()}))


def o_compose(outer, p, inner, n, positions=None):
    """``outer`` with the value of ``inner`` in its slot p, every slot over
    range(n): at each outer tuple with slot p left out and each inner tuple,
    the sum over s of inner's row s times outer's value at slot p = s, keyed
    by the inner tuple in place of slot p, then placed."""
    if not outer or not inner:
        return {}
    a, b = len(next(iter(outer))), len(next(iter(inner)))
    parts = []
    for rest in itertools.product(range(n), repeat=a - 1):
        head, tail = rest[:p], rest[p:]
        for key in itertools.product(range(n), repeat=b):
            for s in range(n):
                q, v = inner.get(key, {}).get(s, 0), outer.get(head + (s,) + tail)
                if q and v:
                    parts.append((q, {_placed(head + key + tail, positions): v}))
    return o_plus(*parts)


def o_signed_sum(terms, n):
    """The sum of ``terms`` as the library writes them: (sign, values,
    positions) or (sign, outer, p, inner[, positions])."""
    parts = []
    for sign, values, *rest in terms:
        if len(rest) == 1:
            parts.append((sign, {_placed(k, rest[0]): v for k, v in values.items()}))
        else:
            parts.append((sign, o_compose(values, rest[0], rest[1], n, *rest[2:])))
    return o_plus(*parts)


# ---------------------------------------------------------------------------
# vector helpers (kept local on purpose)

def va(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vs(a, b):
    return tuple(x - y for x, y in zip(a, b))


def sc(c, a):
    return tuple(c * x for x in a)


def mv(m, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in m)


def col(m, j):
    return tuple(r[j] for r in m)


def mm(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, c)) for c in zip(*b)) for row in a)


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mzero(r, c):
    return tuple((Z,) * c for _ in range(r))


def rows_of(M):
    """The dense rows of a library linear map, read off its ``shape`` and
    ``rows`` ({r: [(c, q)]}) fields, or M itself when it has no such fields."""
    if not hasattr(M, "rows"):
        return M
    out = [[Z] * M.shape[1] for _ in range(M.shape[0])]
    for r, row in M.rows.items():
        for c, q in row:
            out[r][c] = Fraction(q)
    return tuple(map(tuple, out))


def mid(n):
    """The n x n identity as dense rows."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _lin(c, a, b=None):
    """c * a (+ b), entrywise on nested tuples of scalars."""
    if isinstance(a, tuple):
        return tuple(_lin(c, x, None if b is None else y)
                     for x, y in zip(a, b if b is not None else a))
    return c * a + (b if b is not None else 0)


# the library's structure tensors enter only through their nested tuples

_NESTED = {}


def nested(t):
    """The nested tuples of a library structure tensor: nested(t)[i]...[k] is
    its value at (e_i, ..., e_k), a vector or a tuple of matrix rows, read off
    ``t.support`` with ``t.dim``, ``t.arity`` and ``t.shape``.  The support
    maps a key to {row: q}; for a matrix value, column c of the value at
    (i, ..., k) is the entry keyed (i, ..., k, c).  Built once per tensor and
    dropped with it."""
    view = _NESTED.get(id(t))
    if view is None:
        shape = t.shape

        def value(key):
            if len(shape) == 1:
                v = t.support.get(key, {})
                return tuple(v.get(r, Z) for r in range(shape[0]))
            cols = [t.support.get(key + (c,), {}) for c in range(shape[1])]
            return tuple(tuple(col.get(r, Z) for col in cols) for r in range(shape[0]))

        def level(key):
            if len(key) == t.arity:
                return value(key)
            return tuple(level(key + (i,)) for i in range(t.dim))
        view = _NESTED[id(t)] = level(())
        weakref.finalize(t, _NESTED.pop, id(t), None)
    return view


def ev(t, *vecs):
    """The multilinear map with nested structure tensor t at coordinate vectors:
    the sum over index tuples of the coefficient product times the value
    (dimension at least 1)."""
    if not vecs:
        return t
    zero = t
    for _ in vecs:
        zero = zero[0]
    out = _lin(0, zero)
    for c, sub in zip(vecs[0], t):
        if c != 0:
            out = _lin(c, ev(sub, *vecs[1:]), out)
    return out


def br2(alg, x, y):
    return ev(nested(alg.binary), x, y)


def br3(alg, x, y, z):
    return ev(nested(alg.ternary), x, y, z)


def rho_at(r, x):
    return ev(nested(r.rho), x)


def mu_at(r, x, y):
    return ev(nested(r.mu), x, y)


def D_at(r, x, y):
    """D(x, y) = mu(y, x) - mu(x, y) + [rho(x), rho(y)] - rho([x, y])."""
    rx, ry = rho_at(r, x), rho_at(r, y)
    out = _lin(-1, mu_at(r, x, y), mu_at(r, y, x))
    out = _lin(-1, mm(ry, rx), _lin(1, mm(rx, ry), out))
    return _lin(-1, rho_at(r, br2(r.acting, x, y)), out)


# ---------------------------------------------------------------------------
# axiom witnesses from a dense scan of every basis tuple
#
# Each function lists (eq, args, residual) for every violated equation, the
# basis tuples in lexicographic order and, at one tuple, the equations in the
# order the docstring gives them; a residual is left side minus right side.

def _sum(*terms):
    """Entrywise sum of nested tuples of scalars."""
    if isinstance(terms[0], tuple):
        return tuple(_sum(*xs) for xs in zip(*terms))
    return functools.reduce(operator.add, [x for x in terms if x], Z)


def _scale(c, t):
    if c == 1:
        return t
    if isinstance(t, tuple):
        return tuple(_scale(c, x) for x in t)
    return c * t


def _zero(t):
    return tuple(_zero(x) for x in t) if isinstance(t, tuple) else Z


def _at(t, *slots):
    """The multilinear map with nested structure tensor t, each slot a basis
    index or a coordinate vector: a dense sum over the vector slots."""
    if not slots:
        return t
    s, rest = slots[0], slots[1:]
    if isinstance(s, int):
        return _at(t[s], *rest)
    terms = [_scale(c, _at(sub, *rest)) for c, sub in zip(s, t) if c != 0]
    return _sum(*terms) if terms else _zero(_at(t[0], *rest))


def _neg(t):
    return _scale(-1, t)


def _nonzero(x):
    if isinstance(x, tuple):
        return any(_nonzero(y) for y in x)
    return x != 0


def _witnesses(n, families):
    """families: (arity, [(eq, residual as a function of basis indices)])."""
    out = []
    for arity, eqs in families:
        for args in itertools.product(range(n), repeat=arity):
            for eq, fn in eqs:
                res = fn(*args)
                if _nonzero(res):
                    out.append((eq, args, res))
    return out


def _brackets(alg):
    """The brackets with each slot a basis index or a vector."""
    binary, ternary = nested(alg.binary), nested(alg.ternary)
    return (lambda *xs: _at(binary, *xs)), (lambda *xs: _at(ternary, *xs))


def o_ly_violations(A):
    """LY1: [[x,y],z] + [[y,z],x] + [[z,x],y] + <x,y,z> + <y,z,x> + <z,x,y>
    LY2: <[x,y],z,w> + <[y,z],x,w> + <[z,x],y,w>
    LY3: <x,y,[z,w]> - [<x,y,z>,w] - [z,<x,y,w>]
    LY4: <x,y,<z,w,v>> - <<x,y,z>,w,v> - <z,<x,y,w>,v> - <z,w,<x,y,v>>
    (every LY1 triple first, then LY2, LY3 and LY4 in turn)."""
    c, d = _brackets(A)
    return _witnesses(A.dim, [
        (3, [("LY1", lambda i, j, k: _sum(c(c(i, j), k), c(c(j, k), i), c(c(k, i), j),
                                          d(i, j, k), d(j, k, i), d(k, i, j)))]),
        (4, [("LY2", lambda i, j, k, l: _sum(d(c(i, j), k, l), d(c(j, k), i, l),
                                             d(c(k, i), j, l)))]),
        (4, [("LY3", lambda i, j, k, l: _sum(d(i, j, c(k, l)), _neg(c(d(i, j, k), l)),
                                             _neg(c(k, d(i, j, l)))))]),
        (5, [("LY4", lambda i, j, k, l, m: _sum(d(i, j, d(k, l, m)), _neg(d(d(i, j, k), l, m)),
                                                _neg(d(k, d(i, j, l), m)),
                                                _neg(d(k, l, d(i, j, m)))))]),
    ])


def _rep_values(r):
    """The acting brackets, then rho, mu and D with each slot a basis index or
    a vector; D is tabulated on basis pairs from its closed form."""
    n = r.acting.dim
    e = [_unit(n, i) for i in range(n)]
    D = tuple(tuple(D_at(r, e[i], e[j]) for j in range(n)) for i in range(n))
    rho, mu = nested(r.rho), nested(r.mu)
    return _brackets(r.acting) + ((lambda x: _at(rho, x)), (lambda x, y: _at(mu, x, y)),
                                  (lambda x, y: _at(D, x, y)))


def _mm(a, b):
    """Dense matrix product (zero entries add nothing and are passed over)."""
    return tuple(tuple(_sum(Z, *(x * y for x, y in zip(row, c) if x and y)) for c in zip(*b))
                 for row in a)


def _comm(a, b):
    return _sum(_mm(a, b), _neg(_mm(b, a)))


def o_rep_violations(r):
    """R1: mu([x,y],z) - mu(x,z)rho(y) + mu(y,z)rho(x)
    R2: mu(x,[y,z]) - rho(y)mu(x,z) + rho(z)mu(x,y)
    R3: rho(<x,y,z>) - [D(x,y), rho(z)]
    R4: mu(z,w)mu(x,y) - mu(y,w)mu(x,z) - mu(x,<y,z,w>) + D(y,z)mu(x,w)
    R5: mu(<x,y,z>,w) + mu(z,<x,y,w>) - [D(x,y), mu(z,w)]
    (R1-R3 at each triple, then R4-R5 at each quadruple)."""
    c, d, rho, mu, D = _rep_values(r)
    return _witnesses(r.acting.dim, [
        (3, [("R1", lambda i, j, k: _sum(mu(c(i, j), k), _neg(_mm(mu(i, k), rho(j))),
                                         _mm(mu(j, k), rho(i)))),
             ("R2", lambda i, j, k: _sum(mu(i, c(j, k)), _neg(_mm(rho(j), mu(i, k))),
                                         _mm(rho(k), mu(i, j)))),
             ("R3", lambda i, j, k: _sum(rho(d(i, j, k)), _neg(_comm(D(i, j), rho(k)))))]),
        (4, [("R4", lambda i, j, k, l: _sum(_mm(mu(k, l), mu(i, j)),
                                            _neg(_mm(mu(j, l), mu(i, k))),
                                            _neg(mu(i, d(j, k, l))), _mm(D(j, k), mu(i, l)))),
             ("R5", lambda i, j, k, l: _sum(mu(d(i, j, k), l), mu(k, d(i, j, l)),
                                            _neg(_comm(D(i, j), mu(k, l)))))]),
    ])


def o_lemma_violations(r):
    """L1: D([x,y],z) + D([y,z],x) + D([z,x],y)
    L2: D(<x,y,z>,w) + D(z,<x,y,w>) - [D(x,y), D(z,w)]
    L3: mu(<x,y,z>,w) - mu(x,w)mu(z,y) + mu(y,w)mu(z,x) + mu(z,w)D(x,y)
    (L1 at each triple, then L2-L3 at each quadruple)."""
    c, d, rho, mu, D = _rep_values(r)
    return _witnesses(r.acting.dim, [
        (3, [("L1", lambda i, j, k: _sum(D(c(i, j), k), D(c(j, k), i), D(c(k, i), j)))]),
        (4, [("L2", lambda i, j, k, l: _sum(D(d(i, j, k), l), D(k, d(i, j, l)),
                                            _neg(_comm(D(i, j), D(k, l))))),
             ("L3", lambda i, j, k, l: _sum(mu(d(i, j, k), l), _neg(_mm(mu(i, l), mu(k, j))),
                                            _mm(mu(j, l), mu(k, i)), _mm(mu(k, l), D(i, j))))]),
    ])


def o_action_violations(r):
    """The witnesses of the action conditions on a representation: for rho at
    each (i,), then mu and then D at each (i, j) with a nonzero value M, in
    turn, every column c of M that is nonzero and not central in the carrier
    ("<fam>-image-central" at args + (c,), residual the column), then M[e_a,
    e_b] at each a < b ("<fam>-kills-binary" at args + (a, b)) and M<e_a, e_b,
    e_c> at each triple ("<fam>-kills-ternary" at args + (a, b, c)) wherever
    nonzero.  A vector v is central when [v, e_s], <v, e_s, e_t> and
    <e_s, e_t, v> vanish for all basis vectors, checked on the brackets of the
    carrier's basis vectors; D comes from its closed form."""
    n, h = r.acting.dim, r.carrier
    m = h.dim
    eg, e = [_unit(n, i) for i in range(n)], [_unit(m, a) for a in range(m)]
    b2 = [[br2(h, e[a], e[s]) for s in range(m)] for a in range(m)]
    b3 = [[[br3(h, e[a], e[s], e[t]) for t in range(m)] for s in range(m)] for a in range(m)]

    def central(v):
        live = [(q, a) for a, q in enumerate(v) if q]

        def vanishes(value):
            return not _nonzero(_sum((Z,) * m, *(sc(q, value(a)) for q, a in live)))
        return all(vanishes(lambda a: b2[a][s])
                   and all(vanishes(lambda a: b3[a][s][t]) and vanishes(lambda a: b3[s][t][a])
                           for t in range(m))
                   for s in range(m))

    # a zero bracket has a zero image, so only the nonzero ones are multiplied
    pairs = [((a, b), b2[a][b]) for a in range(m) for b in range(a + 1, m)
             if _nonzero(b2[a][b])]
    triples = [((a, b, c), b3[a][b][c]) for a, b, c in itertools.product(range(m), repeat=3)
               if _nonzero(b3[a][b][c])]
    families = [("rho", [((i,), rho_at(r, eg[i])) for i in range(n)]),
                ("mu", [((i, j), mu_at(r, eg[i], eg[j])) for i in range(n) for j in range(n)]),
                ("D", [((i, j), D_at(r, eg[i], eg[j])) for i in range(n) for j in range(n)])]
    out = []
    for fam, values in families:
        for args, M in values:
            if not _nonzero(M):
                continue
            for c in range(m):
                v = col(M, c)
                if _nonzero(v) and not central(v):
                    out.append((fam + "-image-central", args + (c,), v))
            for eq, brackets in (("-kills-binary", pairs), ("-kills-ternary", triples)):
                for key, v in brackets:
                    w = mv(M, v)
                    if _nonzero(w):
                        out.append((fam + eq, args + key, w))
    return out


def _post_values(P):
    """dot, star, angle, brace, the derived brace, [,]_C and <,,>_C of a
    post-algebra, each slot a basis index or a vector; the three derived
    operations are tabulated on basis tuples from their closed forms

        {x,y,z}_D = {z,y,x} - {z,x,y} + (y,x,z) - (x,y,z) - (x.y)*z
        [x,y]_C   = x*y - y*x + x.y
        <x,y,z>_C = {x,y,z}_D + {x,y,z} - {y,x,z} + <x,y,z>

    with (a,b,c) = (a*b)*c - a*(b*c)."""
    n = P.dim
    dot, star, angle, brace = ((lambda *xs, t=t: _at(t, *xs))
                               for t in map(nested, (P.dot, P.star, P.angle, P.brace)))

    def assoc(x, y, z):
        return _sum(star(star(x, y), z), _neg(star(x, star(y, z))))

    rng = range(n)
    bD = tuple(tuple(tuple(_sum(brace(k, j, i), _neg(brace(k, i, j)), assoc(j, i, k),
                                _neg(assoc(i, j, k)), _neg(star(dot(i, j), k)))
                           for k in rng) for j in rng) for i in rng)
    cb = tuple(tuple(_sum(star(i, j), _neg(star(j, i)), dot(i, j)) for j in rng) for i in rng)
    ct = tuple(tuple(tuple(_sum(bD[i][j][k], brace(i, j, k), _neg(brace(j, i, k)), angle(i, j, k))
                           for k in rng) for j in rng) for i in rng)
    return (dot, star, angle, brace, (lambda *xs: _at(bD, *xs)), (lambda *xs: _at(cb, *xs)),
            (lambda *xs: _at(ct, *xs)))


def o_post_violations(P, as_printed=False):
    """The base LY axioms of (dot, angle), prefixed "base-", then

    P1: {z,[x,y]_C,w} - {y*z,x,w} + {x*z,y,w}
    P2: {x,y,[z,w]_C} - z*{x,y,w} + w*{x,y,z}
    P3: <x,y,z>_C*w - {x,y,z*w}_D + z*{x,y,w}_D
    P4: {x,y,<z,w,t>_C} - {{x,y,z},w,t} + {{x,y,w},z,t} - {z,w,{x,y,t}}_D
    P5: {x,y,{z,w,t}}_D - {{x,y,z}_D,w,t} - {z,<x,y,w>_C,t} - {z,w,<x,y,t>_C}

    at every quadruple (P1-P3) and quintuple (P4-P5), then for each pair
    (i, j) the centrality of e_i*e_j in (dot, angle) (P6-star, at (i,j,s) and
    (i,j,s,t)) followed by e_s*(e_i.e_j) (P7-star, at (s,i,j)) and
    {e_i.e_j,e_s,e_t} (P7-brace, at (i,j,s,t)); then the centrality of each
    {e_i,e_j,e_k} (P6-brace), and for each triple e_s*<e_i,e_j,e_k> (P8-star,
    at (s,i,j,k)) and {<e_i,e_j,e_k>,e_s,e_t} (P8-brace, at (i,j,k,s,t)).
    ``as_printed`` uses {{x,w,z},w,t} in P4, {x,y,{z,w,t}_D} in P5 and drops
    P6-brace."""
    import types
    n = P.dim
    dot, star, angle, brace, bD, cb, ct = _post_values(P)
    base = types.SimpleNamespace(dim=n, binary=P.dot, ternary=P.angle)
    out = [("base-" + eq, args, res) for eq, args, res in o_ly_violations(base)]

    def p4(x, y, z, w, t):
        first = brace(brace(x, w, z), w, t) if as_printed else brace(brace(x, y, z), w, t)
        return _sum(brace(x, y, ct(z, w, t)), _neg(first), brace(brace(x, y, w), z, t),
                    _neg(bD(z, w, brace(x, y, t))))

    def p5(x, y, z, w, t):
        lhs = brace(x, y, bD(z, w, t)) if as_printed else bD(x, y, brace(z, w, t))
        return _sum(lhs, _neg(brace(bD(x, y, z), w, t)), _neg(brace(z, ct(x, y, w), t)),
                    _neg(brace(z, w, ct(x, y, t))))

    out += _witnesses(n, [
        (4, [("P1", lambda x, y, z, w: _sum(brace(z, cb(x, y), w), _neg(brace(star(y, z), x, w)),
                                            brace(star(x, z), y, w))),
             ("P2", lambda x, y, z, w: _sum(brace(x, y, cb(z, w)), _neg(star(z, brace(x, y, w))),
                                            star(w, brace(x, y, z)))),
             ("P3", lambda x, y, z, w: _sum(star(ct(x, y, z), w), _neg(bD(x, y, star(z, w))),
                                            star(z, bD(x, y, w))))]),
        (5, [("P4", p4), ("P5", p5)]),
    ])

    def note(eq, args, res):
        if _nonzero(res):
            out.append((eq, args, res))

    def central(eq, args, v):
        for s in range(n):
            note(eq + "-dot", args + (s,), dot(v, s))
            for t in range(n):
                note(eq + "-angle12", args + (s, t), angle(v, s, t))
                note(eq + "-angle3", args + (s, t), angle(s, t, v))

    for i, j in itertools.product(range(n), repeat=2):
        central("P6-star", (i, j), star(i, j))
        for s in range(n):
            note("P7-star", (s, i, j), star(s, dot(i, j)))
            for t in range(n):
                note("P7-brace", (i, j, s, t), brace(dot(i, j), s, t))
    if not as_printed:
        for i, j, k in itertools.product(range(n), repeat=3):
            central("P6-brace", (i, j, k), brace(i, j, k))
    for i, j, k in itertools.product(range(n), repeat=3):
        for s in range(n):
            note("P8-star", (s, i, j, k), star(s, angle(i, j, k)))
            for t in range(n):
                note("P8-brace", (i, j, k, s, t), brace(angle(i, j, k), s, t))
    return out


def o_nijenhuis_violations(A, N):
    """nijenhuis-binary:  [Nx,Ny] - N([Nx,y] + [x,Ny] - N[x,y])
    nijenhuis-ternary: <Nx,Ny,Nz> - N(<Nx,Ny,z> + <Nx,y,Nz> + <x,Ny,Nz>
                       - N<Nx,y,z> - N<x,Ny,z> - N<x,y,Nz> + N^2<x,y,z>)
    (every pair first, then every triple)."""
    c, d = _brackets(A)
    N = rows_of(N)
    Ne = [col(N, i) for i in range(A.dim)]

    def binary(i, j):
        inner = _sum(c(Ne[i], j), c(i, Ne[j]), _neg(mv(N, c(i, j))))
        return vs(c(Ne[i], Ne[j]), mv(N, inner))

    def ternary(i, j, k):
        once = _sum(d(Ne[i], j, k), d(i, Ne[j], k), d(i, j, Ne[k]))
        inner = _sum(d(Ne[i], Ne[j], k), d(Ne[i], j, Ne[k]), d(i, Ne[j], Ne[k]),
                     _neg(mv(N, once)), mv(N, mv(N, d(i, j, k))))
        return vs(d(Ne[i], Ne[j], Ne[k]), mv(N, inner))

    return _witnesses(A.dim, [(2, [("nijenhuis-binary", binary)]),
                              (3, [("nijenhuis-ternary", ternary)])])


def o_hom_violations(phi, families, interleaved=False):
    """phi(src(e_i, ..)) - dst(phi e_i, ..) for each family (eq, arity, src,
    dst) of library structure tensors and a matrix phi from src's space to
    dst's: every tuple of the first arity, then of the next, or with
    ``interleaved`` each tuple directly followed by its extensions (mixed-length
    lexicographic order), families in list order at one tuple."""
    phi = rows_of(phi)
    n = len(phi[0])
    cols = [col(phi, i) for i in range(n)]
    found = []
    for f, (eq, arity, src, dst) in enumerate(families):
        src, dst = nested(src), nested(dst)
        for args in itertools.product(range(n), repeat=arity):
            res = vs(mv(phi, _at(src, *args)), _at(dst, *[cols[a] for a in args]))
            if _nonzero(res):
                key = (args, f) if interleaved else (arity, args, f)
                found.append((key, (eq, args, res)))
    return [w for _, w in sorted(found)]


def o_equivariance_violations(rf, rt, pg, ph):
    """ph rho_f(x) - rho_t(pg x) ph, ph mu_f(x,y) - mu_t(pg x, pg y) ph and
    ph D_f(x,y) - D_t(pg x, pg y) ph (D from its closed form on both actions):
    at each i the rho witness, then for each j the mu and D witnesses at (i, j)."""
    pg, ph = rows_of(pg), rows_of(ph)
    n = len(pg[0])
    e = [_unit(n, i) for i in range(n)]
    ge = [col(pg, i) for i in range(n)]
    out = []

    def note(eq, args, src, dst):
        res = _sum(_mm(ph, src), _neg(_mm(dst, ph)))
        if _nonzero(res):
            out.append((eq, args, res))

    for i in range(n):
        note("rho-equivariance", (i,), rho_at(rf, e[i]), rho_at(rt, ge[i]))
        for j in range(n):
            note("mu-equivariance", (i, j), mu_at(rf, e[i], e[j]), mu_at(rt, ge[i], ge[j]))
            note("D-equivariance", (i, j), D_at(rf, e[i], e[j]), D_at(rt, ge[i], ge[j]))
    return out


class TPoly:
    """A polynomial in t with rational coefficients, lowest degree first, that
    mixes with Fraction and int in + - * and ==: an identity between maps of
    the form Id + tM expands in t by the plain dense helpers above."""

    def __init__(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @staticmethod
    def lift(x):
        return x if isinstance(x, TPoly) else TPoly([x])

    def coeff(self, s):
        return self.c[s] if s < len(self.c) else Z

    def __add__(self, other):
        o = TPoly.lift(other)
        return TPoly([self.coeff(s) + o.coeff(s) for s in range(max(len(self.c), len(o.c)))])

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-x for x in self.c])

    def __sub__(self, other):
        return self + -TPoly.lift(other)

    def __rsub__(self, other):
        return TPoly.lift(other) - self

    def __mul__(self, other):
        o = TPoly.lift(other)
        out = [Z] * max(0, len(self.c) + len(o.c) - 1)
        for a, x in enumerate(self.c):
            for b, y in enumerate(o.c):
                out[a + b] += x * y
        return TPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.c == TPoly.lift(other).c

    __hash__ = None

    def __bool__(self):
        return bool(self.c)


def _coeff(x, s):
    """The t^s coefficient of a nested tuple of TPoly/Fraction entries."""
    if isinstance(x, tuple):
        return tuple(_coeff(y, s) for y in x)
    return TPoly.lift(x).coeff(s)


def _degree(x):
    if isinstance(x, tuple):
        return max((_degree(y) for y in x), default=0)
    return len(TPoly.lift(x).c) - 1


def o_equivalence(op, T1, T2, wedges):
    """(witnesses, data) of the equivalence check for the pair
    (Id + tL(X), Id + tD(X)) from T + tT2 to T + tT1, X the sum of the wedges:
    every identity of an operator homomorphism expanded in t with TPoly
    entries.  The residuals are psi_g T_from - T_to psi_h, the bracket at
    psi-images less psi of the bracket, and rho(psi_g x) psi_h - psi_h rho(x)
    and likewise for mu and D.

    Witnesses are the nonzero t^0 and t^1 coefficients: intertwines-T at (),
    then psi_g's binary and ternary identities in mixed-length lexicographic
    order, psi_h's likewise, then the rho-, mu- and D-equivariance, at one
    tuple by degree and then in that order.  The data gives, per identity,
    the degrees >= 2 with a nonzero coefficient, and whether T2 - T1 is the
    boundary of X.  A wedge vector may be an n x 1 map, as a wedge file is read."""
    T, T1, T2 = rows_of(op.T), rows_of(T1), rows_of(T2)
    wedges = [[tuple(q for q, in rows_of(v)) if hasattr(v, "rows") else v for v in xy]
              for xy in wedges]
    r = op.action
    g, h = r.acting, r.carrier
    n, m = g.dim, h.dim
    t = TPoly([0, 1])
    LX = [[Z] * n for _ in range(n)]
    DX = [[Z] * m for _ in range(m)]
    for x, y in wedges:
        for i in range(n):
            for s, v in enumerate(br3(g, x, y, _unit(n, i))):
                LX[s][i] += v
        for a, row in enumerate(D_at(r, x, y)):
            for b, v in enumerate(row):
                DX[a][b] += v

    def plus_t(A, B):
        return tuple(tuple(a + t * b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))

    P = plus_t([_unit(n, i) for i in range(n)], LX)
    Q = plus_t([_unit(m, a) for a in range(m)], DX)
    intertwines = _sum(mm(P, plus_t(T, T2)), _neg(mm(plus_t(T, T1), Q)))
    groups = [[("intertwines-T", (), intertwines)]]
    for name, M, alg in (("psi_g", P, g), ("psi_h", Q, h)):
        groups.append([(eq, args, _neg(res)) for eq, args, res in o_hom_violations(
            M, [(name + "-binary", 2, alg.binary, alg.binary),
                (name + "-ternary", 3, alg.ternary, alg.ternary)], interleaved=True)])
    groups.append([(eq, args, _neg(res)) for eq, args, res in o_equivariance_violations(r, r, P, Q)])
    found, higher = [], {}
    for group in groups:
        split = []
        for eq, args, res in group:
            for s in range(_degree(res) + 1):
                c = _coeff(res, s)
                if not _nonzero(c):
                    continue
                if s <= 1:
                    split.append((args, s, ("%s-t^%d" % (eq, s), args, c)))
                else:
                    higher.setdefault(eq, set()).add(s)
        found += [w for _, _, w in sorted(split, key=lambda x: x[:2])]
    oc = OpOracle(op)
    boundary = [[sum((oc.partial(x, y, _unit(m, a))[s] for x, y in wedges), Z) for a in range(m)]
                for s in range(n)]
    diff = [[b - a for a, b in zip(ra, rb)] for ra, rb in zip(T1, T2)]
    return found, {"difference_equals_boundary": diff == boundary,
                   "higher_order_residual_degrees": {k: sorted(v)
                                                     for k, v in sorted(higher.items())}}


# ---------------------------------------------------------------------------
# the operator-induced structures, written straight from their closed forms

class OpOracle:
    """Direct-formula evaluation around a weight-1 operator.

    Works from the base action (rho, mu, D) and the matrix T only; every
    value below is computed on demand from the displayed closed forms.
    """

    def __init__(self, op):
        self.r = op.action
        self.g = self.r.acting
        self.h = self.r.carrier
        self.T = rows_of(op.T)
        self.n = self.g.dim
        self.m = self.h.dim
        self._memo = {}

    def t(self, u):
        return mv(self.T, u)

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    # descent brackets on the carrier (memoized per tuple)
    def br2(self, u, v):
        def val():
            r, h = self.r, self.h
            return va(vs(mv(rho_at(r, self.t(u)), v), mv(rho_at(r, self.t(v)), u)),
                      br2(h, u, v))
        return self._cached(("br2", u, v), val)

    def br3(self, u, v, w):
        def val():
            r, h = self.r, self.h
            out = mv(D_at(r, self.t(u), self.t(v)), w)
            out = va(out, mv(mu_at(r, self.t(v), self.t(w)), u))
            out = vs(out, mv(mu_at(r, self.t(u), self.t(w)), v))
            return va(out, br3(h, u, v, w))
        return self._cached(("br3", u, v, w), val)

    # the induced representation on the acting space (memoized per tuple)
    def rho(self, u, x):
        def val():
            r, g = self.r, self.g
            return va(br2(g, self.t(u), x), self.t(mv(rho_at(r, x), u)))
        return self._cached(("rho", u, x), val)

    def mu(self, u, v, x):
        def val():
            r, g = self.r, self.g
            inner = vs(mv(D_at(r, x, self.t(u)), v), mv(mu_at(r, x, self.t(v)), u))
            return vs(br3(g, x, self.t(u), self.t(v)), self.t(inner))
        return self._cached(("mu", u, v, x), val)

    def D(self, u, v, x):
        def val():
            r, g = self.r, self.g
            inner = vs(mv(mu_at(r, self.t(v), x), u), mv(mu_at(r, self.t(u), x), v))
            return vs(br3(g, self.t(u), self.t(v), x), self.t(inner))
        return self._cached(("D", u, v, x), val)

    def partial(self, x, y, v):
        r = self.r
        return vs(self.t(mv(D_at(r, x, y), v)), br3(self.g, x, y, self.t(v)))


# ---------------------------------------------------------------------------
# coboundary matrices by direct formula, columns = basis cochains

def pair_list(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def partial_matrix(oc):
    """partial: wedge^2 g -> Hom(h, g), dense, pair columns i<j."""
    prs = pair_list(oc.n)
    rows = []
    eg = [tuple(Fraction(1) if s == i else Z for s in range(oc.n)) for i in range(oc.n)]
    for a in range(oc.m):
        for t in range(oc.n):
            rows.append(tuple(oc.partial(eg[i], eg[j],
                                         _unit(oc.m, a))[t] for (i, j) in prs))
    return rows


def _unit(n, i):
    return tuple(Fraction(1) if s == i else Z for s in range(n))


def delta1_eval(oc, f):
    """delta of a degree-1 cochain f (list of m value vectors) -> (fs, gs).

    fs is indexed by carrier pairs a<b, gs by (pair, plain index c).
    """
    m, n = oc.m, oc.n

    def fv(v):
        out = (Z,) * n
        for s, c in enumerate(v):
            if c != 0:
                out = va(out, sc(c, f[s]))
        return out

    eh = [_unit(m, a) for a in range(m)]
    fs, gs = [], []
    for (a, b) in pair_list(m):
        val = vs(oc.rho(eh[a], f[b]), oc.rho(eh[b], f[a]))
        fs.append(vs(val, fv(oc.br2(eh[a], eh[b]))))
        for c in range(m):
            val = oc.D(eh[a], eh[b], f[c])
            val = va(val, oc.mu(eh[b], eh[c], f[a]))
            val = vs(val, oc.mu(eh[a], eh[c], f[b]))
            gs.append(vs(val, fv(oc.br3(eh[a], eh[b], eh[c]))))
    return fs, gs


def delta2_eval(oc, f2, g2):
    """delta of a degree-2 pair given as dicts f2[(a,b)], g2[(a,b,c)] (a<b).

    Returns (fs, gs): fs indexed by ordered pair-tuples (t1, t2) of carrier
    pairs, gs by (t1, t2, plain c); formulas written out for n = 1:

      delta_I(f,g)(X1,X2)    = -( rho(x2)g(X1,y2) - rho(y2)g(X1,x2)
                                  - g(X1,[x2,y2]) ) + D(X1)f(X2) - f(X1 o X2)
      delta_II(f,g)(X1,X2,z) = -( mu(y2,z)g(X1,x2) - mu(x2,z)g(X1,y2) )
                               + D(X1)g(X2,z) - D(X2)g(X1,z) - g(X1 o X2, z)
                               - g(X2, <x1,y1,z>) + g(X1, <x2,y2,z>)
    """
    m, n = oc.m, oc.n
    eh = [_unit(m, a) for a in range(m)]
    prs = pair_list(m)

    def wexp(x, y):
        out = {}
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0 or i == j:
                    continue
                key, c = ((i, j), xi * yj) if i < j else ((j, i), -xi * yj)
                out[key] = out.get(key, Z) + c
        return out

    def f_at(wd):
        out = (Z,) * n
        for key, c in wd.items():
            out = va(out, sc(c, f2[key]))
        return out

    def g_at(wd, plain):
        out = (Z,) * n
        for key, c in wd.items():
            for s, cv in enumerate(plain):
                if cv != 0:
                    out = va(out, sc(c * cv, g2[key + (s,)]))
        return out

    def comp(p1, p2):
        (a1, b1), (a2, b2) = p1, p2
        d = wexp(oc.br3(eh[a1], eh[b1], eh[a2]), eh[b2])
        for key, c in wexp(eh[a2], oc.br3(eh[a1], eh[b1], eh[b2])).items():
            d[key] = d.get(key, Z) + c
        return d

    fs, gs = {}, {}
    for p1 in prs:
        w1 = {p1: Fraction(1)}
        a1, b1 = p1
        for p2 in prs:
            a2, b2 = p2
            head = vs(oc.rho(eh[a2], g_at(w1, eh[b2])),
                      oc.rho(eh[b2], g_at(w1, eh[a2])))
            head = vs(head, g_at(w1, oc.br2(eh[a2], eh[b2])))
            val = sc(Fraction(-1), head)
            val = va(val, oc.D(eh[a1], eh[b1], f_at({p2: Fraction(1)})))
            val = vs(val, f_at(comp(p1, p2)))
            fs[(p1, p2)] = val
            for c in range(m):
                head = vs(oc.mu(eh[b2], eh[c], g_at(w1, eh[a2])),
                          oc.mu(eh[a2], eh[c], g_at(w1, eh[b2])))
                val = sc(Fraction(-1), head)
                val = va(val, oc.D(eh[a1], eh[b1], g_at({p2: Fraction(1)}, eh[c])))
                val = vs(val, oc.D(eh[a2], eh[b2], g_at(w1, eh[c])))
                val = vs(val, g_at(comp(p1, p2), eh[c]))
                val = vs(val, g_at({p2: Fraction(1)}, oc.br3(eh[a1], eh[b1], eh[c])))
                val = va(val, g_at(w1, oc.br3(eh[a2], eh[b2], eh[c])))
                gs[(p1, p2, c)] = val
    return fs, gs


def delta1_matrix(oc):
    """Dense matrix of the degree-1 coboundary in the library's layout."""
    m, n = oc.m, oc.n
    prs = pair_list(m)
    ncols = m * n
    cols = []
    for a in range(m):
        for t in range(n):
            f = [(Z,) * n] * m
            f[a] = _unit(n, t)
            fs, gs = delta1_eval(oc, f)
            flat = []
            for v in fs + gs:
                flat.extend(v)
            cols.append(flat)
    nrows = len(cols[0])
    return [tuple(cols[c][r] for c in range(ncols)) for r in range(nrows)]


def delta2_matrix(oc):
    """Dense matrix of the degree-2 coboundary in the library's layout."""
    m, n = oc.m, oc.n
    prs = pair_list(m)
    M = len(prs)
    zero_f = {p: (Z,) * n for p in prs}
    zero_g = {p + (c,): (Z,) * n for p in prs for c in range(m)}
    cols = []
    for blk in range(M + M * m):
        for t in range(n):
            f2 = dict(zero_f)
            g2 = dict(zero_g)
            if blk < M:
                f2[prs[blk]] = _unit(n, t)
            else:
                q, c = divmod(blk - M, m)
                g2[prs[q] + (c,)] = _unit(n, t)
            fs, gs = delta2_eval(oc, f2, g2)
            flat = []
            for p1 in prs:
                for p2 in prs:
                    flat.extend(fs[(p1, p2)])
            for p1 in prs:
                for p2 in prs:
                    for cc in range(m):
                        flat.extend(gs[(p1, p2, cc)])
            cols.append(flat)
    nrows = len(cols[0])
    ncols = len(cols)
    return [tuple(cols[c][r] for c in range(ncols)) for r in range(nrows)]


# ---------------------------------------------------------------------------
# the coboundary of every degree, by direct formula

class RepOracle:
    """The interface of OpOracle (br2, br3, rho, mu, D, m, n) for a plain
    algebra and a representation of it: brackets and actions from the nested
    tuples of the library's tensors, D from its closed form (memoized per argument)."""

    def __init__(self, alg, rep):
        self.alg, self.r = alg, rep
        self.m, self.n = alg.dim, rep.carrier.dim
        self._memo = {}

    def _map(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def br2(self, u, v):
        return br2(self.alg, u, v)

    def br3(self, u, v, w):
        return br3(self.alg, u, v, w)

    def rho(self, u, x):
        return mv(self._map(("rho", u), lambda: rho_at(self.r, u)), x)

    def mu(self, u, v, x):
        return mv(self._map(("mu", u, v), lambda: mu_at(self.r, u, v)), x)

    def D(self, u, v, x):
        return mv(self._map(("D", u, v), lambda: D_at(self.r, u, v)), x)


class Form:
    """A linear form sum_j c_j x_j in unknowns x_j with rational c_j, which mixes
    with Fraction and int in + - and scalar *: the coordinates of a generic
    cochain, so that one evaluation of a linear formula gives all the columns
    of its matrix at once."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    @staticmethod
    def lift(x):
        if isinstance(x, Form):
            return x
        if x == 0:
            return Form({})
        raise TypeError("a linear form has no constant term")

    def __add__(self, other):
        out = dict(self.c)
        for j, v in Form.lift(other).c.items():
            s = out.get(j, Z) + v
            if s:
                out[j] = s
            else:
                del out[j]
        return Form(out)

    __radd__ = __add__

    def __neg__(self):
        return Form({j: -v for j, v in self.c.items()})

    def __sub__(self, other):
        return self + -Form.lift(other)

    def __rsub__(self, other):
        return Form.lift(other) - self

    def __mul__(self, s):
        if isinstance(s, Form):
            raise TypeError("a product of linear forms is not linear")
        return Form({j: v * s for j, v in self.c.items()} if s else {})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.c)


def _wedge(x, y):
    """x /\\ y on the pairs (i, j), i < j, as a dict of its nonzero coordinates."""
    out = {}
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi != 0 and yj != 0 and i != j:
                key, c = ((i, j), xi * yj) if i < j else ((j, i), -xi * yj)
                out[key] = out.get(key, Z) + c
    return {k: c for k, c in out.items() if c != 0}


def o_delta_eval(oc, p, f, g):
    """delta of the degree-p cochain (f, g), p >= 1, from the Yamaguti formula.

    f maps tuples of p-1 carrier pairs (a, b), a < b, to value vectors, and g
    maps (pairs, c), c a plain index, to value vectors; absent keys are zero
    and f is empty at p = 1.  Entries may be Fractions or Forms.  Returns
    (fs, gs), fs over every tuple of p pairs and gs over (pairs, c).  With
    X_i = x_i /\\ y_i, n = p - 1 and hats marking omitted slots,

      delta_I(X_1..X_{n+1}) =
          (-1)^n ( rho(x_{n+1}) g(X_1..X_n, y_{n+1}) - rho(y_{n+1}) g(X_1..X_n, x_{n+1})
                   - g(X_1..X_n, [x_{n+1}, y_{n+1}]) )
        + sum_{k=1..n} (-1)^{k+1} D(X_k) f(..^X_k..)
        + sum_{k<l} (-1)^k f(..^X_k..(X_k o X_l at slot l)..)
      delta_II(X_1..X_{n+1}, z) =
          (-1)^n ( mu(y_{n+1}, z) g(X_1..X_n, x_{n+1}) - mu(x_{n+1}, z) g(X_1..X_n, y_{n+1}) )
        + sum_{k=1..n+1} (-1)^{k+1} D(X_k) g(..^X_k.., z)
        + sum_{k<l} (-1)^k g(..^X_k..(X_k o X_l at slot l).., z)
        + sum_{k=1..n+1} (-1)^k g(..^X_k.., <x_k, y_k, z>)

    with X_k o X_l = <x_k, y_k, x_l> /\\ y_l + x_l /\\ <x_k, y_k, y_l>.
    """
    m, n = oc.m, oc.n
    e = [_unit(m, a) for a in range(m)]
    zero = (Z,) * n
    one = Fraction(1)

    def lin(fn, v):
        """fn, a linear map of value vectors, at v through the unit vectors."""
        out = zero
        for t, c in enumerate(v):
            if c:
                out = va(out, sc(c, fn(_unit(n, t))))
        return out

    def expand(args):
        """(pair tuple, coefficient) over the product of the wedge dicts."""
        for combo in itertools.product(*(d.items() for d in args)):
            yield (tuple(P for P, _ in combo),
                   functools.reduce(operator.mul, (c for _, c in combo), one))

    def f_at(args):
        out = zero
        for key, c in expand(args):
            if key in f:
                out = va(out, sc(c, f[key]))
        return out

    def g_at(args, z):
        out = zero
        for key, c in expand(args):
            for s, cz in enumerate(z):
                if cz != 0 and (key, s) in g:
                    out = va(out, sc(c * cz, g[key, s]))
        return out

    def comp(Pk, Pl):
        (ak, bk), (al, bl) = Pk, Pl
        d = _wedge(oc.br3(e[ak], e[bk], e[al]), e[bl])
        for key, c in _wedge(e[al], oc.br3(e[ak], e[bk], e[bl])).items():
            d[key] = d.get(key, Z) + c
        return {k: c for k, c in d.items() if c != 0}

    def D(P, v):
        return lin(lambda w: oc.D(e[P[0]], e[P[1]], w), v)

    sn = one if (p - 1) % 2 == 0 else -one
    fs, gs = {}, {}
    for Ps in itertools.product(pair_list(m), repeat=p):
        X = [{P: one} for P in Ps]
        head = X[:-1]
        x, y = (e[i] for i in Ps[-1])
        comps = {(k, l): comp(Ps[k], Ps[l]) for k in range(p) for l in range(k + 1, p)}

        def composed(k, l):
            args = list(X)
            args[l] = comps[k, l]
            del args[k]
            return args

        # 0-based k below: (-1)^{k+1} of the 1-based formula is (-1)^k here
        val = vs(lin(lambda w: oc.rho(x, w), g_at(head, y)),
                 lin(lambda w: oc.rho(y, w), g_at(head, x)))
        val = sc(sn, vs(val, g_at(head, oc.br2(x, y))))
        for k in range(p - 1):
            val = va(val, sc((-1) ** k, D(Ps[k], f_at(X[:k] + X[k + 1:]))))
        for k, l in comps:
            val = va(val, sc((-1) ** (k + 1), f_at(composed(k, l))))
        fs[Ps] = val
        for c in range(m):
            z = e[c]
            val = vs(lin(lambda w: oc.mu(y, z, w), g_at(head, x)),
                     lin(lambda w: oc.mu(x, z, w), g_at(head, y)))
            val = sc(sn, val)
            for k in range(p):
                rest = X[:k] + X[k + 1:]
                val = va(val, sc((-1) ** k, D(Ps[k], g_at(rest, z))))
                a, b = Ps[k]
                val = va(val, sc((-1) ** (k + 1), g_at(rest, oc.br3(e[a], e[b], z))))
            for k, l in comps:
                val = va(val, sc((-1) ** (k + 1), g_at(composed(k, l), z)))
            gs[Ps, c] = val
    return fs, gs


def _cochain_keys(m, p):
    """The blocks of a degree-p cochain in the library's flat layout: first the
    pair tuples of f (none at p = 1), then (pair tuple, c) of g, each
    lexicographic; every block holds one value vector."""
    tuples = list(itertools.product(pair_list(m), repeat=p - 1))
    return ([("f", ts) for ts in tuples] if p > 1 else []) + \
        [("g", (ts, c)) for ts in tuples for c in range(m)]


def o_inverse(M):
    """The inverse of a square matrix by Gauss-Jordan elimination on [M | I]."""
    M = rows_of(M)
    k = len(M)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(k)] for i, r in enumerate(M)]
    for c in range(k):
        piv = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return tuple(tuple(r[k:]) for r in rows)


def o_pushforward(p, m, n, flat, psi_g, psi_h):
    """The flat coordinates of the degree-p cochain ``flat`` (library layout,
    m-dim arguments, n-dim values) carried along (psi_g, psi_h):

      (f, g)'(U_1..U_{p-1}, z) = psi_g (f, g)(psi_h^-1 U_1, .., psi_h^-1 z)

    with psi_h^-1 (a /\\ b) = psi_h^-1 a /\\ psi_h^-1 b expanded on the pairs and
    the cochain read at every term of the expansion."""
    psi_g, inv = rows_of(psi_g), o_inverse(psi_h)
    img = [tuple(row[a] for row in inv) for a in range(m)]      # psi_h^-1 e_a
    keys = _cochain_keys(m, p)
    val = {key: tuple(flat[b * n:(b + 1) * n]) for b, key in enumerate(keys)}
    out = []
    for part, key in keys:
        ts, c = (key, None) if part == "f" else key
        args = [_wedge(img[a], img[b]) for a, b in ts]
        total = (Z,) * n
        for combo in itertools.product(*(d.items() for d in args)):
            coeff = functools.reduce(operator.mul, (q for _, q in combo), Fraction(1))
            pairs = tuple(P for P, _ in combo)
            if part == "f":
                total = va(total, sc(coeff, val["f", pairs]))
            else:
                for s, q in enumerate(img[c]):
                    if q != 0:
                        total = va(total, sc(coeff * q, val["g", (pairs, s)]))
        out.extend(mv(psi_g, total))
    return tuple(out)


def o_delta_columns(oc, p, cols=None):
    """{column: {row: value}} of the degree-p coboundary matrix in the library's
    layout, at ``cols`` (every column by default), read off one evaluation of
    o_delta_eval at the generic cochain whose coordinate j is the unknown x_j;
    empty columns are left out."""
    n = oc.n
    keys = _cochain_keys(oc.m, p)
    cols = range(len(keys) * n) if cols is None else cols
    f, g = {}, {}
    for j in cols:
        part, key = keys[j // n]
        table = f if part == "f" else g
        vec = list(table.get(key, (Z,) * n))
        vec[j % n] = Form({j: Fraction(1)})
        table[key] = tuple(vec)
    fs, gs = o_delta_eval(oc, p, f, g)
    out = {}
    for b, (part, key) in enumerate(_cochain_keys(oc.m, p + 1)):
        for t, x in enumerate((fs if part == "f" else gs)[key]):
            for j, v in Form.lift(x).c.items():
                out.setdefault(j, {})[b * n + t] = v
    return out


# views of the library's sparse matrices, read from rows, cols and data alone

def o_columns(M):
    """{column: {row: value}} of a sparse matrix; empty columns are left out."""
    out = {}
    for (r, c), v in M.data.items():
        if v != 0:
            out.setdefault(c, {})[r] = v
    return out


def o_dense(M):
    """The sparse matrix as a tuple of dense rows."""
    data = M.data
    return tuple(tuple(data.get((r, c), Z) for c in range(M.cols)) for r in range(M.rows))


def o_product(A, B):
    """The nonzero entries {(r, c): value} of the product A B of sparse matrices."""
    assert A.cols == B.rows
    rows = {}
    for (k, c), w in B.data.items():
        rows.setdefault(k, []).append((c, w))
    out = {}
    for (r, k), v in A.data.items():
        for c, w in rows.get(k, ()):
            out[r, c] = out.get((r, c), Z) + v * w
    return {rc: v for rc, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# truncated polynomial expansion of the deformation equations

def poly_binary_residual(r, Ts, u, v, L):
    """Coefficients t^0..t^(L-1) of the binary equation for T_t = sum t^i T_i."""
    Ts = [rows_of(T) for T in Ts]
    g, h = r.acting, r.carrier
    n = g.dim
    zero = (Z,) * n
    zm = (Z,) * h.dim
    Tu = [mv(Ts[i], u) if i < len(Ts) else zero for i in range(L)]
    Tv = [mv(Ts[i], v) if i < len(Ts) else zero for i in range(L)]
    lhs = [zero] * L
    for i in range(L):
        for j in range(L - i):
            lhs[i + j] = va(lhs[i + j], br2(g, Tu[i], Tv[j]))
    inner = [zm] * L
    for j in range(L):
        inner[j] = va(inner[j], vs(mv(rho_at(r, Tu[j]), v), mv(rho_at(r, Tv[j]), u)))
    inner[0] = va(inner[0], br2(h, u, v))
    rhs = [zero] * L
    for i in range(min(L, len(Ts))):
        for j in range(L - i):
            rhs[i + j] = va(rhs[i + j], mv(Ts[i], inner[j]))
    return [vs(lhs[s], rhs[s]) for s in range(L)]


def poly_ternary_residual(r, Ts, u, v, w, L):
    """Coefficients t^0..t^(L-1) of the ternary equation."""
    Ts = [rows_of(T) for T in Ts]
    g, h = r.acting, r.carrier
    n = g.dim
    zero = (Z,) * n
    zm = (Z,) * h.dim
    Tu = [mv(Ts[i], u) if i < len(Ts) else zero for i in range(L)]
    Tv = [mv(Ts[i], v) if i < len(Ts) else zero for i in range(L)]
    Tw = [mv(Ts[i], w) if i < len(Ts) else zero for i in range(L)]
    lhs = [zero] * L
    for i in range(L):
        for j in range(L - i):
            for k in range(L - i - j):
                lhs[i + j + k] = va(lhs[i + j + k], br3(g, Tu[i], Tv[j], Tw[k]))
    inner = [zm] * L
    for j in range(L):
        for k in range(L - j):
            term = mv(D_at(r, Tu[j], Tv[k]), w)
            term = va(term, mv(mu_at(r, Tv[j], Tw[k]), u))
            term = vs(term, mv(mu_at(r, Tu[j], Tw[k]), v))
            inner[j + k] = va(inner[j + k], term)
    inner[0] = va(inner[0], br3(h, u, v, w))
    rhs = [zero] * L
    for i in range(min(L, len(Ts))):
        for j in range(L - i):
            rhs[i + j] = va(rhs[i + j], mv(Ts[i], inner[j]))
    return [vs(lhs[s], rhs[s]) for s in range(L)]


def o_rrb_violations(op):
    """RRB1: [Tu,Tv] - T(rho(Tu)v - rho(Tv)u + [u,v]) on every basis pair,
    then RRB2: <Tu,Tv,Tw> - T(D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v + <u,v,w>)
    on every basis triple: the t^0 coefficients for T alone."""
    r = op.action
    e = [_unit(r.carrier.dim, a) for a in range(r.carrier.dim)]
    return _witnesses(r.carrier.dim, [
        (2, [("RRB1", lambda a, b: poly_binary_residual(r, [op.T], e[a], e[b], 1)[0])]),
        (3, [("RRB2", lambda a, b, c: poly_ternary_residual(r, [op.T], e[a], e[b], e[c],
                                                            1)[0])]),
    ])


# ---------------------------------------------------------------------------
# the file reader by ``Fraction``: what loading a rational, a matrix or an
# entry list gives, or the message of the error it raises

class ReadError(Exception):
    """A reader's refusal, carrying the message of its FormatError."""


def _stored(q):
    """The rational q as a support stores it: an int when it is integral."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def o_rational(v, where):
    """The stored scalar of the JSON value v, read by ``Fraction``: an int
    or a string as it is, a float through its shortest decimal string.  A
    boolean, a string of more than 4300 digits, or a value ``Fraction``
    refuses, is a ReadError; the message quotes a string over 40 characters
    by its first 40, an ellipsis and its length."""
    quoted = "%r... (%d characters)" % (v[:40], len(v)) if isinstance(v, str) and len(v) > 40 \
        else repr(v)
    if isinstance(v, str) and sum(c.isdigit() for c in v) > 4300:
        raise ReadError("%s: bad rational %s: a decimal may have at most 4300 digits and an "
                        "exponent of at most 4300" % (where, quoted))
    if isinstance(v, bool):
        raise ReadError("%s: bad rational %s" % (where, quoted))
    try:
        q = Fraction(str(v) if isinstance(v, float) else v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ReadError("%s: bad rational %s" % (where, quoted)) from None
    return _stored(q)


def o_matrix(rows, where, nr=None, nc=None):
    """({(r, c): q} over the nonzero entries, shape) of a row-major array,
    every entry read by ``o_rational``: the first fault in row-major order,
    a ragged row where it is met, a wrong size after every entry."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ReadError("%s: matrix must be a non-empty array of rows" % where)
    width, table = len(rows[0]), {}
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ReadError("%s: ragged matrix" % where)
        for c, v in enumerate(row):
            q = o_rational(v, where)
            if q:
                table[r, c] = q
    if nr is not None and len(rows) != nr or nc is not None and width != nc:
        raise ReadError("%s: matrix must be %sx%s" % (where, nr, nc))
    return table, (len(rows), width)


def o_sparse(entries, dim, arity, where, antisym):
    """The support {key: {row: q}}, keys and rows sorted, of an entry list
    [i, .., row, value] with ``arity`` indices before the row; entries at one
    place add up.  With ``antisym`` the pairs of keys swapped in their first
    two slots are visited in order of the key with i <= j: a nonzero diagonal
    or two listings that are not negatives of each other is the ReadError,
    and a pair listed one way is completed the other."""
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise ReadError("%s: entries must be a list" % where)
    table = {}
    for ent in entries:
        if not isinstance(ent, list) or len(ent) != arity + 2:
            raise ReadError("%s: entries must be [%s, value]"
                            % (where, ", ".join("ijkl"[:arity + 1])))
        for i in ent[:-1]:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
                raise ReadError("%s: index %r out of range 0..%d" % (where, i, dim - 1))
        cell = table.setdefault(tuple(ent[:arity]), {})
        cell[ent[arity]] = cell.get(ent[arity], Z) + o_rational(ent[-1], where)
    if antisym:
        for key in sorted({(min(k[:2]), max(k[:2])) + k[2:] for k in table}):
            swap = (key[1], key[0]) + key[2:]
            a = {r: q for r, q in table.get(key, {}).items() if q}
            b = {r: -q for r, q in table.get(swap, {}).items() if q}
            if key == swap:
                if a:
                    raise ReadError("%s: diagonal entry %s must vanish" % (where, key))
                continue
            if key in table and swap in table and a != b:
                raise ReadError("%s: entries at %s break antisymmetry" % (where, key))
            table[key] = a if key in table else b
            table[swap] = {r: -q for r, q in table[key].items()}
    support = {}
    for key in sorted(table):
        v = {r: _stored(q) for r, q in sorted(table[key].items()) if q}
        if v:
            support[key] = v
    return support
