r"""The Yamaguti cochain complex and the complex attached to a weight-1 operator.

Cochains of degree p >= 2 are pairs (f, g) with f defined on (p-1)-fold tensor
powers of wedge-squares of the algebra and g carrying one extra plain slot; a
degree-1 cochain is a plain linear map.  Wedge slots are stored on the reduced
pair-index basis (i < j, lexicographic).  The coboundary is

  (delta_I (f,g))(X_1..X_{n+1}) =
      (-1)^n ( rho(x_{n+1}) g(X_1..X_n, y_{n+1})
             - rho(y_{n+1}) g(X_1..X_n, x_{n+1})
             - g(X_1..X_n, [x_{n+1}, y_{n+1}]) )
    + sum_{k=1..n} (-1)^{k+1} D(X_k) f(X_1..^X_k..X_{n+1})
    + sum_{k<l} (-1)^k f(X_1..^X_k..(X_k o X_l at slot l)..X_{n+1})

  (delta_II (f,g))(X_1..X_{n+1}, z) =
      (-1)^n ( mu(y_{n+1}, z) g(X_1..X_n, x_{n+1})
             - mu(x_{n+1}, z) g(X_1..X_n, y_{n+1}) )
    + sum_{k=1..n+1} (-1)^{k+1} D(X_k) g(X_1..^X_k..X_{n+1}, z)
    + sum_{k<l} (-1)^k g(X_1..^X_k..(X_k o X_l at slot l)..X_{n+1}, z)
    + sum_{k=1..n+1} (-1)^k g(X_1..^X_k..X_{n+1}, <x_k, y_k, z>)

with X_i = x_i /\ y_i, X_k o X_l = <x_k,y_k,x_l> /\ y_l + x_l /\ <x_k,y_k,y_l>.
A degree-1 cochain f is read as g(z) = f(z) with no wedge slots (n = 0), which
gives

  (delta_I f)(x, y)    = rho(x)f(y) - rho(y)f(x) - f([x, y])
  (delta_II f)(x, y, z) = D(x,y)f(z) + mu(y,z)f(x) - mu(x,z)f(y) - f(<x,y,z>).

Coboundary matrices of every degree are assembled block-by-block from these
formulas, stored sparsely; composites delta о delta are exact sparse products.
"""

from .errors import AxiomsFailed, ShapeMismatch, TooLarge
from .linalg import (Q0, Q1, Echelon, frac, invert, is_zero_vec, mat_col,
                     mat_vec, solve, vadd, vscale, vsub, vzero)
from .reps import RepAction


# ---------------------------------------------------------------------------
# sparse matrices over the rationals

class SparseMat:
    """A rows x cols rational matrix stored as {(r, c): value}."""

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols
        self.data = {}

    def add(self, r, c, v):
        if v == 0:
            return
        key = (r, c)
        new = self.data.get(key, Q0) + v
        if new == 0:
            self.data.pop(key, None)
        else:
            self.data[key] = new

    def is_zero(self):
        return not self.data

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch("cannot multiply %dx%d by %dx%d"
                                % (self.rows, self.cols, other.rows, other.cols))
        by_row = {}
        for (r, c), v in other.data.items():
            by_row.setdefault(r, []).append((c, v))
        out = SparseMat(self.rows, other.cols)
        for (r, k), v in self.data.items():
            for c, w in by_row.get(k, ()):
                out.add(r, c, v * w)
        return out

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length %d != %d columns" % (len(vec), self.cols))
        out = [Q0] * self.rows
        for (r, c), v in self.data.items():
            if vec[c] != 0:
                out[r] += v * vec[c]
        return tuple(out)

    def row_dicts(self):
        """One {col: value} dict per row; zero rows give empty dicts."""
        rows = [{} for _ in range(self.rows)]
        for (r, c), v in self.data.items():
            rows[r][c] = v
        return rows

    def col_dicts(self):
        """One {row: value} dict per column; zero columns give empty dicts."""
        cols = [{} for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = v
        return cols

    def nonzero_rows(self):
        return [tuple(d.get(c, Q0) for c in range(self.cols)) for d in self.row_dicts() if d]

    def rank(self):
        return Echelon(self.row_dicts()).rank

    def nullity(self):
        return self.cols - self.rank()

    def nullspace(self):
        return Echelon(self.row_dicts()).nullspace(self.cols)

    def solve(self, b):
        """Some x with self . x = b (free coordinates 0); raises Inconsistent."""
        return solve(self.row_dicts(), b, ncols=self.cols)

    def to_dense(self):
        return tuple(tuple(self.data.get((r, c), Q0) for c in range(self.cols))
                     for r in range(self.rows))


# ---------------------------------------------------------------------------
# pair-index bookkeeping

def pair_basis(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def wedge_coords(x, y, pidx):
    """Sparse coordinates of x /\\ y on the reduced pair basis."""
    out = {}
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0 or i == j:
                continue
            if i < j:
                t, c = pidx[(i, j)], xi * yj
            else:
                t, c = pidx[(j, i)], -xi * yj
            new = out.get(t, Q0) + c
            if new == 0:
                out.pop(t, None)
            else:
                out[t] = new
    return out


class _Layout:
    """Flat indexing of degree-p cochains on an m-dim algebra with n-dim values."""

    def __init__(self, p, m, n):
        if p < 1:
            raise ShapeMismatch("cochain degrees start at 1, not %d" % p)
        self.p = p
        self.m = m
        self.n = n
        self.M = m * (m - 1) // 2
        # a degree-1 cochain is its second component g(z) alone, with no
        # wedge slots, so the first component has no blocks there
        self.f_blocks = self.M ** (p - 1) if p > 1 else 0
        self.g_blocks = self.M ** (p - 1) * m
        self.blocks = self.f_blocks + self.g_blocks
        self.total = self.blocks * n

    def tuple_index(self, ts):
        idx = 0
        for t in ts:
            idx = idx * self.M + t
        return idx

    def g_block(self, ts, a):
        return self.f_blocks + self.tuple_index(ts) * self.m + a


class Cochain:
    """A degree-p cochain with values in an n-dimensional space.

    For p = 1, ``f`` lists the m value vectors on the basis; for p >= 2, ``f``
    has M^(p-1) vectors (lexicographic over pair-index tuples) and ``g`` has
    M^(p-1) * m vectors (pair-index tuples, then the plain slot).
    """

    def __init__(self, p, m, n, f, g=None):
        self.p = p
        self.m = m
        self.n = n
        self.layout = _Layout(p, m, n)
        self.f = tuple(tuple(frac(x) for x in v) for v in f)
        self.g = None if g is None else tuple(tuple(frac(x) for x in v) for v in g)
        if p == 1:
            if len(self.f) != m or self.g is not None:
                raise ShapeMismatch("degree-1 cochain is %d plain vectors" % m)
        else:
            if len(self.f) != self.layout.f_blocks:
                raise ShapeMismatch("first component needs %d vectors"
                                    % self.layout.f_blocks)
            if self.g is None or len(self.g) != self.layout.g_blocks:
                raise ShapeMismatch("second component needs %d vectors"
                                    % self.layout.g_blocks)
        for v in self.f + (self.g or ()):
            if len(v) != n:
                raise ShapeMismatch("values must have length %d" % n)

    @classmethod
    def zero(cls, p, m, n):
        lay = _Layout(p, m, n)
        if p == 1:
            return cls(p, m, n, [vzero(n)] * m)
        return cls(p, m, n, [vzero(n)] * lay.f_blocks, [vzero(n)] * lay.g_blocks)

    @classmethod
    def from_flat(cls, p, m, n, flat):
        lay = _Layout(p, m, n)
        if len(flat) != lay.total:
            raise ShapeMismatch("flat length %d != %d" % (len(flat), lay.total))
        vecs = [tuple(flat[b * n:(b + 1) * n]) for b in range(lay.blocks)]
        if p == 1:
            return cls(p, m, n, vecs)
        return cls(p, m, n, vecs[:lay.f_blocks], vecs[lay.f_blocks:])

    def as_flat(self):
        out = []
        for v in self.f + (self.g or ()):
            out.extend(v)
        return tuple(out)

    def is_zero(self):
        return all(is_zero_vec(v) for v in self.f + (self.g or ()))

    def eval_f(self, arg_dicts):
        """f at wedge arguments given as sparse pair-index dicts."""
        if self.p == 1:
            raise ShapeMismatch("degree-1 cochains take a plain argument")
        total = vzero(self.n)
        for ts, coeff in _expand(arg_dicts):
            total = vadd(total, vscale(coeff, self.f[self.layout.tuple_index(ts)]))
        return total

    def eval_g(self, arg_dicts, plain):
        """g at wedge arguments plus a sparse plain-slot vector (index->coeff)."""
        total = vzero(self.n)
        if self.p == 1:
            for a, c in plain.items():
                total = vadd(total, vscale(c, self.f[a]))
            return total
        for ts, coeff in _expand(arg_dicts):
            base = self.layout.tuple_index(ts) * self.m
            for a, c in plain.items():
                total = vadd(total, vscale(coeff * c, self.g[base + a]))
        return total


def _expand(arg_dicts):
    combos = [((), Q1)]
    for d in arg_dicts:
        combos = [(ts + (t,), c * cv) for ts, c in combos for t, cv in d.items()]
    return combos


def zero_cochain(p, m, n):
    return Cochain.zero(p, m, n)


# ---------------------------------------------------------------------------
# coboundary matrices

# The most rows a coboundary matrix may have: one per coordinate of a
# degree-(p+1) cochain, M^p (1 + m) n with M = m(m-1)/2.  The 4-dim operator
# p3 at degree 4 has 25,920 rows, a 5-dim one at degree 3 30,000; the count
# grows about M-fold per degree, and so do the time and memory of a request.
MAX_COBOUNDARY_ROWS = 100_000


def coboundary_matrix_for(alg, rep, p):
    """The matrix of the degree-p coboundary over the rep's carrier.

    Rows follow the degree-(p+1) layout, columns the degree-p layout, both in
    the documented lexicographic order with value components innermost.  A
    matrix of more than MAX_COBOUNDARY_ROWS rows raises TooLarge before
    anything is built.
    """
    if rep.acting.dim != alg.dim:
        raise ShapeMismatch("representation does not act on the given algebra")
    m = alg.dim
    n = rep.carrier.dim
    lin = _Layout(p, m, n)
    lout = _Layout(p + 1, m, n)
    if lout.total > MAX_COBOUNDARY_ROWS:
        raise TooLarge("the degree-%d coboundary has %d rows, over the budget of %d"
                       % (p, lout.total, MAX_COBOUNDARY_ROWS))
    prs = pair_basis(m)
    pidx = {pr: t for t, pr in enumerate(prs)}
    out = SparseMat(lout.total, lin.total)

    def add_block(ob, ib, matrix):
        for r in range(n):
            row = matrix[r]
            for c in range(n):
                if row[c] != 0:
                    out.add(ob * n + r, ib * n + c, row[c])

    def add_scalar(ob, ib, s):
        if s != 0:
            for r in range(n):
                out.add(ob * n + r, ib * n + r, s)

    nn = p - 1  # input cochains take nn wedge slots
    sign_n = Q1 if nn % 2 == 0 else -Q1
    import itertools
    for tup in itertools.product(range(lin.M), repeat=nn + 1):
        pairs = [prs[t] for t in tup]
        # delta_I output block at tup
        ob = lout.tuple_index(tup)
        a1, b1 = pairs[-1]
        head = tup[:-1]
        add_block(ob, lin.g_block(head, b1), _scale(sign_n, rep.rho[a1]))
        add_block(ob, lin.g_block(head, a1), _scale(-sign_n, rep.rho[b1]))
        for s, cs in enumerate(alg.binary[a1][b1]):
            add_scalar(ob, lin.g_block(head, s), -sign_n * cs)
        for k in range(nn):
            rest = tup[:k] + tup[k + 1:]
            sgn = Q1 if k % 2 == 0 else -Q1  # (-1)^{k+1} with 1-based k
            add_block(ob, lin.tuple_index(rest),
                      _scale(sgn, rep.derived_D[pairs[k][0]][pairs[k][1]]))
        for k in range(nn + 1):
            for l in range(k + 1, nn + 1):
                sgn = -Q1 if k % 2 == 0 else Q1  # (-1)^k with 1-based k
                comp = _composite(alg, pairs[k], pairs[l], pidx)
                for t2, cv in comp.items():
                    slots = list(tup)
                    slots[l] = t2
                    del slots[k]
                    add_scalar(ob, lin.tuple_index(tuple(slots)), sgn * cv)
        # delta_II output blocks at (tup, c)
        for c in range(m):
            og = lout.g_block(tup, c)
            add_block(og, lin.g_block(head, a1), _scale(sign_n, rep.mu[b1][c]))
            add_block(og, lin.g_block(head, b1), _scale(-sign_n, rep.mu[a1][c]))
            for k in range(nn + 1):
                rest = tup[:k] + tup[k + 1:]
                ak, bk = pairs[k]
                sgn = Q1 if k % 2 == 0 else -Q1
                add_block(og, lin.g_block(rest, c), _scale(sgn, rep.derived_D[ak][bk]))
                for s, cs in enumerate(alg.ternary[ak][bk][c]):
                    add_scalar(og, lin.g_block(rest, s), -sgn * cs)
                for l in range(k + 1, nn + 1):
                    comp = _composite(alg, pairs[k], pairs[l], pidx)
                    for t2, cv in comp.items():
                        slots = list(tup)
                        slots[l] = t2
                        del slots[k]
                        add_scalar(og, lin.g_block(tuple(slots), c), -sgn * cv)
    return out


def _scale(s, mx):
    if s == 1:
        return mx
    return tuple(tuple(s * v for v in row) for row in mx)


def _composite(alg, pk, pl, pidx):
    """X_k o X_l = <x_k,y_k,x_l> /\\ y_l + x_l /\\ <x_k,y_k,y_l> on pair coords."""
    ak, bk = pk
    al, bl = pl
    m = alg.dim
    ea = [alg.e(i) for i in range(m)]
    d1 = wedge_coords(alg.ternary[ak][bk][al], ea[bl], pidx)
    d2 = wedge_coords(ea[al], alg.ternary[ak][bk][bl], pidx)
    for t, c in d2.items():
        new = d1.get(t, Q0) + c
        if new == 0:
            d1.pop(t, None)
        else:
            d1[t] = new
    return d1


def yamaguti_coboundary(alg, rep, c):
    """Apply the degree-p coboundary to a cochain over (alg, rep)."""
    if c.m != alg.dim or c.n != rep.carrier.dim:
        raise ShapeMismatch("cochain shapes do not match the algebra and carrier")
    mat = coboundary_matrix_for(alg, rep, c.p)
    return Cochain.from_flat(c.p + 1, c.m, c.n, mat.apply(c.as_flat()))


# ---------------------------------------------------------------------------
# the complex attached to a weight-1 operator

def induced_rep(op):
    """The representation of the descent algebra on the acting algebra's space.

    rho_T(u)x = [Tu,x] + T(rho(x)u)
    mu_T(u,v)x = <x,Tu,Tv> - T( D(x,Tu)v - mu(x,Tv)u )
    with derived D checked against
    D_T(u,v)x = <Tu,Tv,x> - T( mu(Tv,x)u - mu(Tu,x)v ).
    """
    from .rrb import descent_algebra
    op.ensure_verified()
    r = op.action
    g, h = r.acting, r.carrier
    n, m = g.dim, h.dim
    desc = descent_algebra(op)
    Tc = op._cols
    rho = []
    for a in range(m):
        cols = [vadd(g.bracket2(Tc[a], g.e(i)),
                     op.apply(mat_col(r.rho[i], a))) for i in range(n)]
        rho.append(tuple(tuple(cols[i][t] for i in range(n)) for t in range(n)))
    # D(e_i, Tu_a), mu(e_i, Tu_a) and mu(Tu_a, e_i), each formed once
    D_xT = [[r.D_at(i, Tc[a]) for a in range(m)] for i in range(n)]
    mu_xT = [[r.mu_at(i, Tc[a]) for a in range(m)] for i in range(n)]
    mu_Tx = [[r.mu_at(Tc[a], i) for a in range(m)] for i in range(n)]
    mu = []
    for a in range(m):
        row = []
        for b in range(m):
            cols = []
            for i in range(n):
                inner = vsub(mat_col(D_xT[i][a], b), mat_col(mu_xT[i][b], a))
                cols.append(vsub(g.bracket3(i, Tc[a], Tc[b]), op.apply(inner)))
            row.append(tuple(tuple(cols[i][t] for i in range(n)) for t in range(n)))
        mu.append(row)
    rep = RepAction(desc, g, rho, mu)
    for a in range(m):
        for b in range(m):
            for i in range(n):
                inner = vsub(mat_col(mu_Tx[i][b], a), mat_col(mu_Tx[i][a], b))
                want = vsub(g.bracket3(Tc[a], Tc[b], i), op.apply(inner))
                if mat_col(rep.derived_D[a][b], i) != want:
                    raise AxiomsFailed(
                        "derived D of the induced pair deviates from its closed "
                        "form at (%d,%d,%d)" % (a, b, i))
    return rep


def zero_cochain_map(op, x, y):
    """partial(x /\\ y) as a degree-1 cochain; always a 1-cocycle.

    partial(x /\\ y)(u) = T(D(x,y)u) - <x,y,Tu> reads nothing but the
    operator, so no complex is built for it.
    """
    r = op.action
    m, n = r.carrier.dim, r.acting.dim
    D = r.D_at(x, y)
    f = [vsub(op.apply(mat_col(D, a)), r.acting.bracket3(x, y, op._cols[a])) for a in range(m)]
    return Cochain(1, m, n, f)


def partial_matrix(op):
    """The matrix of partial on the (i < j) pair basis of the acting algebra's
    wedge square, into degree-1 cochains."""
    g = op.action.acting
    n, m = g.dim, op.action.carrier.dim
    prs = pair_basis(n)
    out = SparseMat(m * n, len(prs))
    for col, (i, j) in enumerate(prs):
        for a, v in enumerate(zero_cochain_map(op, g.e(i), g.e(j)).f):
            for t, val in enumerate(v):
                out.add(a * n + t, col, val)
    return out


class TComplex:
    """Cochain complex of a verified weight-1 operator, matrices built lazily.

    Degree p cochains map wedge powers of the carrier into the acting algebra;
    the degree-0 space is the wedge square of the acting algebra, mapped in by
    partial (``partial_matrix``).
    """

    def __init__(self, op):
        self.op = op
        self.rep = induced_rep(op)
        self.descent = self.rep.acting
        self.rep.ensure_representation()
        self._matrices = {}

    @property
    def m(self):
        return self.op.action.carrier.dim

    @property
    def n(self):
        return self.op.action.acting.dim

    def matrix(self, p):
        """Matrix of the coboundary out of degree p (p = 0 gives partial)."""
        if p < 0:
            raise ShapeMismatch("degree must be >= 0")
        if p not in self._matrices:
            if p == 0:
                self._matrices[p] = partial_matrix(self.op)
            else:
                self._matrices[p] = coboundary_matrix_for(self.descent, self.rep, p)
        return self._matrices[p]

    def zero_cochain_map(self, x, y):
        """partial(x /\\ y) as a degree-1 cochain; always a 1-cocycle."""
        return zero_cochain_map(self.op, x, y)

    def coboundary(self, c):
        return Cochain.from_flat(c.p + 1, c.m, c.n, self.matrix(c.p).apply(c.as_flat()))

    def cohomology_dims(self, p):
        """(dim Z^p, dim B^p, dim H^p) for p >= 1."""
        if p < 1:
            raise ShapeMismatch("cohomology degrees start at 1")
        z = self.matrix(p).nullity()
        b = self.matrix(p - 1).rank()
        return (z, b, z - b)

    def cohomology_witnesses(self, p):
        """Cocycle representatives spanning H^p.

        Seeded with the coboundaries, an elimination keeps each Z^p basis
        vector, in order, that is independent of everything kept before it.
        """
        span = Echelon(self.matrix(p - 1).col_dicts())
        chosen = [v for v in self.matrix(p).nullspace() if span.insert(v)]
        return [Cochain.from_flat(p, self.m, self.n, v) for v in chosen]


def pushforward_cochain(pair, c):
    """Transport a cochain along an operator homomorphism (psi_g, psi_h).

    p_I(f)(U_1..U_n) = psi_g( f(psi_h^{-1} U_1, .., psi_h^{-1} U_n) ) and
    likewise for the second component with psi_h^{-1} on the plain slot;
    psi_h must be invertible.
    """
    pg = pair.psi_g
    ph_inv = invert(pair.psi_h)
    m, n = c.m, c.n
    inv_cols = [mat_col(ph_inv, a) for a in range(m)]
    if c.p == 1:
        f = [mat_vec(pg, c.eval_g([], dict((s, cv) for s, cv in enumerate(inv_cols[a])
                                           if cv != 0)))
             for a in range(m)]
        return Cochain(1, m, n, f)
    prs = pair_basis(m)
    pidx = {pr: t for t, pr in enumerate(prs)}
    arg_of = [wedge_coords(inv_cols[a], inv_cols[b], pidx) for (a, b) in prs]
    import itertools
    fs, gs = [], []
    for tup in itertools.product(range(c.layout.M), repeat=c.p - 1):
        args = [arg_of[t] for t in tup]
        fs.append(mat_vec(pg, c.eval_f(args)))
        for a in range(m):
            plain = {s: cv for s, cv in enumerate(inv_cols[a]) if cv != 0}
            gs.append(mat_vec(pg, c.eval_g(args, plain)))
    return Cochain(c.p, m, n, fs, gs)
