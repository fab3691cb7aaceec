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

Coboundary matrices of every degree are assembled from these formulas term by
term, and every entry comes from a nonzero entry of a structure tensor: the
composites X_k o X_l, one per two basis pairs, are tabulated once per matrix,
and rho, mu, D and both brackets are read from their supports
(``linalg.Tensor.support``), so a zero block or bracket coefficient emits
nothing.  The matrices are stored sparsely, and so is a cochain: it is its
support {flat index: q}, which a matrix applies to (``SparseMat.apply``), the
elimination returns as a witness, and transport pulls back and pushes
forward slot by slot (``pushforward_cochain``).

The operator's own data, the descent algebra and the induced representation
(rho_T, mu_T, D_T), is tabulated in the same way: the supports are pulled back
along T's nonzero entries and pushed forward through T (``linalg.pull`` and
``linalg.push``), so no dense evaluation of T or of the action takes place;
the map partial on the wedge square of the acting algebra is one such table.
"""

import itertools

from .errors import AxiomsFailed, DimMismatch, ShapeMismatch, TooLarge
from .linalg import (Q0, Q1, Echelon, Tensor, axpy, dense, frac, invert, matrix_values, pull,
                     push, solve, sparse_map, vector_values)
from .reps import RepAction


# ---------------------------------------------------------------------------
# sparse matrices over the rationals

class SparseMat:
    """A rows x cols rational matrix stored as {(r, c): value}; the echelon
    form of its rows is built once, when first needed, and ``add`` drops it."""

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        self.data = {} if data is None else data
        self._ech = None

    def add(self, r, c, v):
        if v == 0:
            return
        self._ech = None
        key = (r, c)
        new = self.data.get(key, Q0) + v
        if new == 0:
            self.data.pop(key, None)
        else:
            self.data[key] = new

    def apply(self, vec):
        """The product with a sparse vector {col: q}, as a sparse vector {row: q}."""
        if vec and not 0 <= min(vec) <= max(vec) < self.cols:
            raise ShapeMismatch("vector index outside the %d columns" % self.cols)
        out = {}
        for (r, c), v in self.data.items():
            x = vec.get(c)
            if x:
                out[r] = out.get(r, Q0) + v * x
        return {r: q for r, q in out.items() if q}

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

    def _echelon(self):
        if self._ech is None:
            self._ech = Echelon(self.row_dicts())
        return self._ech

    def rank(self):
        return self._echelon().rank

    def nullity(self):
        return self.cols - self.rank()

    def nullspace(self):
        """A kernel basis, one sparse vector {col: q} per free column."""
        return self._echelon().nullspace(self.cols)

    def solve(self, b):
        """Some x with self . x = b (free coordinates 0); raises Inconsistent."""
        return solve(self.row_dicts(), b, ncols=self.cols)


# ---------------------------------------------------------------------------
# pair-index bookkeeping

def pair_basis(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def wedge_coords(x, y, pidx):
    """Sparse coordinates of x /\\ y on the reduced pair basis; x and y are
    vectors or sparse dicts {index: q}."""
    x, y = (v if isinstance(v, dict) else dict(enumerate(v)) for v in (x, y))
    out = {}
    for i, xi in x.items():
        if xi == 0:
            continue
        for j, yj in y.items():
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
    """Flat indexing of degree-p cochains on an m-dim algebra with n-dim values.

    The coordinate r of block b has flat index b n + r.  The f blocks come
    first, one per slot tuple of p - 1 pair indices, then the g blocks, one
    per slot tuple of those and a plain index, each in lexicographic order.
    """

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

    def block(self, key):
        """The block of a slot tuple, f's with p - 1 slots or g's with p."""
        if len(key) < self.p:
            return self.tuple_index(key)
        return self.f_blocks + self.tuple_index(key[:-1]) * self.m + key[-1]

    def split(self, support):
        """A support {flat index: q} as slot tables (f, g), {slot tuple: {r: q}}."""
        tables = ({}, {})
        for k, q in support.items():
            b, r = divmod(k, self.n)
            key = ()
            if b >= self.f_blocks:
                b, c = divmod(b - self.f_blocks, self.m)
                key = (c,)
            for _ in range(self.p - 1):
                b, t = divmod(b, self.M)
                key = (t,) + key
            tables[len(key) == self.p].setdefault(key, {})[r] = q
        return tables


class Cochain:
    """A degree-p cochain with values in an n-dimensional space.

    It is stored as its support, ``support`` = {flat index: q} over the
    nonzero coordinates (see ``_Layout``); the dense views are built on
    demand.  ``as_flat()`` lists every coordinate.  For p = 1, ``f`` lists
    the m value vectors on the basis; for p >= 2, ``f`` has M^(p-1) vectors
    (lexicographic over pair-index tuples) and ``g`` has M^(p-1) * m vectors
    (pair-index tuples, then the plain slot).  Built from those vectors, or,
    inside the library, from a support by ``from_support``.
    """

    def __init__(self, p, m, n, f, g=None):
        lay = _Layout(p, m, n)
        f = list(f)
        want = (m, None) if p == 1 else (lay.f_blocks, lay.g_blocks)
        if (len(f), None if g is None else len(g)) != want:
            raise ShapeMismatch("a degree-%d cochain has (f, g) of %s vectors" % (p, want))
        vecs = f + list(g or ())
        if any(len(v) != n for v in vecs):
            raise ShapeMismatch("values must have length %d" % n)
        self._set(lay, {b * n + r: q for b, v in enumerate(vecs)
                        for r, q in enumerate(map(frac, v)) if q})

    @classmethod
    def from_support(cls, p, m, n, support):
        """The cochain whose nonzero coordinates are the sparse ``support``
        {flat index: q}; zero entries are dropped."""
        self = cls.__new__(cls)
        self._set(_Layout(p, m, n), {k: q for k, q in support.items() if q})
        return self

    def _set(self, layout, support):
        self.layout = layout
        self.p, self.m, self.n = layout.p, layout.m, layout.n
        self.support = support

    @classmethod
    def from_table(cls, p, m, n, table):
        """The cochain with values {slot tuple: {r: q}}, f's keys with p - 1
        slots and g's with p (see ``_Layout.block``)."""
        lay = _Layout(p, m, n)
        return cls.from_support(p, m, n, {lay.block(key) * n + r: q for key, v in table.items()
                                          for r, q in v.items()})

    @classmethod
    def zero(cls, p, m, n):
        return cls.from_support(p, m, n, {})

    @classmethod
    def from_flat(cls, p, m, n, flat):
        lay = _Layout(p, m, n)
        if len(flat) != lay.total:
            raise ShapeMismatch("flat length %d != %d" % (len(flat), lay.total))
        return cls.from_support(p, m, n, dict(enumerate(map(frac, flat))))

    def as_flat(self):
        return dense(self.support, (self.layout.total,))

    def _vectors(self):
        flat, n = self.as_flat(), self.n
        return tuple(flat[b * n:(b + 1) * n] for b in range(self.layout.blocks))

    @property
    def f(self):
        vecs = self._vectors()
        return vecs if self.p == 1 else vecs[:self.layout.f_blocks]

    @property
    def g(self):
        return None if self.p == 1 else self._vectors()[self.layout.f_blocks:]

    def is_zero(self):
        return not self.support


# ---------------------------------------------------------------------------
# coboundary matrices

# The most rows a coboundary matrix may have: one per coordinate of a
# degree-(p+1) cochain, M^p (1 + m) n with M = m(m-1)/2.  The 4-dim operator
# p3 at degree 4 has 25,920 rows, a 5-dim one at degree 3 30,000; the count
# grows about M-fold per degree, and so do the time and memory of a request.
MAX_COBOUNDARY_ROWS = 100_000


def _check_rows(p, m, n):
    """Raise TooLarge when the degree-p coboundary, with M^p (m + 1) n rows
    for M = m(m-1)/2, has more than MAX_COBOUNDARY_ROWS of them.  The count
    is multiplied up one degree at a time and stops at the first degree
    over the budget, so M^p is never formed for a huge p."""
    M = m * (m - 1) // 2
    rows = (m + 1) * n
    for _ in range(p):
        rows *= M
        if rows > MAX_COBOUNDARY_ROWS:
            raise TooLarge("the degree-%d coboundary has at least %d rows, over the budget "
                           "of %d" % (p, rows, MAX_COBOUNDARY_ROWS))
        if M < 2 or not rows:
            break        # M^p = M for M < 2, and zero rows stay zero


def coboundary_matrix_for(alg, rep, p):
    """The matrix of the degree-p coboundary over the rep's carrier.

    Rows follow the degree-(p+1) layout, columns the degree-p layout, both in
    the documented lexicographic order with value components innermost.  A
    matrix of more than MAX_COBOUNDARY_ROWS rows raises TooLarge before
    anything is built.  Each term of the formula emits only the nonzero
    entries of its structure tensor: rho, mu and D blocks entry by entry,
    bracket coefficients as scalar diagonals, and the composites X_k o X_l
    from a table made once per matrix.
    """
    if rep.acting.dim != alg.dim:
        raise ShapeMismatch("representation does not act on the given algebra")
    m = alg.dim
    n = rep.carrier.dim
    _check_rows(p, m, n)
    lin = _Layout(p, m, n)
    lout = _Layout(p + 1, m, n)
    prs = pair_basis(m)
    pidx = {pr: t for t, pr in enumerate(prs)}
    comp = [[_composite(alg.ternary.support, pk, pl, pidx) for pl in prs] for pk in prs]
    rho, mu, D = (_signed_blocks(t) for t in (rep.rho, rep.mu, rep.derived_D))
    binary, ternary = alg.binary.support, alg.ternary.support
    data = {}

    def block(ob, ib, entries):
        ro, co = ob * n, ib * n
        for r, c, q in entries:
            key = (ro + r, co + c)
            data[key] = data.get(key, Q0) + q

    def scalar(ob, ib, q):
        ro, co = ob * n, ib * n
        for r in range(n):
            key = (ro + r, co + r)
            data[key] = data.get(key, Q0) + q

    none = ((), ())
    odd = (p - 1) % 2       # the head terms carry (-1)^(p-1)
    gin = lin.f_blocks      # the input's first g block
    for tup in itertools.product(range(lin.M), repeat=p):
        pairs = [prs[t] for t in tup]
        a1, b1 = pairs[-1]
        head = gin + lin.tuple_index(tup[:-1]) * m
        rests = [lin.tuple_index(tup[:k] + tup[k + 1:]) for k in range(p)]
        # (-1)^k cv for X_k o X_l in slot l (1-based k), slot k dropped
        comps = []
        for k in range(p):
            for l in range(k + 1, p):
                for t2, cv in comp[tup[k]][tup[l]].items():
                    slots = list(tup)
                    slots[l] = t2
                    del slots[k]
                    comps.append((lin.tuple_index(slots), cv if k % 2 else -cv))
        # delta_I at the output block tup; D(X_k) has sign (-1)^(k+1), 1-based
        ob = lout.tuple_index(tup)
        block(ob, head + b1, rho.get((a1,), none)[odd])
        block(ob, head + a1, rho.get((b1,), none)[1 - odd])
        for s, cs in binary.get((a1, b1), {}).items():
            scalar(ob, head + s, cs if odd else -cs)
        for k in range(p - 1):
            block(ob, rests[k], D.get(pairs[k], none)[k % 2])
        for ti, cv in comps:
            scalar(ob, ti, cv)
        # delta_II at the output blocks (tup, c)
        og = lout.f_blocks + ob * m
        for c in range(m):
            block(og + c, head + a1, mu.get((b1, c), none)[odd])
            block(og + c, head + b1, mu.get((a1, c), none)[1 - odd])
            for k in range(p):
                gk = gin + rests[k] * m
                block(og + c, gk + c, D.get(pairs[k], none)[k % 2])
                for s, cs in ternary.get(pairs[k] + (c,), {}).items():
                    scalar(og + c, gk + s, cs if k % 2 else -cs)
            for ti, cv in comps:
                scalar(og + c, gin + ti * m + c, cv)
    return SparseMat(lout.total, lin.total, {key: v for key, v in data.items() if v})


def _signed_blocks(t):
    """A matrix-valued tensor's support as {key: (entries, negated entries)},
    each entry (row, col, value)."""
    return {key: (tuple((r, c, q) for (r, c), q in v.items()),
                  tuple((r, c, -q) for (r, c), q in v.items()))
            for key, v in t.support.items()}


def _composite(ternary, pk, pl, pidx):
    """X_k o X_l = <x_k,y_k,x_l> /\\ y_l + x_l /\\ <x_k,y_k,y_l> on pair coords,
    the ternary bracket given by its support."""
    (ak, bk), (al, bl) = pk, pl
    d = wedge_coords(ternary.get((ak, bk, al), {}), {bl: Q1}, pidx)
    axpy(d, Q1, wedge_coords({al: Q1}, ternary.get((ak, bk, bl), {}), pidx))
    return d


def yamaguti_coboundary(alg, rep, c):
    """Apply the degree-p coboundary to a cochain over (alg, rep)."""
    if c.m != alg.dim or c.n != rep.carrier.dim:
        raise ShapeMismatch("cochain shapes do not match the algebra and carrier")
    mat = coboundary_matrix_for(alg, rep, c.p)
    return Cochain.from_support(c.p + 1, c.m, c.n, mat.apply(c.support))


# ---------------------------------------------------------------------------
# the complex attached to a weight-1 operator

def induced_rep(op):
    """The representation of the descent algebra on the acting algebra's space.

    rho_T(u)x = [Tu,x] + T(rho(x)u)
    mu_T(u,v)x = <x,Tu,Tv> - T( D(x,Tu)v - mu(x,Tv)u )
    with derived D checked against
    D_T(u,v)x = <Tu,Tv,x> - T( mu(Tv,x)u - mu(Tu,x)v ).

    Each is tabulated at once over the basis tuples (u, v, x) from the
    supports, with T's nonzero entries pulled into the slots that read Tu
    (``linalg.pull``) and the inner sums pushed through T (``linalg.push``).
    """
    from .rrb import descent_algebra
    op.ensure_verified()
    r = op.action
    g = r.acting
    n, m = g.dim, r.carrier.dim
    desc = descent_algebra(op)
    rows, cols = sparse_map(op.T)
    c, d = g.binary.support, g.ternary.support
    rho, mu, D = (vector_values(t) for t in (r.rho, r.mu, r.derived_D))
    # each table is {(a, i) or (a, b, i): {t: q}}, the value at (u_a, .., e_i)
    rho_T, inner = {}, {}
    pull(rho_T, Q1, c, (rows, None))
    pull(inner, Q1, rho, (None, None), (1, 0))
    push(rho_T, Q1, cols, inner)
    mu_T, inner = {}, {}
    pull(mu_T, Q1, d, (None, rows, rows), (2, 0, 1))
    pull(inner, Q1, D, (None, rows, None), (2, 0, 1))
    pull(inner, -Q1, mu, (None, rows, None), (2, 1, 0))
    push(mu_T, -Q1, cols, inner)
    D_T, inner = {}, {}
    pull(D_T, Q1, d, (rows, rows, None))
    pull(inner, Q1, mu, (rows, None, None), (1, 2, 0))
    pull(inner, -Q1, mu, (rows, None, None), (0, 2, 1))
    push(D_T, -Q1, cols, inner)
    shape = (n, n)
    rep = RepAction(desc, g, Tensor.from_support(matrix_values(rho_T), m, 1, shape),
                    Tensor.from_support(matrix_values(mu_T), m, 2, shape))
    derived = vector_values(rep.derived_D)
    bad = [key for key in derived.keys() | D_T.keys() if derived.get(key) != D_T.get(key)]
    if bad:
        raise AxiomsFailed("derived D of the induced pair deviates from its closed "
                           "form at (%d,%d,%d)" % min(bad))
    return rep


def zero_cochain_map(op, x, y):
    """partial(x /\\ y) as a degree-1 cochain, always a 1-cocycle; it reads
    nothing but the operator (``partial_matrix``), so no complex is built."""
    r = op.action
    n = r.acting.dim
    if len(x) != n or len(y) != n:
        raise DimMismatch("vectors must have length %d" % n)
    pidx = {pr: t for t, pr in enumerate(pair_basis(n))}
    return Cochain.from_support(1, r.carrier.dim, n,
                                partial_matrix(op).apply(wedge_coords(x, y, pidx)))


def partial_matrix(op):
    """The matrix of partial on the (i < j) pair basis of the acting algebra's
    wedge square, into degree-1 cochains.

    partial(x /\\ y)(u) = T(D(x,y)u) - <x,y,Tu> is tabulated once over the basis
    tuples (x, y, u) from the supports: D pushed through T, less the ternary
    bracket with T's nonzero entries pulled into its last slot.
    """
    g = op.action.acting
    n, m = g.dim, op.action.carrier.dim
    rows, cols = sparse_map(op.T)
    table = {}
    push(table, Q1, cols, vector_values(op.action.derived_D))
    pull(table, -Q1, g.ternary.support, (None, None, rows))
    pidx = {pr: t for t, pr in enumerate(pair_basis(n))}
    return SparseMat(m * n, len(pidx), {(a * n + t, pidx[i, j]): q
                                        for (i, j, a), v in table.items() if i < j
                                        for t, q in v.items()})


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
        if (c.m, c.n) != (self.m, self.n):
            raise ShapeMismatch("cochain shapes do not match the complex")
        return Cochain.from_support(c.p + 1, c.m, c.n, self.matrix(c.p).apply(c.support))

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
        return [Cochain.from_support(p, self.m, self.n, v) for v in chosen]


def pushforward_cochain(pair, c):
    """Transport a cochain along an operator homomorphism (psi_g, psi_h).

    p_I(f)(U_1..U_n) = psi_g( f(psi_h^{-1} U_1, .., psi_h^{-1} U_n) ) and
    likewise for the second component with psi_h^{-1} on the plain slot, for
    psi_g n x n and psi_h invertible m x m: the support is pulled back along
    Lambda^2 psi_h^{-1} in each wedge slot and psi_h^{-1} in the plain slot
    (``linalg.pull``), then pushed through psi_g (``linalg.push``).
    """
    m, n = c.m, c.n
    for name, psi, k in (("psi_g", pair.psi_g, n), ("psi_h", pair.psi_h, m)):
        if len(psi) != k or any(len(row) != k for row in psi):
            raise DimMismatch("%s must be %dx%d" % (name, k, k))
    plain, inv_cols = sparse_map(invert(pair.psi_h))
    pidx = {pr: t for t, pr in enumerate(pair_basis(m))}
    wedge = {}
    for t, (a, b) in enumerate(pair_basis(m)):
        for s, q in wedge_coords(dict(inv_cols[a]), dict(inv_cols[b]), pidx).items():
            wedge.setdefault(s, []).append((t, q))
    f, g = c.layout.split(c.support)
    pulled, pushed = {}, {}
    pull(pulled, Q1, f, (wedge,) * (c.p - 1))
    pull(pulled, Q1, g, (wedge,) * (c.p - 1) + (plain,))
    push(pushed, Q1, sparse_map(pair.psi_g)[1], pulled)
    return Cochain.from_table(c.p, m, n, pushed)
