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

The coboundary of every degree is emitted column by column (``Coboundary``):
column j is delta of the j-th basis cochain.  A block's index has one base-M
digit per wedge slot, then a g block's plain slot, and each term of the
formula is a digit edit of it: D(X_k) and the ternary term insert a digit, a
composite replaces one and inserts another, a head appends one.  rho, mu, D,
both brackets and the composites X_k o X_l are tabulated once per complex
from their supports (``linalg.Tensor.support``), keyed by the digit that
reads them, so an output block that receives nothing is never visited, and
integral constants stay ints (``linalg.scalar``).  A matrix
(``linalg.SparseMat``, where every rank, kernel and solve is asked) keeps the
columns as they were emitted, and delta of one cochain reads only the
columns in its support.  A cochain is its support {flat index: q}.

When rho, mu and D are zero, as in the induced representations of p3 and of
the benchmark's dim-5 operator, every term is a scalar acting on the block
index alone, so delta^p = S_p (x) I_n: the matrix stores and eliminates S_p
alone, one column per block (``Coboundary.copies``), and its rank, kernel,
solves and witnesses are read off that one echelon, the same vectors in the
same order as the whole matrix would give.  Otherwise it is stored whole.

The descent algebra, the induced representation and partial are tabulated
the same way, from supports pulled back along T's nonzero entries and pushed
through T (``induced_rep``, ``partial_matrix``); for a verified operator
they are what the paper proves them to be, so none is checked again.
"""

from .errors import ShapeMismatch, TooLarge
from .linalg import (Map, SparseMat, Tensor, axpy, dense, frac, invert, mat, pull, push,
                     vector)
from .reps import RepAction
from .rrb import descent_algebra


# ---------------------------------------------------------------------------
# pair-index bookkeeping

def pair_basis(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def pair_index(m):
    """{(i, j): t} placing each pair i < j at its position in ``pair_basis``."""
    return {pr: t for t, pr in enumerate(pair_basis(m))}


def _wedge(m):
    """x (x) y -> x /\\ y on Q^m as a two-slot table {(i, j): {t: +-1}} over
    i != j, t the pair's index in ``pair_basis``, + for i < j."""
    return {(i, j): {t: 1 if i < j else -1} for (a, b), t in pair_index(m).items()
            for i, j in ((a, b), (b, a))}


def wedge_coords(x, y, m):
    """Sparse coordinates {t: q} of x /\\ y on the reduced pair basis of Q^m,
    for vectors x and y of length m (``linalg.vector``)."""
    acc = {}
    pull(acc, 1, _wedge(m), (vector(x, m), vector(y, m)))
    return acc.get((0, 0), {})


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

    def block(self, key):
        """The block of a slot tuple, f's with p - 1 slots or g's with p."""
        idx = 0
        for t in key[:self.p - 1]:
            idx = idx * self.M + t
        return idx if len(key) < self.p else self.f_blocks + idx * self.m + key[-1]

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
    nonzero coordinates (see ``_Layout``), each q an int or a Fraction; the
    dense views, Fractions throughout, are built on demand.  ``as_flat()``
    lists every coordinate.  For p = 1, ``f`` lists
    the m value vectors on the basis; for p >= 2, ``f`` has M^(p-1) vectors
    (lexicographic over pair-index tuples) and ``g`` has M^(p-1) * m vectors
    (pair-index tuples, then the plain slot).  Built from those vectors, or,
    inside the library, from a support by ``from_support``.
    """

    def __init__(self, p, m, n, f, g=None):
        lay = _Layout(p, m, n)
        if not isinstance(f, (list, tuple)) or not isinstance(g, (list, tuple, type(None))):
            raise ShapeMismatch("f and g must be lists or tuples of value vectors")
        want = (m, None) if p == 1 else (lay.f_blocks, lay.g_blocks)
        if (len(f), None if g is None else len(g)) != want:
            raise ShapeMismatch("a degree-%d cochain has (f, g) of %s vectors" % (p, want))
        vecs = list(f) + list(g or ())
        if not all(isinstance(v, (list, tuple)) for v in vecs):
            raise ShapeMismatch("value vectors must be lists or tuples")
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


def coboundary_matrix_for(alg, rep, p, delta=None):
    """The matrix of the degree-p coboundary over the rep's carrier.

    Rows follow the degree-(p+1) layout, columns the degree-p layout, both in
    the documented lexicographic order with value components innermost.  A
    matrix of more than MAX_COBOUNDARY_ROWS rows raises TooLarge before
    anything is built.  The columns are ``Coboundary.columns``, stored as they
    are; ``delta`` is the (alg, rep) coboundary to read, made here when not
    given; with ``Coboundary.copies`` n, only S_p is stored.
    """
    delta = delta or Coboundary(alg, rep)
    _check_rows(p, delta.m, delta.n)
    rows = _Layout(p + 1, delta.m, delta.n).total // delta.copies
    return SparseMat.from_columns(rows, delta.columns(p), delta.copies)


def _by_column(t):
    """A matrix-valued tensor's support grouped by its key less the column
    slot, as {key: (columns, negated columns)}, columns {c: [(r, q)]}."""
    out = {}
    for key, v in t.support.items():
        cols, neg = out.setdefault(key[:-1], ({}, {}))
        cols[key[-1]] = list(v.items())
        neg[key[-1]] = [(r, -q) for r, q in v.items()]
    return out


def _by_value(t, pidx):
    """A bracket's support as {s: [(pair, *rest, q)]}: the coefficient q of e_s
    at the key (i, j, *rest), i < j, with pair the index of (i, j)."""
    out = {}
    for (i, j, *rest), v in t.support.items():
        if i < j:
            for s, q in v.items():
                out.setdefault(s, []).append((pidx[i, j], *rest, q))
    return out


class Coboundary:
    """The Yamaguti coboundary of every degree over (alg, rep), by its columns.

    A degree-p input block is w = S for f and w = S m + s for g, counted from
    the first g block, S its p - 1 wedge digits in base M and s its plain
    slot (``_Layout``).  Inserting digit P at slot k, ahead of the digits of
    weight W = M^(p-1-k) (times m in g), maps w to (w // W) M W + P W + w % W.
    D(X_k) inserts X_k at k, and the ternary term also replaces s by z; a
    composite replaces digit l - 1 by Q and inserts P at k < l; the rho and
    bracket heads drop s and append P, and mu's head appends P and replaces
    s by z.  Each term's table is made once here from a structure tensor's
    support, keyed by what reads it (s, or digit l - 1); rho, mu and D are
    matrices read by columns.  ``copies`` is n when rho, mu and D are zero,
    so that every matrix is S_p (x) I_n with S_p the scalars of each block,
    and 1 otherwise.
    """

    def __init__(self, alg, rep):
        if rep.acting.dim != alg.dim:
            raise ShapeMismatch("representation does not act on the given algebra")
        m = self.m = alg.dim
        self.n = rep.carrier.dim
        pidx = pair_index(m)
        self.M = len(pidx)
        live = rep.rho.support or rep.mu.support or rep.derived_D.support
        self.copies = 1 if live or not self.n else self.n
        rho, mu, D = (_by_column(t) for t in (rep.rho, rep.mu, rep.derived_D))
        # a head term into the pair {a, s} has sign + for a < s with rho and
        # a > s with mu; with the sign -, its two matrices swap
        pair = {(i, j): t for (a, b), t in pidx.items() for i, j in ((a, b), (b, a))}
        self.rho_head = {s: [(pair[a, s], mats if a < s else mats[::-1])
                             for (a,), mats in rho.items() if a != s] for s in range(m)}
        self.mu_head = {s: [(pair[a, s], z, mats if a > s else mats[::-1])
                            for (a, z), mats in mu.items() if a != s] for s in range(m)}
        self.D = [(pidx[key], mats) for key, mats in D.items() if key[0] < key[1]]
        self.bracket, self.ternary = (_by_value(t, pidx) for t in (alg.binary, alg.ternary))
        self.composite = _composites(alg.ternary.support, m, pair)

    def terms(self, p, blocks):
        """The output blocks each degree-p input block in ``blocks`` reaches, as
        [(scalars {block: q}, matrices [(block, columns {c: [(r, q)]})])]: the
        families in the formula's order, each with its entries outside and the
        blocks its key (s, or digit l - 1) groups inside."""
        M, m, d = self.M, self.m, p - 1
        f_blocks = M ** d if d else 0
        out = [({}, []) for _ in blocks]
        parts = ([], [])                    # f's blocks by w = b, g's by w = b - f_blocks
        for (acc, mats), b in zip(out, blocks):
            parts[b >= f_blocks].append((acc, mats, b - f_blocks if b >= f_blocks else b))
        by_s = {}
        for blk in parts[1]:
            by_s.setdefault(blk[2] % m, []).append(blk)
        for s, group in by_s.items():       # the heads, sign (-1)^(p-1)
            heads = [(acc, mats, w // m * M) for acc, mats, w in group]
            for P, cols in self.rho_head[s]:
                for _, mats, h in heads:
                    mats.append((h + P, cols[d % 2]))
            for P, q in self.bracket.get(s, ()):
                _add(heads, P, q if d % 2 else -q)
            for P, z, cols in self.mu_head[s]:
                for _, mats, h in heads:
                    mats.append(((h + P) * m + M ** p + z, cols[d % 2]))
        for plain, part in enumerate(parts):
            unit, off = (m, M ** p) if plain else (1, 0)
            Ws = [M ** (d - k) * unit for k in range(d + 1)]  # weight of a digit at slot k
            # D(X_k) and <x_k, y_k, z> insert X_k at slot k, sign (-1)^(k+1)
            # and (-1)^k for 1-based k; delta_I's D skips the last slot
            for k, W in enumerate(Ws[:d + plain]):
                for P, cols in self.D:
                    for _, mats, o in _insert(part, W, M, off + P * W):
                        mats.append((o, cols[k % 2]))
                for s, group in by_s.items() if plain else ():
                    moved = _insert(group, W, M, off - s) if s in self.ternary else ()
                    for P, z, q in self.ternary.get(s, ()):
                        _add(moved, P * W + z, q if k % 2 else -q)
            # X_k o X_l replaces digit l - 1 by Q and inserts P at slot k < l,
            # sign (-1)^k for 1-based k
            for l in range(1, d + 1):
                V, by_t = Ws[l], {}
                for blk in part:
                    by_t.setdefault(blk[2] // V % M, []).append(blk)
                for t, group in by_t.items():
                    if t in self.composite:
                        moved = [_insert(group, W, M, off - t * V) for W in Ws[:l]]
                        for P, Q, q in self.composite[t]:
                            for k, W in enumerate(Ws[:l]):
                                _add(moved[k], P * W + Q * V, q if k % 2 else -q)
        return [(acc if 0 not in acc.values() else {b: q for b, q in acc.items() if q}, mats)
                for acc, mats in out]

    def column(self, terms, r):
        """delta of the basis cochain at value coordinate r of the block with
        ``terms`` (see ``terms``), as a sparse column {row: q}."""
        scalars, mats = terms
        n = self.n
        col = {b * n + r: q for b, q in scalars.items()}
        if not mats:
            return col
        for b, mat in mats:
            for t, q in mat.get(r, ()):
                key = b * n + t
                col[key] = col[key] + q if key in col else q
        return {key: q for key, q in col.items() if q}

    def columns(self, p):
        """Every column of the degree-p coboundary matrix, in the layout's
        order; with ``copies`` n, every column of S_p, the scalars of a block."""
        terms = self.terms(p, range(_Layout(p, self.m, self.n).blocks))
        if self.copies > 1:
            return [scalars for scalars, _ in terms]
        return [self.column(t, r) for t in terms for r in range(self.n)]

    def __call__(self, c):
        """delta of the cochain c, read from the columns of its support alone."""
        if c.m != self.m or c.n != self.n:
            raise ShapeMismatch("cochain shapes do not match the algebra and carrier")
        vecs, acc = {}, {}
        for k, x in c.support.items():
            vecs.setdefault(k // c.n, {})[k % c.n] = x
        for b, terms in zip(vecs, self.terms(c.p, list(vecs))):
            for r, x in vecs[b].items():
                axpy(acc, x, self.column(terms, r))
        return Cochain.from_support(c.p + 1, c.m, c.n, acc)


def _insert(blocks, W, M, shift):
    """The (acc, mats, w) ``blocks``, 0 inserted into w at weight W, plus ``shift``."""
    return [(acc, mats, w + w // W * (M - 1) * W + shift) for acc, mats, w in blocks]


def _add(blocks, e, q):
    """Add q at output block o + e of each (acc, mats, o) in ``blocks``."""
    for acc, _, o in blocks:
        o += e
        acc[o] = acc[o] + q if o in acc else q


def _composites(ternary, m, pair):
    """X_k o X_l = <x_k,y_k,x_l> /\\ y_l + x_l /\\ <x_k,y_k,y_l> on the pair
    basis, as {t: [(k, l, q)]} over the pair indices k, l with coefficient q
    at pair t, from the ternary bracket's support; ``pair`` indexes both
    orders of each pair.

    A value <x_k, y_k, e_c> = sum_e q_e e_e sits in slot x_l of X_l = e_c /\\ e_d
    for d > c and in slot y_l of X_l = e_d /\\ e_c for d < c; either way it
    adds (+-) sum_e q_e e_e /\\ e_d, with + for c < d."""
    acc = {}
    for (a, b, c), v in ternary.items():
        if a >= b:
            continue
        k = pair[a, b]
        for d in range(m):
            if d == c:
                continue
            l = pair[c, d]
            for e, q in v.items():
                if e != d:
                    key, q = (pair[e, d], k, l), q if (c < d) == (e < d) else -q
                    acc[key] = acc[key] + q if key in acc else q
    out = {}
    for (t, k, l), q in sorted(acc.items()):
        if q:
            out.setdefault(t, []).append((k, l, q))
    return out


def yamaguti_coboundary(alg, rep, c):
    """Apply the degree-p coboundary to a cochain over (alg, rep)."""
    return Coboundary(alg, rep)(c)


# ---------------------------------------------------------------------------
# the complex attached to a weight-1 operator

def induced_rep(op):
    """The representation of the descent algebra on the acting algebra's space.

    rho_T(u)x = [Tu,x] + T(rho(x)u)
    mu_T(u,v)x = <x,Tu,Tv> - T( D(x,Tu)v - mu(x,Tv)u )

    Each is tabulated at once over the basis tuples (u, v, x) from the
    supports, with T's nonzero entries pulled into the slots that read Tu
    (``linalg.pull``) and the inner sums pushed through T (``linalg.push``).
    Built unchecked: it is a representation, its derived D the closed form
    D_T(u,v)x = <Tu,Tv,x> - T( mu(Tv,x)u - mu(Tu,x)v ).
    """
    op.ensure_verified()
    r = op.action
    g = r.acting
    n, m = g.dim, r.carrier.dim
    desc = descent_algebra(op)
    T = op.T
    c, d = g.binary.support, g.ternary.support
    rho, mu, D = r.rho.support, r.mu.support, r.derived_D.support
    # each table is {(a, i) or (a, b, i): {t: q}}, the value at (u_a, .., e_i):
    # column i of the matrix at (u_a, ..), the form a support stores
    rho_T, inner = {}, {}
    pull(rho_T, 1, c, (T, None))
    pull(inner, 1, rho, (None, None), (1, 0))
    push(rho_T, 1, T, inner)
    mu_T, inner = {}, {}
    pull(mu_T, 1, d, (None, T, T), (2, 0, 1))
    pull(inner, 1, D, (None, T, None), (2, 0, 1))
    pull(inner, -1, mu, (None, T, None), (2, 1, 0))
    push(mu_T, -1, T, inner)
    shape = (n, n)
    return RepAction(desc, g, Tensor.from_support(rho_T, m, 1, shape),
                     Tensor.from_support(mu_T, m, 2, shape))


def zero_cochain_map(op, x, y):
    """partial(x /\\ y) as a degree-1 cochain, always a 1-cocycle; it reads
    nothing but the operator (``partial_matrix``), so no complex is built."""
    r = op.action
    n = r.acting.dim
    return Cochain.from_support(1, r.carrier.dim, n,
                                partial_matrix(op).apply(wedge_coords(x, y, n)))


def partial_matrix(op):
    """The matrix of partial on the (i < j) pair basis of the acting algebra's
    wedge square, into degree-1 cochains.

    partial(x /\\ y)(u) = T(D(x,y)u) - <x,y,Tu> is tabulated once over the basis
    tuples (x, y, u) from the supports: D pushed through T, less the ternary
    bracket with T's nonzero entries pulled into its last slot.
    """
    g = op.action.acting
    n, m = g.dim, op.action.carrier.dim
    table = {}
    push(table, 1, op.T, op.action.derived_D.support)
    pull(table, -1, g.ternary.support, (None, None, op.T))
    pidx = pair_index(n)
    columns = [{} for _ in pidx]
    for (i, j, a), v in table.items():
        if i < j:
            columns[pidx[i, j]].update((a * n + t, q) for t, q in v.items())
    return SparseMat.from_columns(m * n, columns)


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
        self._matrices = {}
        self._delta = None

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
            self._matrices[p] = (coboundary_matrix_for(self.descent, self.rep, p, self.delta())
                                 if p else partial_matrix(self.op))
        return self._matrices[p]

    def delta(self):
        """The complex's ``Coboundary``, its tables made once, when first needed."""
        if self._delta is None:
            self._delta = Coboundary(self.descent, self.rep)
        return self._delta

    def coboundary(self, c):
        """delta of the cochain c, from the columns in its support alone."""
        return self.delta()(c)

    def cohomology_dims(self, p):
        """(dim Z^p, dim B^p, dim H^p) for p >= 1."""
        if p < 1:
            raise ShapeMismatch("cohomology degrees start at 1")
        z = self.matrix(p).nullity()
        b = self.matrix(p - 1).rank()
        return (z, b, z - b)

    def cohomology_witnesses(self, p):
        """Cocycle representatives spanning H^p.

        Seeded with the coboundaries, a copy of the column echelon of the
        matrix out of degree p - 1, an elimination keeps each Z^p basis
        vector, in order, that is independent of everything kept before it.
        When both matrices are S (x) I_k for one k, B^p and Z^p are k copies
        of their S parts on disjoint rows, so k_b (x) e_r is kept exactly
        when k_b is: the selection runs on the kernel of S_p alone.  For
        p = 1 the seed is partial, with k = 1.
        """
        seed, top = self.matrix(p - 1), self.matrix(p)
        span = seed.column_echelon().copy()
        if seed.copies == top.copies:
            kernel = top.column_echelon(tags=True).kernel()
            kept = top.expand([v for v in kernel if span.insert(v)])
        else:
            kept = [v for v in top.nullspace() if span.insert(v)]
        return [Cochain.from_support(p, self.m, self.n, v) for v in kept]


def pushforward_cochain(pair, c):
    """Transport a cochain along an operator homomorphism (psi_g, psi_h).

    p_I(f)(U_1..U_n) = psi_g( f(psi_h^{-1} U_1, .., psi_h^{-1} U_n) ) and
    likewise for the second component with psi_h^{-1} on the plain slot, for
    psi_g n x n and psi_h invertible m x m: the support is pulled back along
    Lambda^2 psi_h^{-1} in each wedge slot and psi_h^{-1} in the plain slot
    (``linalg.pull``), then pushed through psi_g (``linalg.push``).
    """
    m, n = c.m, c.n
    psi_g, psi_h = (mat(psi, (k, k), name + " must be %dx%d")
                    for name, psi, k in (("psi_g", pair.psi_g, n), ("psi_h", pair.psi_h, m)))
    plain, pidx = invert(psi_h), pair_index(m)
    # column (a, b) of Lambda^2 psi_h^-1 is psi_h^-1 e_a /\\ psi_h^-1 e_b, a < b
    wedge = {}
    pull(wedge, 1, _wedge(m), (plain, plain))
    wedge = Map.from_columns({(pidx[ab],): v for ab, v in wedge.items() if ab[0] < ab[1]},
                             (len(pidx), len(pidx)))
    f, g = c.layout.split(c.support)
    pulled, pushed = {}, {}
    pull(pulled, 1, f, (wedge,) * (c.p - 1))
    pull(pulled, 1, g, (wedge,) * (c.p - 1) + (plain,))
    push(pushed, 1, psi_g, pulled)
    return Cochain.from_table(c.p, m, n, pushed)
