"""Seeded inputs for the benchmark, written in lyalg's documented JSON formats.

Every algebra made here is two-step nilpotent: the basis splits into a part V
and a central ideal C, every bracket lands in the "target" part of C and
vanishes as soon as one argument is central, and the ternary bracket is
antisymmetric in its first two slots with zero cyclic sum.  These rules
generalise the ``nilpotent4`` fixture, and they make the Lie-Yamaguti axioms
hold and the adjoint representation an action, both by construction.

A "family" operator maps into C and kills the span B of all brackets.  Such
maps form a linear space L, every weight-1 equation holds on it, and
T + t T1 + ... + t^n Tn with all terms in L is an order-n deformation whose
obstruction vanishes.  Dense random maps are the negative candidates.

The workloads draw their structures once from fixed seeds and let the run's
seed pick a signed permutation of the basis (``signed_permutation``): the
inputs change with the seed, while their answers and the work they cost do
not, so runs with different seeds can be compared.

Nothing here imports lyalg: the program under test only ever sees the files.
"""

import json
import os
import random
from fractions import Fraction as F

POOL = (F(1), F(-1), F(2), F(-2), F(1, 2), F(3))
DENSE_POOL = (F(-2), F(-1), F(0), F(1), F(2), F(1, 2))


def fmt(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


class Alg:
    """Structure constants as {(i, j): {k: q}} and {(i, j, k): {l: q}}, i < j."""

    def __init__(self, name, dim, central, binary, ternary):
        self.name, self.dim, self.central = name, dim, central
        self.binary, self.ternary = binary, ternary

    def b2(self, i, j):
        if i == j:
            return {}
        if i < j:
            return self.binary.get((i, j), {})
        return {k: -q for k, q in self.binary.get((j, i), {}).items()}

    def b3(self, i, j, k):
        if i == j:
            return {}
        if i < j:
            return self.ternary.get((i, j, k), {})
        return {l: -q for l, q in self.ternary.get((j, i, k), {}).items()}

    def doc(self):
        return {"name": self.name, "dim": self.dim,
                "binary": [[i, j, k, fmt(q)] for (i, j), vec in sorted(self.binary.items())
                           for k, q in sorted(vec.items())],
                "ternary": [[i, j, k, l, fmt(q)]
                            for (i, j, k), vec in sorted(self.ternary.items())
                            for l, q in sorted(vec.items())]}


def rank(rows):
    """Rank over Q by plain Gaussian elimination (independent of lyalg)."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def bracket(A, x, y):
    """[x, y] for dense vectors."""
    out = [F(0)] * A.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, q in A.b2(i, j).items():
                    out[k] += xi * yj * q
    return out


def apply(T, x):
    return [sum((row[j] * x[j] for j in range(len(x))), F(0)) for row in T]


def unit(n, i):
    return [F(int(j == i)) for j in range(n)]


def center_dim(A):
    """dim {x : [x, g] = 0, <x, g, g> = 0, <g, g, x> = 0}."""
    n = A.dim
    rows = []
    for j in range(n):
        for t in range(n):
            rows.append([A.b2(i, j).get(t, F(0)) for i in range(n)])
            for k in range(n):
                rows.append([A.b3(i, j, k).get(t, F(0)) for i in range(n)])
                rows.append([A.b3(j, k, i).get(t, F(0)) for i in range(n)])
    return n - rank(rows)


def rrb1_witnesses(A, T):
    """RRB1 residuals [Tu,Tv] - T([Tu,v] + [u,Tv] + [u,v]) over the adjoint
    action, in the (a, b) scan order of ``check rrb``."""
    n = A.dim
    out = []
    for a in range(n):
        for b in range(n):
            u, v = unit(n, a), unit(n, b)
            Tu, Tv = apply(T, u), apply(T, v)
            inner = [p + q + r for p, q, r in
                     zip(bracket(A, Tu, v), bracket(A, u, Tv), bracket(A, u, v))]
            res = [p - q for p, q in zip(bracket(A, Tu, Tv), apply(T, inner))]
            if any(res):
                out.append({"args": [a, b], "eq": "RRB1", "residual": [fmt(q) for q in res]})
    return out


def breaks_linear_term(A, T, T1):
    """Whether some binary t^1 coefficient of T + t T1 is nonzero, so that
    T + t T1 is not even an order-1 deformation."""
    n = A.dim
    for a in range(n):
        for b in range(n):
            u, v = unit(n, a), unit(n, b)
            res = [F(0)] * n
            for Ti, Tj in ((T, T1), (T1, T)):
                Tiu, Tju, Tjv = apply(Ti, u), apply(Tj, u), apply(Tj, v)
                res = [r + p for r, p in zip(res, bracket(A, Tiu, apply(Tj, v)))]
                inner = [p + q for p, q in zip(bracket(A, Tju, v), bracket(A, u, Tjv))]
                res = [r - p for r, p in zip(res, apply(Ti, inner))]
            res = [r - p for r, p in zip(res, apply(T1, bracket(A, u, v)))]
            if any(res):
                return True
    return False


def random_algebra(rng, name, dim, v, free, density):
    """dim = v + free + targets; brackets of V land in the last ``targets`` indices.

    With density 1 every bracket of V has every target coordinate nonzero,
    so the sparsity pattern, and with it the work a check does, is the same
    for every seed; only the values change.
    """
    while True:
        A = _random_algebra(rng, name, dim, v, free, density)
        full = (dim - v - free) * v * (v - 1) // 2 * (1 + v)
        nnz = sum(len(vec) for vec in list(A.binary.values()) + list(A.ternary.values()))
        if density < 1 or nnz == full:
            return A


def _random_algebra(rng, name, dim, v, free, density):
    targets = list(range(v + free, dim))

    def value():
        vec = {}
        for t in targets:
            if rng.random() < density:
                vec[t] = rng.choice(POOL)
        return vec

    binary = {}
    for i in range(v):
        for j in range(i + 1, v):
            vec = value()
            if vec:
                binary[(i, j)] = vec
    # a(i, j, k) antisymmetric in (i, j); S = 2a(i,j,k) - a(j,k,i) - a(k,i,j)
    # stays antisymmetric in (i, j) and has zero cyclic sum
    a = {}
    for i in range(v):
        for j in range(i + 1, v):
            for k in range(v):
                vec = value()
                if vec:
                    a[(i, j, k)] = vec
                    a[(j, i, k)] = {t: -q for t, q in vec.items()}
    ternary = {}
    for i in range(v):
        for j in range(i + 1, v):
            for k in range(v):
                vec = {}
                for key, c in (((i, j, k), 2), ((j, k, i), -1), ((k, i, j), -1)):
                    for t, q in a.get(key, {}).items():
                        vec[t] = vec.get(t, F(0)) + c * q
                vec = {t: q for t, q in vec.items() if q != 0}
                if vec:
                    ternary[(i, j, k)] = vec
    return Alg(name, dim, list(range(v, dim)), binary, ternary)


def adjoint_doc(A, path_name):
    """rho(e_i) z = [e_i, z] and mu(e_i, e_j) z = <z, e_i, e_j>, as matrices."""
    n = A.dim
    rho = [[[fmt(A.b2(i, s).get(t, F(0))) for s in range(n)] for t in range(n)]
           for i in range(n)]
    mu = [[[[fmt(A.b3(s, i, j).get(t, F(0))) for s in range(n)] for t in range(n)]
           for j in range(n)] for i in range(n)]
    return {"acting": path_name, "carrier": path_name, "rho": rho, "mu": mu}


def family_basis(A):
    """Index pairs (c, s) of matrix units E_{c,s} that lie in
    L = {T : image in C, T(B) = 0}: c is central and s is no coordinate that
    any bracket uses, so E_{c,s} kills B."""
    used = {t for vec in list(A.binary.values()) + list(A.ternary.values()) for t in vec}
    return [(c, s) for c in A.central for s in range(A.dim) if s not in used]


def family_matrix(rng, A, density=0.6):
    """A random element of L on the matrix units of ``family_basis``."""
    n = A.dim
    T = [[F(0)] * n for _ in range(n)]
    for c, s in family_basis(A):
        if rng.random() < density:
            T[c][s] = rng.choice(POOL)
    return T


def dense_matrix(rng, rows, cols):
    return [[rng.choice(DENSE_POOL) for _ in range(cols)] for _ in range(rows)]


def mat_doc(T):
    return [[fmt(q) for q in row] for row in T]


def lift_matrix(T):
    """[[Id, T], [0, 0]] on g (+) h, as in ``construct lift``."""
    n = len(T)
    rows = [[F(int(i == j)) for j in range(n)] + list(T[i]) for i in range(n)]
    rows += [[F(0)] * (2 * n) for _ in range(n)]
    return rows


def semidirect(A):
    """The semidirect algebra of A's adjoint action on itself, on g (+) h.

    For a two-step nilpotent algebra with central brackets the derived map is
    D(e_i, e_j) e_k = <e_i, e_j, e_k>, so a bracket with at most one carrier
    argument is the bracket of A, placed in the carrier half whenever some
    argument is a carrier element; brackets of carrier elements alone are A's
    own; the rest vanish.
    """
    n = A.dim
    binary, ternary = {}, {}

    def shift(vec, k):
        return {t + k: q for t, q in vec.items()}

    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            hs = (i >= n) + (j >= n)
            vec = A.b2(i % n, j % n)
            if vec:
                binary[(i, j)] = shift(vec, n if hs else 0)
            for k in range(2 * n):
                hs3 = hs + (k >= n)
                vec = A.b3(i % n, j % n, k % n)
                if vec and (hs3 <= 1 or hs3 == 3):
                    ternary[(i, j, k)] = shift(vec, n if hs3 else 0)
    return Alg("%s|x%s" % (A.name, A.name), 2 * n, None, binary, ternary)


def signed_permutation(A, mats, rng):
    """Carry A and the maps ``mats`` on it along psi: e_i -> s_i e_{pi(i)}
    with a seeded permutation pi and signs s_i = +-1.

    The result is an isomorphic copy, so every invariant (verdicts,
    cohomology dimensions, membership in the family space L) survives, and
    the work a check does stays the same up to order:
    c'(pi i, pi j)^(pi k) = s_i s_j s_k c(i,j)^k, and M' = psi M psi^-1.
    """
    n = A.dim
    pi = list(range(n))
    rng.shuffle(pi)
    s = [rng.choice((F(1), F(-1))) for _ in range(n)]
    binary, ternary = {}, {}
    for i in range(n):
        for j in range(n):
            if pi[i] >= pi[j]:
                continue
            vec = {pi[k]: q * s[i] * s[j] * s[k] for k, q in A.b2(i, j).items()}
            if vec:
                binary[(pi[i], pi[j])] = vec
            for k in range(n):
                vec = {pi[l]: q * s[i] * s[j] * s[k] * s[l] for l, q in A.b3(i, j, k).items()}
                if vec:
                    ternary[(pi[i], pi[j], pi[k])] = vec
    B = Alg(A.name, n, sorted(pi[c] for c in A.central), binary, ternary)
    out = []
    for M in mats:
        M2 = [[F(0)] * n for _ in range(n)]
        for b in range(n):
            for a in range(n):
                M2[pi[b]][pi[a]] = M[b][a] * s[b] * s[a]
        out.append(M2)
    return B, out


def write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def write_operator(dirname, stem, A, T):
    """Algebra, adjoint action and operator files; returns the operator path."""
    write(os.path.join(dirname, stem + "_alg.json"), A.doc())
    write(os.path.join(dirname, stem + "_adj.json"), adjoint_doc(A, stem + "_alg.json"))
    return write(os.path.join(dirname, stem + "_op.json"),
                 {"action": stem + "_adj.json", "T": mat_doc(T)})


def seeded(seed, tag):
    return random.Random("%s:%s" % (seed, tag))
