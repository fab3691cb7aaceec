"""The generated inputs of the test suite, and the helpers that several test
modules share.

Every algebra, action, operator and post-algebra that a test builds from a
seed or a formula is built here, with its pool and the order of its random
draws fixed: the suite pins digests of what these functions return.
"""

import itertools
import os
import random
import types
from fractions import Fraction as F

import lyalg as L
from lyalg import io as lyio
from lyalg.linalg import Tensor
from lyalg.postlya import PostLYAlgebra, check_post_axioms, induced_action, induced_post_from_rrb
from lyalg.reps import RepAction, adjoint_rep

import oracles
from oracles import mid
from conftest import fx

# scalar pool of random_matrix and family_matrix
MAP_POOL = [F(-2), F(-1), F(0), F(1), F(2), F(1, 2)]
# scalar pool of random brackets, actions and post operations
POOL = [F(-1), F(0), F(0), F(0), F(1), F(2)]
HALF = F(1, 2)


SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "spans.py")


def load_spans():
    """The benchmark's tracer module ``perfbench/spans.py``, executed from its
    source; nothing is written."""
    with open(SPANS, encoding="utf-8") as fh:
        code = compile(fh.read(), SPANS, "exec")
    mod = types.ModuleType("perfbench_spans")
    exec(code, mod.__dict__)
    return mod


def basis_vector(n, i):
    """The basis vector e_i of Q^n, its coordinates Fractions."""
    return tuple(F(1) if j == i else F(0) for j in range(n))


def listed(rep):
    return [(v.eq, v.args, v.residual) for v in rep.violations]


def lists(t):
    """The nested lists of a structure tensor, to be moved entry by entry."""
    def level(x):
        return [level(y) for y in x] if isinstance(x, tuple) else x
    return level(oracles.nested(t))


def random_matrix(rng, rows, cols):
    return [[rng.choice(MAP_POOL) for _ in range(cols)] for _ in range(rows)]


def family_matrix(rng):
    """A map into span{e3, e4} killing e4: the operators in this family all
    satisfy the weight-1 equations over the 4-dim fixture's adjoint action."""
    T = [[F(0)] * 4 for _ in range(4)]
    for i in (2, 3):
        for j in (0, 1, 2):
            T[i][j] = rng.choice(MAP_POOL)
    return T


def antisym2(rng, n):
    t = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t[i][j] = [rng.choice(POOL) for _ in range(n)]
            t[j][i] = [-x for x in t[i][j]]
    return t


def antisym3(rng, n):
    t = [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                t[i][j][k] = [rng.choice(POOL) for _ in range(n)]
                t[j][i][k] = [-x for x in t[i][j][k]]
    return t


def plain(rng, *shape):
    if not shape:
        return rng.choice(POOL)
    return [plain(rng, *shape[1:]) for _ in range(shape[0])]


def dense(rng, rows, cols):
    """A matrix with every entry nonzero."""
    return [[rng.choice([F(-1), F(1), F(2), F(1, 2)]) for _ in range(cols)]
            for _ in range(rows)]


def bump(rng, entries):
    """``entries`` with two random positions moved by a nonzero amount."""
    out = [F(0)] * len(entries)
    for p in rng.sample(range(len(entries)), 2):
        out[p] = rng.choice([F(-1), F(1), F(2)])
    return [x + y for x, y in zip(entries, out)]


def near_identity(n, entries, rows=None):
    """The rows x n matrix with ones on the diagonal and 1 added at ``entries``."""
    M = [[F(int(i == j)) for j in range(n)] for i in range(rows or n)]
    for a, b in entries:
        M[a][b] += 1
    return M


def wedge_pairs(rng, n, count=2):
    return [(tuple(dense(rng, 1, n)[0]), tuple(dense(rng, 1, n)[0])) for _ in range(count)]


# ---------------------------------------------------------------------------
# algebras

def nilpotent4():
    return lyio.load_algebra(fx("nilpotent4.json"))


def heisenberg5():
    """[e1,e2] = [e3,e4] = e5 as a Lie-Yamaguti algebra."""
    c = [[[F(0)] * 5 for _ in range(5)] for _ in range(5)]
    for a, b in ((0, 1), (2, 3)):
        c[a][b] = [F(0)] * 4 + [F(1)]
        c[b][a] = [F(0)] * 4 + [F(-1)]
    return L.from_lie_algebra(5, c)


def sl2():
    c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, v in ((2, 0, [2, 0, 0]), (2, 1, [0, -2, 0]), (0, 1, [0, 0, 1])):
        c[a][b] = [F(x) for x in v]
        c[b][a] = [-F(x) for x in v]
    return L.from_lie_algebra(3, c, basis=["e", "f", "h"], name="sl2")


def sl2_triple_system():
    """sl2 as a Lie triple system: no binary bracket and <x,y,z> = [[x,y],z],
    so its ternary values have rows that no binary value has."""
    return L.LYAlgebra(3, Tensor.from_support({}, 3, 2, (3,)), sl2().ternary, name="sl2-lts")


def gl(n):
    """gl_n on the basis E_ij (index i n + j): [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    dim = n * n
    c = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if j == k:
            c[i * n + j][k * n + l][i * n + l] += 1
        if l == i:
            c[i * n + j][k * n + l][k * n + j] -= 1
    return L.from_lie_algebra(dim, c, name="gl%d" % n)


def sl3_cartan():
    """The reductive pair sl_3 = h + m, h the diagonal Cartan subalgebra and
    m = span{E_ij, i != j} (in the order (0,1), (0,2), (1,0), (1,2), (2,0),
    (2,1)), as the LY algebra on m with [x,y] = [x,y]_m and
    <x,y,z> = [[x,y]_h, z] (Kinyon and Weinstein, Amer. J. Math. 123, 2001).
    [[x,y],z] does not vanish, so it is not two-step nilpotent."""
    m = [(i, j) for i in range(3) for j in range(3) if i != j]
    index = {e: s for s, e in enumerate(m)}
    zero = [F(0)] * 6
    binary = [[list(zero) for _ in m] for _ in m]
    ternary = [[[list(zero) for _ in m] for _ in m] for _ in m]
    for (a, (i, j)), (b, (k, l)) in itertools.product(enumerate(m), repeat=2):
        # [E_ij, E_kl] = d_jk E_il - d_li E_kj; its diagonal part d is [x,y]_h
        d = [0] * 3
        for live, sign, (r, s) in ((j == k, 1, (i, l)), (l == i, -1, (k, j))):
            if live and r == s:
                d[r] += sign
            elif live:
                binary[a][b][index[r, s]] += sign
        for c, (r, s) in enumerate(m):
            ternary[a][b][c][c] = F(d[r] - d[s])      # [d, E_rs] = (d_r - d_s) E_rs
    return L.LYAlgebra(6, binary, ternary, name="sl3-cartan")


def filiform(n):
    """The filiform Lie algebra [e1, e_k] = e_(k+1), 1 < k < n: its adjoint
    representation is not an action, since rho(e1) moves e2 off the center."""
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(1, n - 1):
        c[0][k] = [F(int(s == k + 1)) for s in range(n)]
        c[k][0] = [-x for x in c[0][k]]
    return L.from_lie_algebra(n, c, name="filiform%d" % n)


def semidirect8():
    """The dim-8 semidirect algebra of nilpotent4's adjoint action."""
    return adjoint_rep(nilpotent4()).ensure_action().semidirect()


def live_post():
    """A 3-dim post-algebra whose star, brace, L, R, D and brace_D are all
    nonzero (p3's induced post-algebra has star = brace = 0): dot = angle = 0,
    e1*e1 = e0, e0*e0 = e2, e1*e0 = -e2 and {e0,e1,e1} = e2 (0-based)."""
    z2, z3 = (Tensor.from_support({}, 3, arity, (3,)) for arity in (2, 3))
    star = Tensor.from_support({(1, 1): {0: 1}, (0, 0): {2: 1}, (1, 0): {2: -1}}, 3, 2, (3,))
    brace = Tensor.from_support({(0, 1, 1): {2: 1}}, 3, 3, (3,))
    A = PostLYAlgebra(3, z2, star, z3, brace, name="live3")
    assert check_post_axioms(A).passed and check_post_axioms(A, as_printed=True).passed
    return A


# ---------------------------------------------------------------------------
# operators

def p3_operator():
    return lyio.load_operator(fx("p3_on_nilpotent4.json")).ensure_verified()


def live_post_operator():
    """Id over the action of ``live_post`` on itself: its induced
    representation and post-algebra are live."""
    return L.RRBOperator(induced_action(live_post()), mid(3)).ensure_verified()


def heisenberg5_operator(rng):
    """A weight-1 operator over heisenberg5's adjoint action: T maps onto the
    center e5 and kills e5, so both sides of both equations vanish."""
    T = [[F(0)] * 5 for _ in range(5)]
    T[4][:4] = [rng.choice([F(-1), F(1), F(2)]) for _ in range(4)]
    op = L.RRBOperator(adjoint_rep(heisenberg5()), T)
    return op.ensure_verified()


def sl2_operator(rng):
    """A rank-one weight-1 operator into sl2 over its trivial action on a
    2-dim abelian carrier: the image is abelian, so both equations vanish."""
    g = sl2()
    zero = [[F(0)] * 2 for _ in range(2)]
    r = RepAction(g, L.abelian(2), [zero] * 3, [[zero] * 3 for _ in range(3)])
    T = [[F(0)] * 2, [F(0)] * 2, [rng.choice([F(-1), F(1), F(2)]) for _ in range(2)]]
    return L.RRBOperator(r, T).ensure_verified()


def forced_operator(rng, n, m):
    """An operator over random brackets, rho and mu, marked verified without a
    check: the t^1 identities of an equivalence then fail at many tuples."""
    g = L.LYAlgebra(n, antisym2(rng, n), antisym3(rng, n))
    h = L.LYAlgebra(m, antisym2(rng, m), antisym3(rng, m))
    g.verified = h.verified = True
    r = RepAction(g, h, plain(rng, n, m, m), plain(rng, n, n, m, m))
    r.action_certified = True
    op = L.RRBOperator(r, plain(rng, n, m))
    op.verified = True
    return op


def two_step_operator(rng, v, free, targets):
    """A weight-1 operator over the adjoint action of a two-step nilpotent
    algebra of dim v + free + targets: brackets of the first v basis vectors
    land in the last ``targets``, a bracket with any later vector vanishes, and
    the ternary bracket is antisymmetric in its first two slots with zero
    cyclic sum, so the LY axioms hold and the adjoint action is an action.  T
    maps into the center and kills the targets, hence every bracket, so both
    weight-1 equations hold."""
    dim = v + free + targets
    tgt = range(v + free, dim)
    pool = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3)]

    def value():
        return [rng.choice(pool) if s in tgt else F(0) for s in range(dim)]

    zero = [F(0)] * dim
    binary = [[list(zero) for _ in range(dim)] for _ in range(dim)]
    for i in range(v):
        for j in range(i + 1, v):
            binary[i][j] = value()
            binary[j][i] = [-x for x in binary[i][j]]
    a = {}
    for i in range(v):
        for j in range(i + 1, v):
            for k in range(v):
                a[i, j, k] = value()
                a[j, i, k] = [-x for x in a[i, j, k]]
    ternary = [[[list(zero) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k) in a:
        # 2a(i,j,k) - a(j,k,i) - a(k,i,j): antisymmetric in (i, j), zero cyclic sum
        terms = [(2, a[i, j, k]), (-1, a.get((j, k, i), zero)), (-1, a.get((k, i, j), zero))]
        ternary[i][j][k] = [sum(c * x[s] for c, x in terms) for s in range(dim)]
    A = L.LYAlgebra(dim, binary, ternary)
    T = [[rng.choice(pool) if c >= v and s not in tgt else F(0) for s in range(dim)]
         for c in range(dim)]
    return L.RRBOperator(adjoint_rep(A), T).ensure_verified()


def mixed_operator(seed):
    """A dim-5 weight-1 operator over the adjoint action of a generated
    two-step algebra (see ``two_step_operator``)."""
    return two_step_operator(random.Random(seed), 3, 1, 1)


def square_zero_operator(rng, n, m, k):
    """A weight-1 operator from an abelian m-dim carrier into an abelian n-dim
    algebra, with image in the span of the first k basis vectors, over the
    action rho(e_i) = r_i N, mu(e_i, e_j) = c_ij N for a fixed N = v w^T with
    w.v = 0, so every product of two action matrices vanishes.  r_i and c_ij
    vanish for i, j < k, so rho(Tu), mu(Tu, Tv) and D(Tu, Tv) vanish and both
    weight-1 equations hold, while T(mu(e_i, Tu)v), T(mu(Tu, e_i)v) and
    T(rho(e_i)u) need not: every term of the induced representation is live."""
    pool = [F(1), F(-1), F(2), F(1, 2)]
    v = [rng.choice(pool) for _ in range(m - 1)]
    v.append(F(1))
    w = [rng.choice(pool) for _ in range(m - 1)]
    w.append(-sum(a * b for a, b in zip(v, w)))
    N = [[a * b for b in w] for a in v]

    def times_N(*idx):
        c = F(0) if all(i < k for i in idx) else rng.choice(pool + [F(0)])
        return [[c * x for x in row] for row in N]

    rho = [times_N(i) for i in range(n)]
    mu = [[times_N(i, j) for j in range(n)] for i in range(n)]
    r = L.RepAction(L.abelian(n), L.abelian(m), rho, mu)
    T = [[rng.choice(pool) if i < k else F(0) for _ in range(m)] for i in range(n)]
    return L.RRBOperator(r, T).ensure_verified()


# square-zero operators of shape (4, 3, 2) whose partial map is nonzero (nnz
# 12, 24 and 16); on p3 and every ``two_step_operator`` it vanishes
NONZERO_PARTIAL_SEEDS = (401, 402, 7)

# the operators on which the structures the library builds unchecked (the
# descent algebra, the induced representation and the semidirect algebra of
# the action) are checked in full by the tests
CONSTRUCTION_CORPUS = {
    "p3": p3_operator,
    "square-zero-5102-file": lambda: lyio.load_operator(fx("square_zero_5102.json")),
    "square-zero-5107": lambda: square_zero_operator(random.Random(5107), 4, 3, 2),
    "two-step-5009": lambda: two_step_operator(random.Random(5009), 2, 2, 1),
    "live-post": live_post_operator,
    "heisenberg5-5163": lambda: heisenberg5_operator(random.Random(5163)),
    "sl2-5166": lambda: sl2_operator(random.Random(5166)),
    "mixed-1901": lambda: mixed_operator(1901),
}


def unverified(A):
    """A copy of the algebra A that is not marked verified, for a check to
    scan as if it had just been read."""
    return L.LYAlgebra(A.dim, A.binary, A.ternary, basis=A.basis, name=A.name)


# ---------------------------------------------------------------------------
# perturbations: each moves entries of a passing structure off its axioms

def perturbed_semidirect(rng):
    """The dim-8 semidirect algebra of nilpotent4's adjoint action with two
    brackets moved off the axioms: sparse, so most tuples have no live term."""
    S = semidirect8()
    n = S.dim
    c, d = lists(S.binary), lists(S.ternary)
    i, j = sorted(rng.sample(range(n), 2))
    c[i][j] = bump(rng, c[i][j])
    c[j][i] = [-x for x in c[i][j]]
    i, j = sorted(rng.sample(range(n), 2))
    k = rng.randrange(n)
    d[i][j][k] = bump(rng, d[i][j][k])
    d[j][i][k] = [-x for x in d[i][j][k]]
    return L.LYAlgebra(n, c, d)


def perturbed_adjoint(rng):
    """nilpotent4's adjoint representation with one rho and one mu entry moved."""
    A = nilpotent4()
    r = adjoint_rep(A)
    rho, mu = lists(r.rho), lists(r.mu)
    rho[rng.randrange(4)][rng.randrange(4)][rng.randrange(4)] += 1
    mu[rng.randrange(4)][rng.randrange(4)][rng.randrange(4)][rng.randrange(4)] -= 1
    return RepAction(A, A, rho, mu)


def perturbed_post(rng):
    """The post-algebra induced by p3 with one star, one brace, one dot and one
    angle entry moved (dot and angle kept antisymmetric): sparse, and the
    centrality and annihilation axioms P6-P8 fail along with P1-P5."""
    return perturb_post(rng, induced_post_from_rrb(p3_operator()))


def perturb_post(rng, P):
    """``P`` with one star, one brace, one dot and one angle entry moved, dot
    and angle kept antisymmetric."""
    n = P.dim
    dot, star, angle, brace = lists(P.dot), lists(P.star), lists(P.angle), lists(P.brace)
    star[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += rng.choice([-1, 1, 2])
    brace[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += 1
    i, j = rng.sample(range(n), 2)
    r = rng.randrange(n)
    dot[i][j][r] += 1
    dot[j][i][r] -= 1
    i, j = rng.sample(range(n), 2)
    k, r = rng.randrange(n), rng.randrange(n)
    angle[i][j][k][r] += 1
    angle[j][i][k][r] -= 1
    return PostLYAlgebra(n, dot, star, angle, brace)


def moved(rng, r, count):
    """r with ``count`` random entries of rho and of mu moved by a nonzero amount."""
    n, m = r.acting.dim, r.carrier.dim
    rho, mu = lists(r.rho), lists(r.mu)
    for _ in range(count):
        rho[rng.randrange(n)][rng.randrange(m)][rng.randrange(m)] += rng.choice([-1, 1, 2])
        mu[rng.randrange(n)][rng.randrange(n)][rng.randrange(m)][rng.randrange(m)] += 1
    return RepAction(r.acting, r.carrier, rho, mu)


def moved_algebra(rng, A):
    """A with one binary and one ternary coordinate moved by 1/2, twice, both
    kept antisymmetric in the first two slots."""
    n = A.dim
    c, d = lists(A.binary), lists(A.ternary)
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        r = rng.randrange(n)
        c[i][j][r] += HALF
        c[j][i][r] -= HALF
        i, j = rng.sample(range(n), 2)
        k, r = rng.randrange(n), rng.randrange(n)
        d[i][j][k][r] += HALF
        d[j][i][k][r] -= HALF
    return L.LYAlgebra(n, c, d)


def moved_rep(rng, r):
    """r with two rho and two mu entries moved by 1/2."""
    n, m = r.acting.dim, r.carrier.dim
    rho, mu = lists(r.rho), lists(r.mu)
    for _ in range(2):
        rho[rng.randrange(n)][rng.randrange(m)][rng.randrange(m)] += HALF
        mu[rng.randrange(n)][rng.randrange(n)][rng.randrange(m)][rng.randrange(m)] -= HALF
    return RepAction(r.acting, r.carrier, rho, mu)


def moved_operator(rng, op):
    """op with two entries of T moved by 1/2, in rows 0..2, which span no
    central direction of the generated algebra."""
    T = [list(row) for row in op.T.dense()]
    for _ in range(2):
        T[rng.randrange(3)][rng.randrange(len(T[0]))] += HALF
    return L.RRBOperator(op.action, T)


def with_ternary_moved(A, *keys):
    """A with the last coordinate of <e_i, e_j, e_k> moved at each (i, j, k)
    of ``keys`` (kept antisymmetric in i, j)."""
    d = lists(A.ternary)
    for i, j, k in keys:
        d[i][j][k][-1] += 1
        d[j][i][k] = [-x for x in d[i][j][k]]
    return L.LYAlgebra(A.dim, A.binary, d, name=A.name + "-moved")


def with_action_moved(r, i):
    """r with rho(e_i), mu(e_i, e_i) and mu(e_0, e_i) moved at entry (0, i)."""
    rho, mu = lists(r.rho), lists(r.mu)
    rho[i][0][i] += 1
    mu[i][i][0][i] -= 2
    mu[0][i][0][i] += 1
    return RepAction(r.acting, r.carrier, rho, mu)


def generated_posts():
    """The post-algebras induced by seeded generated operators, each with one
    entry of every operation moved as in ``perturbed_post``."""
    for seed in (401, 402):
        rng = random.Random(seed)
        yield "two-step-%d" % seed, perturb_post(
            rng, induced_post_from_rrb(two_step_operator(rng, 3, 1, 1)))
        yield "square-zero-%d" % seed, perturb_post(
            rng, induced_post_from_rrb(square_zero_operator(rng, 3, 3, 1)))


# ---------------------------------------------------------------------------
# reader inputs: JSON values as a file may hold them

def random_literal(rng):
    """A JSON value in a rational's place: mostly strings of digits with an
    optional sign, "/q", decimal point or exponent of at most 3 digits, now
    and then with a space, an underscore or a non-ASCII digit; else an int,
    a float or a boolean."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)])
    if kind == 1:
        return rng.choice([rng.uniform(-1e3, 1e3), rng.choice([0.0, -0.0, 0.5, 1e-7, 1e300]),
                           rng.random() < 0.5])

    def digits(most=6):
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(0, most)))
    s = rng.choice(["", "", "", "-", "+", " ", "--"]) + digits()
    r = rng.random()
    if r < 0.35:
        s += "/" + rng.choice(["", "", "-"]) + digits()
    elif r < 0.5:
        s += "." + digits()
    elif r < 0.65:
        s += rng.choice("eE") + rng.choice(["", "+", "-"]) + digits(3)
    for extra in ("_", "٣", " "):
        if rng.random() < 0.08:
            at = rng.randint(0, len(s))
            s = s[:at] + extra + s[at:]
    return s


# the entries of the rows of random_rows: literal zeros of every JSON type,
# a boolean, and two nonzero values
ZERO_LIKE = ["0", 0, 0.0, -0.0, False, "-0", "0/3", "1/2", -3]


def random_rows(rng):
    """A matrix of 1-4 rows of width 1-5, most rows all "0" and the rest
    with entries of ZERO_LIKE; now and then one row is a "0" longer."""
    width = rng.randint(1, 5)
    rows = [["0"] * width if rng.random() < 0.6
            else [rng.choice(ZERO_LIKE) if rng.random() < 0.5 else "0" for _ in range(width)]
            for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.1:
        rows[rng.randrange(len(rows))].append("0")
    return rows


NEGATED = {"1": "-1", "-1": "1", "2": "-2", "1/2": "-1/2", "0": "0", 0: 0}


def random_entries(rng, dim, arity):
    """An entry list [i, .., row, value] of a few keys in range(dim), with
    repeats, zero values and diagonal keys; a key with i != j is listed
    alone, or with its swap negated, or with its swap carrying another value.
    Now and then an index is out of range or not an int, or an entry has a
    wrong length."""
    entries = []
    for _ in range(rng.randint(0, 6)):
        ent = [rng.randrange(dim) for _ in range(arity + 1)] + [rng.choice(list(NEGATED))]
        entries.append(ent)
        if ent[0] != ent[1] and rng.random() < 0.5:
            value = NEGATED[ent[-1]] if rng.random() < 0.7 else rng.choice(list(NEGATED))
            entries.append([ent[1], ent[0]] + ent[2:-1] + [value])
    if entries and rng.random() < 0.05:
        ent = rng.choice(entries)
        ent[rng.randrange(arity + 1)] = rng.choice([dim, -1, True, 1.0])
    if entries and rng.random() < 0.03:
        rng.choice(entries).pop()
    rng.shuffle(entries)
    return entries
