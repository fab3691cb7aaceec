import random
import pytest
from fractions import Fraction as F

import lyalg as L
from lyalg import io as lyio
from lyalg.errors import AxiomsFailed, NotLieAlgebra, StructureError
from lyalg.linalg import Subspace, contract

from conftest import fx
from families import filiform, gl, heisenberg5, sl2, unverified
from oracles import mid, nested


def test_fixture_passes_axioms(nilpotent4):
    assert nilpotent4.verified
    assert nested(nilpotent4.binary)[0][1] == (F(0), F(0), F(0), F(2))
    assert nested(nilpotent4.ternary)[0][1][0] == (F(0), F(0), F(0), F(1))


def test_bracket_multilinearity(nilpotent4):
    x = (F(1), F(2), F(0), F(-1))
    y = (F(0), F(1), F(3), F(0))
    z = (F(2), F(0), F(0), F(1))
    two, three = nilpotent4.binary, nilpotent4.ternary
    lhs = contract(two, tuple(2 * c for c in x), y)
    assert lhs == tuple(2 * c for c in contract(two, x, y))
    lhs = contract(three, x, y, tuple(c + d for c, d in zip(y, z)))
    rhs = tuple(a + b for a, b in zip(contract(three, x, y, y), contract(three, x, y, z)))
    assert lhs == rhs


def test_center_is_e3_e4(nilpotent4):
    C = L.center(nilpotent4)
    assert C == Subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)])


def test_derived_algebra_is_e4(nilpotent4):
    assert L.derived_algebra(nilpotent4) == Subspace(4, [(0, 0, 0, 1)])


def test_bad_fixture_fails_with_witness():
    A = lyio.load_algebra(fx("bad_algebra.json"))
    rep = L.check_ly_axioms(A)
    assert not rep.passed
    assert any(v.eq == "LY3" and v.args == (0, 1, 0, 1) for v in rep.violations)
    with pytest.raises(AxiomsFailed):
        A.ensure_verified()


def test_antisymmetry_enforced():
    b = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # [e1,e2] = [e2,e1] = e1
    t = [[[[0, 0]] * 2] * 2] * 2
    with pytest.raises(StructureError):
        L.LYAlgebra(2, b, t)


def _dense_first_fault(c, d, two, three):
    """The message of the first antisymmetry fault as nested loops over every
    index meet it: binary at (i, j), then ternary at (i, j, k) for each k."""
    n = len(c)
    for i in range(n):
        for j in range(n):
            if list(c[i][j]) != [-x for x in c[j][i]]:
                return two % (i, j)
            if d is None:
                continue
            for k in range(n):
                if list(d[i][j][k]) != [-x for x in d[j][i][k]]:
                    return three % (i, j, k)
    return None


def _skew_inputs(seed, n=4):
    """Antisymmetric binary and ternary tensors with random entries moved in
    both, diagonal and off-diagonal alike, so that either can fault first."""
    rng = random.Random(seed)
    pool = [F(-1), F(0), F(0), F(1), F(2)]
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    d = [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = [rng.choice(pool) for _ in range(n)]
            c[j][i] = [-x for x in c[i][j]]
            for k in range(n):
                d[i][j][k] = [rng.choice(pool) for _ in range(n)]
                d[j][i][k] = [-x for x in d[i][j][k]]
    for _ in range(rng.randrange(0, 3)):
        c[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += rng.choice([F(-1), F(1)])
    for _ in range(rng.randrange(0, 3)):
        d[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += 1
    return c, d


def test_antisymmetry_fault_is_the_first_in_loop_order():
    """The support-driven check raises what the loops over every index raised:
    the same error, the same message, at the same first index, the binary
    check first at equal (i, j); inputs fault in both tensors."""
    from lyalg.postlya import PostLYAlgebra
    two = "binary tensor not antisymmetric at (%d,%d)"
    three = "ternary tensor not antisymmetric in first two slots at (%d,%d,%d)"
    kinds, both = set(), 0
    zero = [[[F(0)] * 4 for _ in range(4)] for _ in range(4)]
    for seed in range(60):
        c, d = _skew_inputs(seed)
        want = _dense_first_fault(c, d, two, three)
        both += (_dense_first_fault(c, None, two, three) is not None
                 and _dense_first_fault(zero, d, two, three) is not None)
        if want is None:
            L.LYAlgebra(4, c, d)
            continue
        kinds.add(want.split()[0])
        with pytest.raises(StructureError) as e:
            L.LYAlgebra(4, c, d)
        assert str(e.value) == want
        with pytest.raises(StructureError) as e:
            PostLYAlgebra(4, c, c, d, d)
        assert str(e.value) == want.replace("binary tensor", "dot").replace(
            "ternary tensor", "angle")
        want = _dense_first_fault(c, None, "bracket not antisymmetric at (%d,%d)", None)
        if want is not None:
            with pytest.raises(NotLieAlgebra) as e:
                L.from_lie_algebra(4, c)
            assert str(e.value) == want
    assert kinds == {"binary", "ternary"} and both >= 5


def test_abelian_passes():
    A = L.abelian(3)
    assert L.check_ly_axioms(A).passed


def test_from_lie_algebra_solvable():
    # [e1, e2] = e2
    b = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    A = L.from_lie_algebra(2, b)
    assert A.verified
    # <e1,e2,e2> = [[e1,e2],e2] = [e2,e2] = 0, <e2,e1,e1> = [-e2,e1] = e2
    assert nested(A.ternary)[1][0][0] == (F(0), F(1))


def test_lie_induced_algebras_pass_the_axioms():
    """``from_lie_algebra`` builds its algebra verified once Jacobi holds;
    each one the suite builds passes the axiom scan all the same."""
    for A in (gl(2), gl(3), sl2(), filiform(5), heisenberg5()):
        assert A.verified and L.check_ly_axioms(unverified(A)).passed


def test_from_lie_algebra_rejects_non_jacobi():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1 breaks Jacobi
    z = [0, 0, 0]
    b = [[list(z) for _ in range(3)] for _ in range(3)]
    b[0][1] = [0, 0, 1]; b[1][0] = [0, 0, -1]
    b[1][2] = [1, 0, 0]; b[2][1] = [-1, 0, 0]
    b[2][0] = [1, 0, 0]; b[0][2] = [-1, 0, 0]
    with pytest.raises(NotLieAlgebra):
        L.from_lie_algebra(3, b)


def test_identity_homomorphism(nilpotent4):
    rep = L.check_homomorphism(nilpotent4, nilpotent4, mid(4))
    assert rep.passed


def test_scaling_map_not_homomorphism(nilpotent4):
    phi = tuple(tuple(F(2) if i == j else F(0) for j in range(4)) for i in range(4))
    rep = L.check_homomorphism(nilpotent4, nilpotent4, phi)
    assert not rep.passed
    assert any(v.eq == "hom-binary" for v in rep.violations)


def test_homomorphism_reads_rational_strings(nilpotent4):
    # a map given by "p/q" entries, as the post, Nijenhuis and operator
    # homomorphism checks take it, is the map of their values
    A = nilpotent4
    passed = []
    for phi in ([[F(int(i == j)) for j in range(4)] for i in range(4)],
                [[F(i + j, 2) for j in range(4)] for i in range(4)]):
        want = L.check_homomorphism(A, A, phi, all_violations=True)
        text = [[str(q) for q in row] for row in phi]
        assert L.check_homomorphism(A, A, text, all_violations=True).to_dict() == want.to_dict()
        passed.append(want.passed)
    assert passed == [True, False]


def test_direct_sum(nilpotent4):
    B = L.abelian(2)
    S = L.direct_sum(nilpotent4, B)
    assert S.dim == 6 and S.verified
    assert L.check_ly_axioms(S).passed
    assert nested(S.binary)[0][1] == (F(0), F(0), F(0), F(2), F(0), F(0))
