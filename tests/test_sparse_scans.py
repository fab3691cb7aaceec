"""The support-driven axiom scans and the pulled-back tables list exactly the
witnesses of a dense scan.

Most inputs here are sparse and failing, so most basis tuples have no live
term and are skipped, while the oracle in ``tests/oracles.py`` evaluates every
equation at every tuple.
"""

import random
from fractions import Fraction as F

import pytest

import lyalg as L
from lyalg import io as lyio
from lyalg import reps
from lyalg.cohomology import induced_rep
from lyalg.deformation import check_equivalence
from lyalg.linalg import push
from lyalg.postlya import check_post_axioms, check_post_homomorphism, induced_post_from_rrb
from lyalg.reports import Report
from lyalg.reps import (RepAction, adjoint_rep, check_action, check_lemma_identities,
                        check_representation)
from lyalg.rrb import lift_operator

import oracles
from conftest import fx
from families import (antisym2, antisym3, dense, family_matrix, filiform, forced_operator,
                      generated_posts, gl, heisenberg5, listed, live_post_operator, moved,
                      near_identity, nilpotent4, p3_operator, perturbed_adjoint, perturbed_post,
                      perturbed_semidirect, plain, semidirect8, sl2, sl2_operator,
                      sl2_triple_system, sl3_cartan, wedge_pairs, with_action_moved,
                      with_ternary_moved)


def assert_rep_matches(r):
    rep = check_representation(r, all_violations=True)
    assert listed(rep) == oracles.o_rep_violations(r)
    lem = check_lemma_identities(r, all_violations=True)
    assert listed(lem) == oracles.o_lemma_violations(r)
    return rep


@pytest.mark.parametrize("seed", [11, 12])
def test_sparse_ly_scan_matches_dense_oracle(seed):
    A = perturbed_semidirect(random.Random(seed))
    rep = L.check_ly_axioms(A, all_violations=True)
    assert not rep.passed
    assert listed(rep) == oracles.o_ly_violations(A)


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_perturbed_adjoint_scans_match_dense_oracle(seed):
    assert not assert_rep_matches(perturbed_adjoint(random.Random(seed))).passed


def test_perturbed_heisenberg_adjoint_matches_dense_oracle():
    r = moved(random.Random(31), adjoint_rep(heisenberg5()), 1)
    assert not assert_rep_matches(r).passed


def test_perturbed_induced_rep_of_p3_matches_dense_oracle(p3):
    r = induced_rep(p3)
    assert assert_rep_matches(r).passed
    for seed in (41, 42):
        assert not assert_rep_matches(moved(random.Random(seed), r, 2)).passed


@pytest.mark.parametrize("n,m", [(0, 0), (0, 2), (2, 0), (1, 0), (1, 1), (1, 3), (3, 1)])
def test_small_acting_or_carrier_matches_dense_oracle(n, m):
    rng = random.Random(100 * n + m)
    r = RepAction(L.abelian(n), L.abelian(m), plain(rng, n, m, m), plain(rng, n, n, m, m))
    assert_rep_matches(r)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_small_algebras_match_dense_oracle(n):
    rng = random.Random(200 + n)
    A = L.LYAlgebra(n, antisym2(rng, n), antisym3(rng, n))
    assert listed(L.check_ly_axioms(A, all_violations=True)) == oracles.o_ly_violations(A)


def unit(n, i):
    return tuple(F(int(s == i)) for s in range(n))


def assert_D_matches(r):
    n, D = r.acting.dim, oracles.nested(r.derived_D)
    for i in range(n):
        for j in range(n):
            assert D[i][j] == oracles.D_at(r, unit(n, i), unit(n, j)), (i, j)


@pytest.mark.parametrize("n,m", [(0, 0), (0, 3), (1, 0), (1, 2), (2, 2), (2, 4), (3, 1),
                                 (3, 3), (4, 2), (4, 4)])
def test_derived_D_matches_closed_form_oracle(n, m):
    """Random brackets, rho and mu: a representation only by accident."""
    rng = random.Random(300 + 10 * n + m)
    g = L.LYAlgebra(n, antisym2(rng, n), antisym3(rng, n))
    r = RepAction(g, L.abelian(m), plain(rng, n, m, m), plain(rng, n, n, m, m))
    assert_D_matches(r)


def test_derived_D_of_representations_matches_closed_form_oracle(p3):
    for r in (p3.action, induced_rep(p3), adjoint_rep(sl2()), adjoint_rep(filiform(5)),
              adjoint_rep(heisenberg5())):
        assert_D_matches(r)


@pytest.mark.parametrize("name", ["sl2", "filiform6", "nilpotent4-sl2", "semidirect8",
                                  "p3-induced", "sl3-cartan", "gl3-moved-1", "gl3-moved-5"])
def test_action_matches_dense_oracle(p3, monkeypatch, name):
    """Every witness of the action conditions and its order, full and capped."""
    if name.startswith("gl3-moved"):
        # moved, the pair is no representation: its check passes unread, so
        # that the action scan itself is compared
        monkeypatch.setattr(reps, "check_representation",
                            lambda r, all_violations=False: Report("representation"))
    r = {"sl2": lambda: adjoint_rep(sl2()),
         "filiform6": lambda: adjoint_rep(filiform(6)),
         "nilpotent4-sl2": lambda: adjoint_rep(L.direct_sum(nilpotent4(), sl2())),
         "semidirect8": lambda: adjoint_rep(semidirect8()),
         "p3-induced": lambda: induced_rep(p3),
         "sl3-cartan": lambda: adjoint_rep(sl3_cartan()),
         "gl3-moved-1": lambda: with_action_moved(adjoint_rep(gl(3)), 1),
         "gl3-moved-5": lambda: with_action_moved(adjoint_rep(gl(3)), 5)}[name]()
    want = oracles.o_action_violations(r)
    rep = check_action(r, all_violations=True)
    assert rep.passed == (name in ("semidirect8", "p3-induced"))
    assert listed(rep) == want
    assert listed(check_action(r)) == want[:10]


def test_capped_action_check_stops_early(monkeypatch):
    """A capped failing check builds the tables of fewer acting tuples."""
    calls = []

    def counting(*args):
        calls.append(args)
        return push(*args)
    monkeypatch.setattr(reps, "push", counting)
    r = adjoint_rep(sl3_cartan())
    assert len(check_action(r, all_violations=True).violations) > 10
    full = len(calls)
    del calls[:]
    assert len(check_action(r).violations) == 10
    assert 0 < len(calls) < full


@pytest.mark.parametrize("name", ["sl2", "sl2-lts"])
def test_action_kill_test_skips_blocks_that_meet_no_bracket_value(name):
    """nilpotent4 (+) sl2, or (+) sl2's triple system, acting on itself: some
    acting tuples have columns that are no row of a bracket value, binary or
    ternary, so the kill test skips them, while others record kills; the full
    witness list is still the dense oracle's."""
    r = adjoint_rep(L.direct_sum(nilpotent4(), {"sl2": sl2, "sl2-lts": sl2_triple_system}[name]()))
    h = r.carrier
    rows = {row for t in (h.binary, h.ternary) for v in t.support.values() for row in v}
    columns = {}
    for fam, t in (("rho", r.rho), ("mu", r.mu), ("D", r.derived_D)):
        for key in t.support:
            columns.setdefault((fam, key[:-1]), set()).add(key[-1])
    skipped = [args for args, cols in columns.items() if rows.isdisjoint(cols)]
    assert 0 < len(skipped) < len(columns)
    rep = check_action(r, all_violations=True)
    assert any("-kills-" in v.eq for v in rep.violations)
    assert listed(rep) == oracles.o_action_violations(r)


@pytest.mark.parametrize("as_printed", [False, True])
@pytest.mark.parametrize("seed", [61, 62, 63])
def test_perturbed_induced_post_matches_dense_oracle(seed, as_printed):
    P = perturbed_post(random.Random(seed))
    rep = check_post_axioms(P, all_violations=True, as_printed=as_printed)
    assert not rep.passed
    assert listed(rep) == oracles.o_post_violations(P, as_printed)


@pytest.mark.parametrize("as_printed", [False, True])
def test_dense_post_matches_dense_oracle(as_printed):
    """Random dense operations: brace o brace has keys off the w-diagonal of
    the printed P4 summand {{x,w,z},w,t}, and they must not enter P4."""
    rng = random.Random(5173)
    P = L.PostLYAlgebra(3, antisym2(rng, 3), plain(rng, 3, 3, 3), antisym3(rng, 3),
                        plain(rng, 3, 3, 3, 3))
    rep = check_post_axioms(P, all_violations=True, as_printed=as_printed)
    assert listed(rep) == oracles.o_post_violations(P, as_printed)


def test_induced_post_passes_dense_oracle(p3):
    for op in (p3, live_post_operator()):
        P = induced_post_from_rrb(op)
        for as_printed in (False, True):
            assert oracles.o_post_violations(P, as_printed) == []
            assert check_post_axioms(P, all_violations=True, as_printed=as_printed).passed


@pytest.mark.parametrize("entry", [None, (3, 7), (4, 6), (7, 3)])
def test_perturbed_lift_nijenhuis_matches_dense_oracle(p3, entry):
    S = p3.action.semidirect()
    N = [list(row) for row in lift_operator(p3).dense()]
    if entry is not None:
        N[entry[0]][entry[1]] += 1
    rep = L.check_nijenhuis(S, N, all_violations=True)
    assert rep.passed == (entry is None)
    assert listed(rep) == oracles.o_nijenhuis_violations(S, N)


def test_sparse_nijenhuis_on_heisenberg_matches_dense_oracle():
    A = heisenberg5()
    N = near_identity(5, [(4, 0), (1, 2)])
    rep = L.check_nijenhuis(A, N, all_violations=True)
    assert listed(rep) == oracles.o_nijenhuis_violations(A, N)


@pytest.mark.parametrize("entries", [[(0, 1)], [(0, 3)], [(2, 3)], [(0, 3), (2, 1)]])
def test_near_identity_homomorphism_matches_dense_oracle(entries):
    A = nilpotent4()
    phi = near_identity(4, entries)
    rep = L.check_homomorphism(A, A, phi, all_violations=True)
    assert not rep.passed
    assert listed(rep) == oracles.o_hom_violations(phi, [
        ("hom-binary", 2, A.binary, A.binary), ("hom-ternary", 3, A.ternary, A.ternary)])


def test_inclusion_into_semidirect_matches_dense_oracle(p3):
    A, S = nilpotent4(), p3.action.semidirect()
    for entries in ([], [(5, 0)], [(1, 2), (6, 3)]):
        phi = near_identity(4, entries, rows=8)
        rep = L.check_homomorphism(A, S, phi, all_violations=True)
        assert listed(rep) == oracles.o_hom_violations(phi, [
            ("hom-binary", 2, A.binary, S.binary), ("hom-ternary", 3, A.ternary, S.ternary)])


# (operator, entries, hom-star and hom-brace witnesses): p3's induced
# post-algebra has star = brace = 0, the live operator's does not
@pytest.mark.parametrize("entries", [("p3", [(0, 2)], 0), ("p3", [(0, 3)], 0),
                                     ("p3", [(1, 3), (3, 2)], 0), ("live", [(0, 2)], 8),
                                     ("live", [(0, 1)], 3), ("live", [(1, 2), (2, 0)], 11)])
def test_near_identity_post_homomorphism_matches_dense_oracle(p3, entries):
    name, entries, live = entries
    P = induced_post_from_rrb(p3 if name == "p3" else live_post_operator())
    psi = near_identity(P.dim, entries)
    rep = check_post_homomorphism(P, P, psi, all_violations=True)
    assert not rep.passed
    assert listed(rep) == oracles.o_hom_violations(psi, [
        (eq, arity, getattr(P, op), getattr(P, op))
        for eq, arity, op in (("hom-dot", 2, "dot"), ("hom-star", 2, "star"),
                              ("hom-angle", 3, "angle"), ("hom-brace", 3, "brace"))],
        interleaved=True)
    assert sum(v.eq in ("hom-star", "hom-brace") for v in rep.violations) == live


def test_as_printed_p4_reads_every_y():
    """{{x,w,z},w,t}, the first summand of the printed P4, never reads y: with
    brace living on middle index 0 only, it is the one live term of P4 at
    every y != 0, so those witnesses exist only if the scan ranges over y."""
    from lyalg.postlya import PostLYAlgebra
    rng, n = random.Random(71), 3
    zero = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    brace = [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            brace[i][0][k] = [rng.choice([F(-1), F(1), F(2)]) for _ in range(n)]
    P = PostLYAlgebra(n, zero, zero, [zero] * n, brace)
    rep = check_post_axioms(P, all_violations=True, as_printed=True)
    assert any(v.eq == "P4" and v.args[1] != 0 for v in rep.violations)
    assert listed(rep) == oracles.o_post_violations(P, as_printed=True)


def full_rrb_hom_oracle(from_op, to_op, pg, ph):
    """The dense witness list of an operator homomorphism: each psi's
    homomorphism witnesses (prefixed), intertwines-T, then the equivariance."""
    rf, rt = from_op.action, to_op.action
    out = []
    for eq, phi, a, b in (("psi_g-not-homomorphism:", pg, rf.acting, rt.acting),
                          ("psi_h-not-homomorphism:", ph, rf.carrier, rt.carrier)):
        out += [(eq + e, args, res) for e, args, res in oracles.o_hom_violations(phi, [
            ("hom-binary", 2, a.binary, b.binary), ("hom-ternary", 3, a.ternary, b.ternary)])]
    res = tuple(oracles.vs(a, b)
                for a, b in zip(oracles.mm(pg, from_op.T.dense()), oracles.mm(to_op.T.dense(), ph)))
    if any(any(row) for row in res):
        out.append(("intertwines-T", (), res))
    return out + oracles.o_equivariance_violations(rf, rt, pg, ph)


@pytest.mark.parametrize("g_entries,h_entries", [
    ([], []), ([(0, 1)], []), ([], [(2, 3)]), ([(0, 3)], [(0, 3)]), ([(2, 3), (1, 0)], [(3, 1)])])
def test_near_identity_rrb_homomorphism_matches_dense_oracle(p3, g_entries, h_entries):
    pg, ph = near_identity(4, g_entries), near_identity(4, h_entries)
    rep = L.check_rrb_homomorphism(p3, p3, L.HomPair(pg, ph), all_violations=True)
    assert listed(rep) == full_rrb_hom_oracle(p3, p3, pg, ph)


@pytest.mark.parametrize("entries", [[(0, 1)], [(1, 3), (3, 0)]])
def test_rrb_homomorphism_over_nilpotent4_adjoint_matches_dense_oracle(p3, entries):
    """From an operator over the adjoint action built by ``adjoint_rep`` into
    p3 (over the action read from its file), near-identity maps on both sides."""
    src = L.RRBOperator(adjoint_rep(nilpotent4()).ensure_action(),
                        family_matrix(random.Random(81)))
    pg, ph = near_identity(4, entries), near_identity(4, entries[::-1])
    rep = L.check_rrb_homomorphism(src, p3, L.HomPair(pg, ph), all_violations=True)
    assert not rep.passed
    assert listed(rep) == full_rrb_hom_oracle(src, p3, pg, ph)


def test_rrb_homomorphism_between_random_actions_matches_dense_oracle():
    rng = random.Random(83)
    a, b = forced_operator(rng, 3, 2), forced_operator(rng, 3, 2)
    pg, ph = dense(rng, 3, 3), dense(rng, 2, 2)
    rep = L.check_rrb_homomorphism(a, b, L.HomPair(pg, ph), all_violations=True)
    assert listed(rep) == full_rrb_hom_oracle(a, b, pg, ph)


def equivalence_inputs():
    """(name, op, T1, T2, wedges): p3 and sl2 with dense maps and wedges, the
    p3 fixtures, and random forced operators whose t^1 identities fail."""
    p3 = p3_operator()
    for seed in (5165, 91):
        rng = random.Random(seed)
        wedges = wedge_pairs(rng, 4)
        yield "p3-%d" % seed, p3, dense(rng, 4, 4), dense(rng, 4, 4), wedges
    yield ("p3-fixtures", p3, lyio.load_matrix(fx("t1_family.json")),
           lyio.load_matrix(fx("t1_family_b.json")), lyio.load_wedges(fx("x_e1e2.json")))
    for seed in (5166, 92):
        rng = random.Random(seed)
        op = sl2_operator(rng)
        wedges = wedge_pairs(rng, 3)
        yield "sl2-%d" % seed, op, dense(rng, 3, 2), dense(rng, 3, 2), wedges
    for seed, n, m in ((93, 3, 2), (94, 2, 3)):
        rng = random.Random(seed)
        op = forced_operator(rng, n, m)
        yield "forced-%d" % seed, op, dense(rng, n, m), dense(rng, n, m), wedge_pairs(rng, n)


def test_equivalence_matches_dense_polynomial_oracle():
    higher = {}
    for name, op, T1, T2, wedges in equivalence_inputs():
        rep = check_equivalence(op, T1, T2, wedges, all_violations=True)
        want, data = oracles.o_equivalence(op, T1, T2, wedges)
        assert (listed(rep), rep.data) == (want, data), name
        higher[name] = data["higher_order_residual_degrees"]
    # the inputs reach past t^1: psi_g on p3 and sl2, and psi_h and the
    # equivariance up to t^3 on a forced operator
    assert higher["p3-5165"] and higher["sl2-5166"]
    forced = higher["forced-93"]
    assert max(forced["psi_h-ternary"]) == 3
    assert max(forced["mu-equivariance"]) == 3 and max(forced["D-equivariance"]) == 3


# ---------------------------------------------------------------------------
# wide supports: Lie algebras made into LY algebras by ``from_lie_algebra``,
# whose ternary bracket <x,y,z> = [[x,y],z] is live at most triples, the
# reductive pair of sl_3 over its Cartan subalgebra, with both brackets live
# and [[x,y],z] nonzero, and the post-algebras induced by generated operators

WIDE = {"gl2": lambda: gl(2), "sl2": sl2, "sl3-cartan": sl3_cartan}


def assert_capped_and_full(check, want, *args, **kwargs):
    """The full witness list of ``check`` is ``want``, and the capped one its
    first ten."""
    assert listed(check(*args, all_violations=True, **kwargs)) == want
    assert listed(check(*args, **kwargs)) == want[:10]
    return {eq.split("-")[0] for eq, _, _ in want}


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_lie_algebras_pass_every_table(name):
    A = WIDE[name]()
    r = adjoint_rep(A)
    assert assert_capped_and_full(L.check_ly_axioms, oracles.o_ly_violations(A), A) == set()
    assert assert_capped_and_full(check_representation, oracles.o_rep_violations(r), r) == set()
    assert assert_capped_and_full(check_lemma_identities, oracles.o_lemma_violations(r),
                                  r) == set()


def test_perturbed_wide_lie_algebras_match_dense_oracle():
    """Entries moved at keys with a repeated index: <e_0, e_1, e_0> (and
    <e_0, e_1, e_2>, since a cyclic sum cancels the first), rho(e_1) and
    mu(e_1, e_1) (and mu(e_0, e_1), since D cancels the second).  Some
    witnesses repeat an index, and every equation fails on gl_2 or sl2 (LY2
    and L1 cannot fail on sl2 with its bracket kept)."""
    seen = set()
    for name in sorted(WIDE):
        A = WIDE[name]()
        B = with_ternary_moved(A, (0, 1, 0), (0, 1, 2))
        want = oracles.o_ly_violations(B)
        seen |= assert_capped_and_full(L.check_ly_axioms, want, B)
        assert any(len(set(args)) < len(args) for _, args, _ in want), name
        r = with_action_moved(adjoint_rep(A), 1)
        want = oracles.o_rep_violations(r)
        seen |= assert_capped_and_full(check_representation, want, r)
        assert any(len(set(args)) < len(args) for _, args, _ in want), name
        seen |= assert_capped_and_full(check_lemma_identities, oracles.o_lemma_violations(r), r)
    assert seen == {"LY1", "LY2", "LY3", "LY4", "R1", "R2", "R3", "R4", "R5", "L1", "L2", "L3"}


@pytest.mark.parametrize("as_printed", [False, True])
def test_perturbed_generated_posts_match_dense_oracle(as_printed):
    seen = set()
    for name, P in generated_posts():
        want = oracles.o_post_violations(P, as_printed)
        assert want, name
        seen |= assert_capped_and_full(check_post_axioms, want, P, as_printed=as_printed)
    assert {"P%d" % k for k in range(1, 9)} <= seen
