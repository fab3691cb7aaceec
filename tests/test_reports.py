"""Capped checks end their scan at the tenth witness and keep witness order."""

import hashlib
import random
from fractions import Fraction as F

import lyalg as L
from lyalg import io as lyio
from lyalg.postlya import (PostLYAlgebra, check_post_axioms, check_post_homomorphism,
                           induced_post_from_rrb)
from lyalg.deformation import check_equivalence, check_linear_deformation
from lyalg.reports import Checker
from lyalg.reps import RepAction, adjoint_rep, check_action, check_representation
from lyalg.rrb import HomPair, check_rrb_homomorphism, graph_subalgebra_check

from conftest import fx
from families import (antisym2, antisym3, dense, filiform, forced_operator, heisenberg5,
                      heisenberg5_operator, nilpotent4, p3_operator, perturbed_adjoint,
                      perturbed_post, perturbed_semidirect, plain, semidirect8, sl2,
                      sl2_operator, wedge_pairs)
from oracles import mid


def scalar_pair(c):
    psi = [[F(c) if i == j else F(0) for j in range(4)] for i in range(4)]
    return HomPair(psi, psi)


def assert_capped_prefix(check, *args):
    full = check(*args, all_violations=True).violations
    capped = check(*args).violations
    assert len(full) > 10
    assert capped == full[:10]


def test_reports_do_not_share_their_lists_and_compare_by_field():
    """``Report(subject)`` gets a fresh witness list and data dict, and reports
    and witnesses are equal exactly when every field is."""
    a, b = L.Report("s"), L.Report("s")
    a.violations.append(L.Violation("E", (0,), (F(1),)))
    a.data["k"] = 1
    assert (b.violations, b.data, b.verdict) == ([], {}, "pass") and b.passed
    assert a != b and b == L.Report(subject="s", verdict="pass", violations=[], data={})
    assert L.Report("s", "fail") != b and L.Report("t") != b
    v = L.Violation(eq="E", args=(0,), residual=(F(1),))
    assert v == L.Violation("E", (0,), (1,)) and v.to_dict() == {
        "eq": "E", "args": [0], "residual": ["1"]}
    assert v != L.Violation("E", (1,), (F(1),)) and v != L.Violation("F", (0,), (F(1),))
    assert a == L.Report("s", "pass", [v], {"k": 1})


def test_pairs_and_obstruction_classes_read_by_field():
    pair = HomPair(psi_h=mid(2), psi_g=mid(4))
    assert pair == HomPair(mid(4), mid(2)) and (pair.psi_g, pair.psi_h) == (mid(4), mid(2))
    c = L.Cochain.from_support(2, 2, 3, {0: 5, 4: F(1, 2)})
    ob = L.ObstructionClass(as_cochain=c, closed=False)
    assert ob.as_cochain is c and ob.closed is False
    assert ob.ob_I == c.f == ((5, 0, 0),) and ob.ob_II == c.g
    assert ob.ob_II == ((0, F(1, 2), 0), (0, 0, 0))


def test_tabulate_sorts_dedupes_and_stops_at_saturation():
    """The columns of a matrix table at one witness tuple give one witness,
    witnesses come sorted, the tenth settles the report, and no group is read
    after that, on this call or a later one."""
    ck = Checker("scan")
    keys = [(1, 0, 0), (0, 2, 1), (1, 0, 1), (0, 1, 0)] + [(2, i, 0) for i in range(12)]

    def groups():
        yield [("E", {key: {0: 1} for key in keys})]
        raise AssertionError("group read after saturation")
    ck.tabulate((1, 2), groups())
    assert [v.args for v in ck.violations] == \
        [(0, 1), (0, 2), (1, 0)] + [(2, i) for i in range(7)]
    assert [v.eq for v in ck.violations] == ["E"] * 10
    assert ck.violations[2].residual == ((F(1), F(1)),)

    def never():
        raise AssertionError("read after saturation")
        yield
    ck.tabulate((1,), never())
    assert len(ck.violations) == 10


def test_include_prefixes_names_up_to_the_cap():
    sub = Checker("sub", all_violations=True)
    sub.tabulate((1,), [[("E", {(i,): {0: F(i)} for i in range(12)})]])
    ck = Checker("outer")
    ck.tabulate((1,), [[("A", {(): {0: F(1)}})]])
    ck.include("sub-", sub.report())
    assert [(v.eq, v.args) for v in ck.violations] == \
        [("A", ())] + [("sub-E", (i,)) for i in range(9)]

    def never():
        raise AssertionError("read after saturation")
        yield
    ck.tabulate((1,), never())
    assert len(ck.violations) == 10
    full = Checker("outer", all_violations=True)
    full.include("sub-", sub.report())
    assert [(v.eq, v.args, v.residual) for v in full.violations] == \
        [("sub-E", (i,), (F(i),)) for i in range(12)]


def test_capped_ly_axioms_are_a_prefix():
    rng = random.Random(5150)
    A = L.LYAlgebra(5, antisym2(rng, 5), antisym3(rng, 5))
    assert_capped_prefix(L.check_ly_axioms, A)


def test_capped_sparse_ly_axioms_are_a_prefix():
    assert_capped_prefix(L.check_ly_axioms, perturbed_semidirect(random.Random(5155)))


def test_capped_representation_is_a_prefix():
    rng = random.Random(5151)
    A = L.abelian(5)
    r = RepAction(A, A, plain(rng, 5, 5, 5), plain(rng, 5, 5, 5, 5))
    assert_capped_prefix(check_representation, r)


def test_capped_nijenhuis_is_a_prefix():
    rng = random.Random(5152)
    assert_capped_prefix(L.check_nijenhuis, heisenberg5(), plain(rng, 5, 5))


def test_capped_post_axioms_are_a_prefix():
    rng = random.Random(5153)
    P = PostLYAlgebra(4, antisym2(rng, 4), plain(rng, 4, 4, 4),
                      antisym3(rng, 4), plain(rng, 4, 4, 4, 4))
    assert_capped_prefix(check_post_axioms, P)


def test_capped_order_n_is_a_prefix(p3):
    rng = random.Random(5154)
    d = L.OrderNDeformation(p3, [plain(rng, 4, 4), plain(rng, 4, 4)])
    assert_capped_prefix(L.check_order_n, d)


def test_capped_rrb_is_a_prefix(p3):
    rng = random.Random(5162)
    assert_capped_prefix(L.check_rrb, L.RRBOperator(p3.action, dense(rng, 4, 4)))


def test_capped_linear_deformation_is_a_prefix():
    rng = random.Random(5164)
    op = heisenberg5_operator(rng)
    T1 = dense(rng, 5, 5)
    assert_capped_prefix(check_linear_deformation, op, T1)
    # the per-coefficient verdicts cover every coefficient, capped or not
    assert (check_linear_deformation(op, T1).data
            == check_linear_deformation(op, T1, all_violations=True).data)


def test_capped_sparse_post_axioms_are_a_prefix():
    assert_capped_prefix(check_post_axioms, perturbed_post(random.Random(63)))


def test_capped_homomorphism_is_a_prefix():
    A = nilpotent4()
    assert_capped_prefix(L.check_homomorphism, A, A, dense(random.Random(5170), 4, 4))


def test_capped_post_homomorphism_is_a_prefix():
    P = induced_post_from_rrb(p3_operator())
    assert_capped_prefix(check_post_homomorphism, P, P, dense(random.Random(5171), 4, 4))


def test_capped_graph_check_is_a_prefix():
    op = L.RRBOperator(p3_operator().action, dense(random.Random(5172), 4, 4))
    assert_capped_prefix(graph_subalgebra_check, op)


# SHA-256 of the canonical JSON of the (capped, full) reports, recorded while
# every check still built its ternary table after a settled binary one
BINARY_SETTLED = {
    "nijenhuis": ("1eaf4af8662e05cf3df4b3e5132012fb770c5d0e66cd3b6f36768c0847c378c6",
                  "8bd561a79e7c45ecddc199b06871c134d093d3a38b797e84a861af8413143eb2"),
    "homomorphism": ("1df99cad6caa1dc3350f6fc51609fbe27cbfed88221902a2555bea325e3760b0",
                     "a7bb34e620383a7bde12cfeb6feac48f58a823f87604ab83c35a219178245865"),
    "graph": ("4dc3ec8c9407996cafea03d0276618f88de69b0e5b7be49b95521f278ecd20de",
              "b54ec616e455c3243a949102fa0bd0365b2a3c55b54cd176f80a10cda0fa86e6"),
}


def test_settled_binary_table_skips_the_ternary(monkeypatch):
    """Dense maps over semidirect8 whose binary tables alone give ten
    witnesses or more: a capped check builds its binary table only, a full
    one both, and both reports keep the bytes they had when every check built
    both tables.  A table build is counted where each check makes it: the
    Nijenhuis residual's ``graded`` pulls, one per degree j of N in the
    bracket's slots (three for a pair, four for a triple), ``hom_table`` and
    the graph's ``push`` of the bracket through x - Tu."""
    from lyalg import core, rrb
    S = semidirect8()
    rng = random.Random(5180)
    N, phi = dense(rng, 8, 8), dense(rng, 8, 8)
    op = L.RRBOperator(adjoint_rep(nilpotent4()), dense(rng, 4, 4))
    builds = []

    def counted(module, name):
        orig = getattr(module, name)

        def wrapped(*args, **kwargs):
            builds.append(name)
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counted(rrb, "graded")
    counted(core, "hom_table")
    counted(rrb, "push")
    cases = {"nijenhuis": (L.check_nijenhuis, (S, N), "graded", [3, 7]),
             "homomorphism": (L.check_homomorphism, (S, S, phi), "hom_table", [1, 2]),
             "graph": (graph_subalgebra_check, (op,), "push", [1, 2])}
    for name, (check, args, build, want) in cases.items():
        reports, counts = [], []
        for av in (False, True):
            builds.clear()
            reports.append(check(*args, all_violations=av))
            counts.append(builds.count(build))
        capped, full = reports
        assert sum(1 for v in full.violations if "binary" in v.eq) >= 10, name
        assert capped.violations == full.violations[:10], name
        assert counts == want, name
        assert tuple(hashlib.sha256(lyio.canonical_json(rep.to_dict()).encode()).hexdigest()
                     for rep in reports) == BINARY_SETTLED[name], name


def test_capped_rrb_homomorphism_is_a_prefix():
    p3 = p3_operator()
    assert_capped_prefix(check_rrb_homomorphism, p3, p3, scalar_pair(2))
    rng = random.Random(7001)
    assert_capped_prefix(check_rrb_homomorphism, p3, p3,
                         HomPair(dense(rng, 4, 4), dense(rng, 4, 4)))


def test_capped_equivalence_is_a_prefix():
    rng = random.Random(7101)
    op = forced_operator(rng, 3, 3)
    args = (op, dense(rng, 3, 3), dense(rng, 3, 3), wedge_pairs(rng, 3))
    assert_capped_prefix(check_equivalence, *args)
    # the higher-degree data covers every tuple, capped or not
    assert (check_equivalence(*args).data
            == check_equivalence(*args, all_violations=True).data)


def _seeded_reports():
    """The seeded failing inputs above, each checked with every witness kept,
    and the operator homomorphisms also capped."""
    rng = random.Random(5150)
    yield "ly", L.check_ly_axioms(L.LYAlgebra(5, antisym2(rng, 5), antisym3(rng, 5)),
                                  all_violations=True)
    rng = random.Random(5151)
    A = L.abelian(5)
    r = RepAction(A, A, plain(rng, 5, 5, 5), plain(rng, 5, 5, 5, 5))
    yield "rep", check_representation(r, all_violations=True)
    yield "lemma", L.check_lemma_identities(r, all_violations=True)
    rng = random.Random(5152)
    yield "nijenhuis", L.check_nijenhuis(heisenberg5(), plain(rng, 5, 5), all_violations=True)
    rng = random.Random(5153)
    P = PostLYAlgebra(4, antisym2(rng, 4), plain(rng, 4, 4, 4),
                      antisym3(rng, 4), plain(rng, 4, 4, 4, 4))
    yield "post", check_post_axioms(P, all_violations=True)
    yield "post-as-printed", check_post_axioms(P, all_violations=True, as_printed=True)
    yield "sparse-ly", L.check_ly_axioms(perturbed_semidirect(random.Random(5155)),
                                         all_violations=True)
    r = perturbed_adjoint(random.Random(5160))
    yield "sparse-rep", check_representation(r, all_violations=True)
    yield "sparse-lemma", L.check_lemma_identities(r, all_violations=True)
    rng = random.Random(5161)
    yield "rrb-dense", L.check_rrb(L.RRBOperator(adjoint_rep(heisenberg5()), dense(rng, 5, 5)),
                                   all_violations=True)
    p3 = lyio.load_operator(fx("p3_on_nilpotent4.json"))
    rng = random.Random(5162)
    yield "rrb-p3-dense", L.check_rrb(L.RRBOperator(p3.action, dense(rng, 4, 4)),
                                      all_violations=True)
    for name in ("id_on_nilpotent4", "p12_projection"):
        yield "rrb-" + name, L.check_rrb(lyio.load_operator(fx(name + ".json")),
                                         all_violations=True)
    rng = random.Random(5154)
    d = L.OrderNDeformation(p3.ensure_verified(), [plain(rng, 4, 4), plain(rng, 4, 4)])
    yield "order-2", L.check_order_n(d, all_violations=True)
    rng = random.Random(5163)
    op = heisenberg5_operator(rng)
    d = L.OrderNDeformation(op, [dense(rng, 5, 5), dense(rng, 5, 5)])
    yield "order-2-h5", L.check_order_n(d, all_violations=True)
    yield "linear-id", check_linear_deformation(p3, mid(4), all_violations=True)
    rng = random.Random(5164)
    op = heisenberg5_operator(rng)
    yield "linear-h5-dense", check_linear_deformation(op, dense(rng, 5, 5), all_violations=True)
    rng = random.Random(5165)
    wedges = wedge_pairs(rng, 4)
    yield "equiv-p3-dense", check_equivalence(p3, dense(rng, 4, 4), dense(rng, 4, 4), wedges,
                                              all_violations=True)
    rng = random.Random(5166)
    op = sl2_operator(rng)
    wedges = wedge_pairs(rng, 3)
    yield "equiv-sl2", check_equivalence(op, dense(rng, 3, 2), dense(rng, 3, 2), wedges,
                                         all_violations=True)
    yield "sparse-post", check_post_axioms(perturbed_post(random.Random(63)),
                                           all_violations=True)
    yield "sparse-post-as-printed", check_post_axioms(perturbed_post(random.Random(63)),
                                                      all_violations=True, as_printed=True)
    A = nilpotent4()
    yield "hom-dense", L.check_homomorphism(A, A, dense(random.Random(5170), 4, 4),
                                            all_violations=True)
    P = induced_post_from_rrb(p3)
    yield "post-hom-dense", check_post_homomorphism(P, P, dense(random.Random(5171), 4, 4),
                                                    all_violations=True)
    op = L.RRBOperator(p3.action, dense(random.Random(5172), 4, 4))
    yield "graph-p3-dense", graph_subalgebra_check(op, all_violations=True)
    for av, suffix in ((True, ""), (False, "-capped")):
        yield "rrb-hom-2id" + suffix, check_rrb_homomorphism(p3, p3, scalar_pair(2),
                                                             all_violations=av)
        rng = random.Random(7001)
        yield "rrb-hom-dense" + suffix, check_rrb_homomorphism(
            p3, p3, HomPair(dense(rng, 4, 4), dense(rng, 4, 4)), all_violations=av)
    for name, A in (("sl2", sl2()), ("filiform6", filiform(6)),
                    ("nilpotent4-sl2", L.direct_sum(nilpotent4(), sl2()))):
        for av, suffix in ((True, ""), (False, "-capped")):
            yield "action-" + name + suffix, check_action(adjoint_rep(A), all_violations=av)
    yield "action-semidirect8", check_action(adjoint_rep(semidirect8()), all_violations=True)


# SHA-256 of the canonical JSON of each report, and its witness count; every
# report keeps all its witnesses except those named "-capped"
WITNESS_DIGESTS = {
    "ly": ("2a68938baf706d69933689085c738f0096236a34d0f5e1fd7109b743494daa39", 2756),
    "rep": ("cf31bd7506baf4d54406ed7344e656d5bd291b4c83f614ac81a4e8c1eddfd2cb", 1300),
    "lemma": ("e2ab4245ff09c15d59526b2da845fe3910b0097e89a47c14947ffd32254f4302", 860),
    "nijenhuis": ("e6da9050a6300b2de9dd3986b4d2e14a5411ab8442741f247c74098c59920060", 18),
    "post": ("b6cfc1823052a63adf5e691426881376f88158169ee8ef5f3d5fc9ee26bdb48a", 6381),
    "post-as-printed": ("4ba503a85cd43506d8a4dc7141aee94ccf50f0e9894aec22142d3e6fad13d07b",
                        4926),
    "sparse-ly": ("09882bb8118b7407e8046a53ece98b65f0acea2d8bf7fbbc2eb052ca7e33134c", 82),
    "sparse-rep": ("1ed6c0c0a5e777205148092fa2b82ec5412cdff449107d6c8f7e80345ac0e083", 70),
    "sparse-lemma": ("ba635fe254b6937e4ed1e37823160d4732e8353eaabf41901884fafb989ce619", 46),
    "rrb-dense": ("00a79f5df0452b7ad69ba63d6b5400c2bc4c9d1827afa2b5755d8bf814f4203f", 20),
    "rrb-p3-dense": ("54162c89045a8b6154dfa159f5751dce2cf13739d80a70d13aea4a57e624ec7f", 60),
    "rrb-id_on_nilpotent4": ("67192bb91e9da619c5bfa05a1ab04475af0f7f53b4bbf1fca496d96ff0f859e1",
                             4),
    "rrb-p12_projection": ("63b4d40fec1791b8b82cc235a3f0192d215939995bdff1cc67bbfb83674535ae",
                           4),
    "order-2": ("85fb76edfbf5f968ed964d66cd7b1766f0e182225411a8390a1692f80e3f47c2", 16),
    "order-2-h5": ("d4027fe8390c7a5a3d98337d4d89f3d96a3ec1cc4173f1067b4e9de2023588ef", 24),
    "linear-id": ("12c8d2e1438b6e989853e38de1f006cd5e78560558ca098d8ebcb65ebb6edc49", 8),
    "linear-h5-dense": ("e0c6649e716da0a11da5329b5e92411a7502c919d7dab611be9919e7b5bff694", 24),
    "equiv-p3-dense": ("203672638fb97e697ff37b39d00ea50b43c2631e2887f4ff47ce0af6ec5f7b91", 1),
    "equiv-sl2": ("79986f8456cae3ad6263b3aa0eb48311d0560d9a2d51936a35324514b12b91b9", 1),
    "sparse-post": ("958589d62c18922e8090fb96cfc7065f50cb50d3664055c6e1490120274c3d4c", 46),
    "sparse-post-as-printed": (
        "181982cfd71ec870d4f1a7652f7d8233b856cd67d6e77510dc9768b3e1d8475d", 40),
    "hom-dense": ("d7f4eb62378f731977ff88187519996b4c4ad3f877999583179b26571a7ad982", 34),
    "post-hom-dense": ("12d20c1bed32b8a5349db539b4ed48acd484356f387fc4c9518bea61e16038ba", 30),
    "graph-p3-dense": ("b7528daadb391d5ef926ba70cbf6daa8e2a86d0319906b1dc9413aa16a3f4986", 60),
    "rrb-hom-2id": ("38c2c0db707847b1444e8860d376ed9c8dc053215acaec6449f8cdd360519ced", 14),
    "rrb-hom-2id-capped": ("650582fdada117f4edab3196c05db1653aad9a5f09eda43b2706facd2288216c",
                           10),
    "rrb-hom-dense": ("b31d3f7a0cc9f6ed54bb8c8341e2349d139f8e19e92169e2f19a244e0c600baf", 141),
    "rrb-hom-dense-capped": (
        "363fe914de067119609f848d31bdf932f3e4da606c1334fab604e648fa941105", 10),
    "action-sl2": ("5c47d4cb0c5487a49a6377764446127ebd1499e51114cd12301bd265ae9b5825", 180),
    "action-sl2-capped": ("112c0c09cbfa46b24349ef4bdd769402c8cb9d5e7c294eeb9edd1e791b57caf5",
                          10),
    "action-filiform6": ("3bc1aa0af757e1ae447f98d78f5f03a6b86102036cf0dc6a53383578dbea5ec2", 25),
    "action-filiform6-capped": (
        "f3d97317140b606d8fcb77e12e484d7913b54bd870f9bd11c9bb93177ac2c691", 10),
    "action-nilpotent4-sl2": (
        "476ded5d6f002df94536d742fcd34863362fbaa5074a4c512b1fb40dbaf707fb", 180),
    "action-nilpotent4-sl2-capped": (
        "bbea388588e23b9a65d6b6a8424e46e99266fd70dfeed1a0d72db3d56d5cd157", 10),
    "action-semidirect8": ("186ebfe12b2af2bd407007df36e52d4af4ff1f1104b484e7a85db88de78ac958",
                           0),
}


def test_full_witness_lists_are_byte_stable():
    got = {name: (hashlib.sha256(lyio.canonical_json(rep.to_dict()).encode()).hexdigest(),
                  len(rep.violations))
           for name, rep in _seeded_reports()}
    assert got == WITNESS_DIGESTS
