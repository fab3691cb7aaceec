"""Capped checks end their scan at the tenth witness and keep witness order."""

import hashlib
import random
from fractions import Fraction as F

import lyalg as L
from lyalg import io as lyio
from lyalg.postlya import PostLYAlgebra, check_post_axioms
from lyalg.reports import Checker
from lyalg.reps import RepAction, check_representation

POOL = [F(-1), F(0), F(0), F(0), F(1), F(2)]


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


def heisenberg5():
    """[e1,e2] = [e3,e4] = e5 as a Lie-Yamaguti algebra."""
    c = [[[F(0)] * 5 for _ in range(5)] for _ in range(5)]
    for a, b in ((0, 1), (2, 3)):
        c[a][b] = [F(0)] * 4 + [F(1)]
        c[b][a] = [F(0)] * 4 + [F(-1)]
    return L.from_lie_algebra(5, c)


def assert_capped_prefix(check, *args):
    full = check(*args, all_violations=True).violations
    capped = check(*args).violations
    assert len(full) > 10
    assert capped == full[:10]


def test_tuples_stop_at_saturation():
    ck = Checker("scan")
    seen = []
    for t in ck.tuples(5, 5):
        seen.append(t)
        ck.record("E", t, (F(1),))
    assert seen == [(0, 0, 0, 0, i) for i in range(5)] + [(0, 0, 0, 1, i) for i in range(5)]
    assert ck.done and list(ck.tuples(5, 2)) == []
    assert len(list(Checker("all", all_violations=True).tuples(3, 3))) == 27


def test_capped_ly_axioms_are_a_prefix():
    rng = random.Random(5150)
    A = L.LYAlgebra(5, antisym2(rng, 5), antisym3(rng, 5))
    assert_capped_prefix(L.check_ly_axioms, A)


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


def _seeded_reports():
    """The seeded failing inputs above, each checked with every witness kept."""
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


# SHA-256 of the canonical JSON of each full report, and its witness count
WITNESS_DIGESTS = {
    "ly": ("2a68938baf706d69933689085c738f0096236a34d0f5e1fd7109b743494daa39", 2756),
    "rep": ("cf31bd7506baf4d54406ed7344e656d5bd291b4c83f614ac81a4e8c1eddfd2cb", 1300),
    "lemma": ("e2ab4245ff09c15d59526b2da845fe3910b0097e89a47c14947ffd32254f4302", 860),
    "nijenhuis": ("e6da9050a6300b2de9dd3986b4d2e14a5411ab8442741f247c74098c59920060", 18),
    "post": ("b6cfc1823052a63adf5e691426881376f88158169ee8ef5f3d5fc9ee26bdb48a", 6381),
    "post-as-printed": ("4ba503a85cd43506d8a4dc7141aee94ccf50f0e9894aec22142d3e6fad13d07b",
                        4926),
}


def test_full_witness_lists_are_byte_stable():
    got = {name: (hashlib.sha256(lyio.canonical_json(rep.to_dict()).encode()).hexdigest(),
                  len(rep.violations))
           for name, rep in _seeded_reports()}
    assert got == WITNESS_DIGESTS
