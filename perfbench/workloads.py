"""The benchmark's workloads: seeded inputs, job lists and expected outputs.

A job is one call of ``lyalg.cli.run(argv + ["--json"])`` (the graph check,
which has no CLI command, is the one library call).  Every job carries its
expected exit code and a check of its canonical JSON output:

* fixture jobs compare a SHA-256 digest recorded at the seed commit
  (``expected.json``, written by ``record_expected.py``);
* cohomology jobs compare their dimensions, which are invariants: the
  generated operator is one fixed operator carried along a seeded signed
  permutation of the basis, so every seed has the same answer;
* jobs on generated algebras compare the exact document the construction
  implies (see ``gen.py``), or, for dense candidate maps, the verdict and the
  RRB1 witnesses computed independently by the generator.
"""

import hashlib
import json
import os

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "fixtures")

# committed by the acceptance suite's criterion 5 (degrees 1, 2) and confirmed
# against tests/oracles.py by this benchmark's own tests (degree 3)
P3_DIMS = {1: (12, 0, 12), 2: (68, 4, 64), 3: (308, 52, 256)}

# the nilpotent4 fixture in the generator's terms, for family terms over p3
NILPOTENT4 = gen.Alg("nilpotent4", 4, [2, 3], {(0, 1): {3: gen.F(2)}},
                     {(0, 1, 0): {3: gen.F(1)}})
P3_T = [[gen.F(int(i == j == 2)) for j in range(4)] for i in range(4)]


def fx(name):
    return os.path.join(FIXTURES, name)


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.strip().encode("utf-8")).hexdigest()


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Job:
    """One closed-loop request: argv for the CLI (or a library call), the
    expected exit code, a check of the output, and where to save the output
    for a round trip."""

    def __init__(self, name, argv=None, rc=0, check=None, call=None, save=None):
        self.name, self.argv, self.rc = name, argv, rc
        self.check, self.call, self.save = check, call, save


# -- output checks: each returns None when the output is right ---------------

def same_text(want):
    return lambda out: None if out.strip() == want else "output differs from the expected document"


def same_digest(want):
    return lambda out: None if digest(out) == want else "digest %s != %s" % (digest(out)[:12], want[:12])


def report_json(subject, verdict="pass", data=None):
    """The canonical JSON of a report without witnesses."""
    return canonical({"data": data or {}, "subject": subject, "verdict": verdict,
                      "violations": []})


def cohomology_dims(p, dims, witness=False):
    z, b, h = dims

    def check(out):
        doc = json.loads(out)
        count = len(doc["data"].pop("witnesses", ()))
        if witness and count != h:
            return "%d witnesses for H^%d of dimension %d" % (count, p, h)
        want = report_json("cohomology(degree %d)" % p,
                           data={"degree": p, "cocycles": z, "coboundaries": b,
                                 "cohomology": h})
        return None if canonical(doc) == want else "dims %s, want %s" % (
            [doc["data"].get(k) for k in ("cocycles", "coboundaries", "cohomology")], dims)
    return check


def capped_failure(subject, prefix=()):
    """A failing report whose witness list is capped at ten and starts with
    the independently computed ``prefix``."""
    prefix = list(prefix)[:10]

    def check(out):
        doc = json.loads(out)
        vs = doc["violations"]
        if doc["subject"] != subject or doc["verdict"] != "fail":
            return "expected a failing %s report" % subject
        if not 1 <= len(vs) <= 10:
            return "%d witnesses, want 1..10" % len(vs)
        if vs[:len(prefix)] != prefix[:len(vs)]:
            return "witnesses differ from the independent RRB1 scan"
        return None
    return check


def obstruct_zero(n, order):
    """Family terms: the obstruction vanishes and the solver returns T_{n+1} = 0."""
    zero = ["0"] * n
    pairs = n * (n - 1) // 2
    data = {"order": order, "ob_I": [zero] * pairs, "ob_II": [zero] * (pairs * n),
            "closed": True, "obstruction_closed": True, "extendable": True,
            "t_next": [zero] * n}
    return report_json("obstruction(order %d)" % order, data=data)


# -- input writers -------------------------------------------------------------

def write_matrix(wd, stem, T):
    return gen.write(os.path.join(wd, stem + ".json"), {"matrix": gen.mat_doc(T)})


def screened_dense(rng, A, T=None):
    """A dense map that provably fails: as a candidate operator (T is None)
    some RRB1 residual is nonzero; as a linear term next to T, some t^1
    coefficient is nonzero."""
    while True:
        C = gen.dense_matrix(rng, A.dim, A.dim)
        if (gen.rrb1_witnesses(A, C) if T is None else gen.breaks_linear_term(A, T, C)):
            return C


def base(tag, dim, v, free, density=1.0):
    """A fixed algebra with a fixed family operator, and the generator that
    drew them (for further fixed maps on the same algebra)."""
    rng = gen.seeded("base", tag)
    A = gen.random_algebra(rng, tag, dim, v, free, density)
    return A, gen.family_matrix(rng, A, density), rng


def cohomology_base():
    """The fixed dim-5 operator whose seeded copies the workload runs."""
    A, T, _ = base("c5", 5, 3, 1, 0.8)
    return A, T


def signs(rng, M):
    return [[q * rng.choice((1, -1)) for q in row] for row in M]


# -- workloads -----------------------------------------------------------------

def cohomology(seed, wd, expected):
    p3 = fx("p3_on_nilpotent4.json")
    jobs = [Job("p3.d%d" % p, ["cohomology", "--op", p3, "--degree", str(p)],
                check=cohomology_dims(p, P3_DIMS[p])) for p in (1, 2, 3)]
    jobs.append(Job("p3.d2.witness", ["cohomology", "--op", p3, "--degree", "2", "--witness"],
                    check=cohomology_dims(2, P3_DIMS[2], witness=True)))
    A, T = cohomology_base()
    B, (T2,) = gen.signed_permutation(A, [T], gen.seeded(seed, "c5"))
    op = gen.write_operator(wd, "c5", B, T2)
    for p in (1, 2):
        jobs.append(Job("c5.d%d" % p, ["cohomology", "--op", op, "--degree", str(p)],
                        check=cohomology_dims(p, tuple(expected["c5"][str(p)]))))
    return jobs + fixture_checks("cohomology", expected)


def verify(seed, wd, expected):
    jobs, cands = [], []
    for tag, dim, v, rounds in (("g4", 4, 2, ("semidirect", "descent", "post", "lift")),
                                ("g5", 5, 3, ("semidirect",)), ("g6", 6, 3, None)):
        A, T, rng = base(tag, dim, v, 1)
        extra = [screened_dense(rng, A)] if tag == "g4" else []
        A, (T, *extra) = gen.signed_permutation(A, [T] + extra, gen.seeded(seed, tag))
        cands += [(A, C) for C in extra]
        op = gen.write_operator(wd, tag, A, T)
        adj = os.path.join(wd, tag + "_adj.json")
        if rounds is None:
            # at dims 4 and 5 `check action` runs the representation check and
            # the round trips check the algebras
            jobs.append(Job(tag + ".rep", ["check", "rep", adj], check=same_text(
                report_json("representation(%s on %s)" % (tag, tag)))))
            jobs.append(Job(tag + ".algebra", ["check", "algebra",
                                               os.path.join(wd, tag + "_alg.json")],
                            check=same_text(report_json("ly-axioms(%s)" % tag))))
            continue
        jobs.append(Job(tag + ".action", ["check", "action", adj],
                        check=same_text(report_json("action(%s on %s)" % (tag, tag),
                                                    data={"center_dim": gen.center_dim(A)}))))
        jobs.append(Job(tag + ".rrb", ["check", "rrb", op],
                        check=same_text(report_json("rrb(RepAction(%s on %s))" % (tag, tag)))))
        jobs += round_trips(wd, A, T, op, rounds)
    for i, (A, C) in enumerate(cands):
        jobs += candidate_jobs(wd, A, C, "%s.cand%d" % (A.name, i))
    return jobs


def round_trips(wd, A, T, op, rounds):
    """construct -> check pairs; the construct output must equal the document
    the generator predicts, and the re-ingested document must pass."""
    nm, n = A.name, A.dim
    basis = ["e%d" % (i + 1) for i in range(n)]
    sd = dict(gen.semidirect(A).doc(), basis=["g:" + b for b in basis] + ["h:" + b for b in basis])
    own = A.doc()
    docs = {
        "semidirect": (["construct", "semidirect", os.path.join(wd, nm + "_adj.json")], sd,
                       ["check", "algebra"], "ly-axioms(%s)" % sd["name"]),
        "descent": (["construct", "descent", op],
                    dict(own, name=nm + "-descent", basis=basis),
                    ["check", "algebra"], "ly-axioms(%s-descent)" % nm),
        "post": (["construct", "post", op],
                 {"name": nm + "-post", "dim": n, "basis": basis, "dot": own["binary"],
                  "star": [], "angle": own["ternary"], "brace": []},
                 ["check", "post"], "post-axioms(%s-post)" % nm),
        "lift": (["construct", "lift", op],
                 {"algebra": sd, "N": gen.mat_doc(gen.lift_matrix(T))},
                 ["check", "nijenhuis"], "nijenhuis(%s)" % sd["name"]),
    }
    jobs = []
    for what in rounds:
        argv, doc, check_argv, subject = docs[what]
        saved = os.path.join(wd, "%s_%s_out.json" % (nm, what))
        jobs.append(Job("%s.construct.%s" % (nm, what), argv,
                        check=same_text(canonical(doc)), save=saved))
        jobs.append(Job("%s.construct.%s.check" % (nm, what), check_argv + [saved],
                        check=same_text(report_json(subject))))
    return jobs


def candidate_jobs(wd, A, C, stem):
    """A dense candidate through the three equivalent characterisations;
    all three must reject it."""
    nm = A.name
    gen.write(os.path.join(wd, nm + "_sd.json"), gen.semidirect(A).doc())
    op = gen.write(os.path.join(wd, stem + "_op.json"),
                   {"action": nm + "_adj.json", "T": gen.mat_doc(C)})
    nij = gen.write(os.path.join(wd, stem + "_nij.json"),
                    {"algebra": nm + "_sd.json", "N": gen.mat_doc(gen.lift_matrix(C))})
    action = "RepAction(%s on %s)" % (nm, nm)

    def graph():
        from lyalg import io as lyio, rrb
        rep = rrb.graph_subalgebra_check(lyio.load_operator(op))
        return (0 if rep.passed else 1), lyio.canonical_json(rep.to_dict())

    return [Job(stem + ".rrb", ["check", "rrb", op], rc=1,
                check=capped_failure("rrb(%s)" % action, gen.rrb1_witnesses(A, C))),
            Job(stem + ".nijenhuis", ["check", "nijenhuis", nij], rc=1,
                check=capped_failure("nijenhuis(%s|x%s)" % (nm, nm))),
            Job(stem + ".graph", call=graph, rc=1,
                check=capped_failure("graph-subalgebra(%s)" % action))]


def deform(seed, wd, expected):
    jobs = fixture_checks("deform", expected)
    p3 = fx("p3_on_nilpotent4.json")
    rng = gen.seeded(seed, "deform")
    base_rng = gen.seeded("base", "p3")
    fixed = [gen.family_matrix(base_rng, NILPOTENT4, 1.0) for _ in range(3)]
    terms = [write_matrix(wd, "p3_f%d" % i, signs(rng, F)) for i, F in enumerate(fixed)]
    for order in (1, 2, 3):
        jobs.append(Job("p3.family.obstruct%d" % order,
                        ["deform", "obstruct", "--op", p3, "--terms"] + terms[:order] + ["--extend"],
                        check=same_text(obstruct_zero(4, order))))
    A, T, d5_rng = base("d5", 5, 3, 1)
    maps = [T] + [gen.family_matrix(d5_rng, A, 1.0) for _ in range(2)]
    maps.append(screened_dense(d5_rng, A, T))
    A, (T, F1, F2, bad) = gen.signed_permutation(A, maps, gen.seeded(seed, "d5"))
    op5 = gen.write_operator(wd, "d5", A, T)
    t5 = [write_matrix(wd, "d5_f%d" % i, F) for i, F in enumerate((F1, F2))]
    jobs.append(Job("d5.family.obstruct2",
                    ["deform", "obstruct", "--op", op5, "--terms"] + t5 + ["--extend"],
                    check=same_text(obstruct_zero(5, 2))))
    jobs.append(Job("d5.family.linear", ["deform", "linear", "--op", op5, "--t1", t5[0]],
                    check=same_text(linear_pass())))
    invalid = report_json("obstruction(order 1)", "fail", {"error": "not an order-1 deformation"})
    for i in range(2):
        C = screened_dense(base_rng, NILPOTENT4, P3_T)
        S = signs(rng, C)
        while not gen.breaks_linear_term(NILPOTENT4, P3_T, S):
            S = signs(rng, C)
        bad_path = write_matrix(wd, "p3_bad%d" % i, S)
        jobs.append(Job("p3.invalid%d" % i, ["deform", "obstruct", "--op", p3, "--terms",
                                             bad_path, "--extend"], rc=1, check=same_text(invalid)))
    bad_path = write_matrix(wd, "d5_bad", bad)
    jobs.append(Job("d5.invalid", ["deform", "obstruct", "--op", op5, "--terms", bad_path,
                                   "--extend"], rc=1, check=same_text(invalid)))
    return jobs


def linear_pass():
    return report_json("linear-deformation", data={
        "coefficient_verdicts": {"t^1": "pass", "t^2": "pass", "t^3": "pass"},
        "t1_closed": True})


# -- fixture jobs: seed-independent, checked by digest ---------------------------

def fixture_jobs(workload):
    """name -> (argv, expected exit code) for the committed fixtures."""
    p3 = fx("p3_on_nilpotent4.json")
    if workload == "cohomology":
        return {"p12_projection.d1": (["cohomology", "--op", fx("p12_projection.json"),
                                       "--degree", "1"], 1),
                "id_on_nilpotent4.d2": (["cohomology", "--op", fx("id_on_nilpotent4.json"),
                                         "--degree", "2"], 1),
                "id_on_nilpotent4.d3": (["cohomology", "--op", fx("id_on_nilpotent4.json"),
                                         "--degree", "3"], 1)}
    if workload == "deform":
        return {"p3.t1_family.linear": (["deform", "linear", "--op", p3,
                                         "--t1", fx("t1_family.json")], 0),
                "p3.t1_family_b.linear": (["deform", "linear", "--op", p3,
                                           "--t1", fx("t1_family_b.json")], 0),
                "p3.equiv": (["deform", "equiv", "--op", p3, "--t1", fx("t1_family.json"),
                              "--t2", fx("t1_family_b.json"), "--x", fx("x_e1e2.json")], 1),
                "p3.t1_family.obstruct": (["deform", "obstruct", "--op", p3, "--terms",
                                           fx("t1_family.json"), "--extend"], 0)}
    if workload == "warmup":
        return {"warmup.rrb": (["check", "rrb", p3], 0)}
    return {}


def fixture_checks(workload, expected):
    return [Job(name, argv, rc=rc, check=same_digest(expected["digests"][name]))
            for name, (argv, rc) in fixture_jobs(workload).items()]


WORKLOADS = {"cohomology": cohomology, "verify": verify, "deform": deform}
