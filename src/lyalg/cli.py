"""Command-line interface.

Exit codes: 0 for a passing verdict; 1 for a failing one, an ``AxiomsFailed``
too (its report, or one ``error:`` line when it has none); 2 for usage errors,
any other library error or an ``OSError``, such as a closed or full stdout
while a report prints or flushes, with one ``error:`` line.  ``--format json``
(or ``--json``) emits a canonical JSON payload; ``construct`` subcommands
always print a JSON document that the matching ``check`` subcommand re-ingests.
"""

import argparse
import functools
import json
import os
import sys

from . import io as lyio
from .cohomology import TComplex
from .core import check_homomorphism, check_ly_axioms
from .deformation import (OrderNDeformation, check_equivalence,
                          check_linear_deformation, extend, obstruction_class)
from .errors import AxiomsFailed, FormatError, InvalidDeformation, LyalgError
from .linalg import format_frac
from .postlya import check_post_axioms, induced_post_from_rrb, subadjacent
from .reports import Report
from .reps import check_action, check_representation
from .rrb import check_nijenhuis, check_rrb, descent_algebra, lift_operator


@functools.lru_cache(maxsize=None)       # built once per process; parsing leaves it as it was
def _parser():
    p = argparse.ArgumentParser(prog="lyalg",
                                description="Exact checks and constructions "
                                            "for Lie-Yamaguti structures.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("pretty", "json"), default="pretty")
    common.add_argument("--json", action="store_true",
                        help="shorthand for --format json")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sampling (accepted for "
                             "reproducibility; current commands are deterministic)")
    common.add_argument("--all-violations", action="store_true",
                        help="report every witness instead of the first ten")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[common], help="verify axioms or equations")
    pc.add_argument("what", choices=("algebra", "rep", "action", "rrb", "post",
                                     "homomorphism", "nijenhuis"))
    pc.add_argument("file", nargs="?", help="input JSON file")
    pc.add_argument("--op", dest="op_file", help="alias for the input file")
    pc.add_argument("--as-printed", action="store_true",
                    help="(post only) use the variant compatibility equations")

    pk = sub.add_parser("construct", parents=[common],
                        help="build a derived structure and print it as JSON")
    pk.add_argument("what", choices=("semidirect", "descent", "subadjacent",
                                     "post", "lift"))
    pk.add_argument("file", help="input JSON file")

    ph = sub.add_parser("cohomology", parents=[common],
                        help="cohomology of the complex attached to an operator")
    ph.add_argument("--op", required=True, help="operator JSON file")
    ph.add_argument("--degree", type=int, required=True)
    ph.add_argument("--witness", action="store_true",
                    help="include cocycle representatives spanning the cohomology")

    pd = sub.add_parser("deform", parents=[common],
                        help="deformations of a weight-1 operator")
    pd.add_argument("what", choices=("linear", "equiv", "obstruct"))
    pd.add_argument("--op", required=True, help="operator JSON file")
    pd.add_argument("--t1", help="matrix JSON file")
    pd.add_argument("--t2", help="matrix JSON file")
    pd.add_argument("--x", dest="x_file", help="wedge-pair JSON file")
    pd.add_argument("--terms", nargs="+", help="matrix JSON files T1 T2 ...")
    pd.add_argument("--extend", action="store_true",
                    help="solve for the next-order term when possible")
    return p


def _emit_report(rep, fmt):
    if fmt == "json":
        print(lyio.canonical_json(rep.to_dict()))
    else:
        print(rep.pretty())
    return 0 if rep.passed else 1


def _emit_doc(doc, fmt):
    if fmt == "json":
        print(lyio.canonical_json(doc))
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _coordinates(c):
    """Every coordinate of a cochain, formatted from its support alone."""
    row = ["0"] * c.layout.total
    for k, q in c.support.items():
        row[k] = format_frac(q)
    return row


def _cmd_check(args, fmt):
    path = args.op_file or args.file
    if not path:
        raise FormatError("check: missing input file")
    av = args.all_violations
    if args.what == "algebra":
        return _emit_report(check_ly_axioms(lyio.load_algebra(path), av), fmt)
    if args.what == "rep":
        r = lyio.load_action(path, certify=False)
        return _emit_report(check_representation(r, av), fmt)
    if args.what == "action":
        r = lyio.load_action(path, certify=False)
        return _emit_report(check_action(r, av), fmt)
    if args.what == "rrb":
        return _emit_report(check_rrb(lyio.load_operator(path), av), fmt)
    if args.what == "post":
        rep = check_post_axioms(lyio.load_post(path), av, as_printed=args.as_printed)
        return _emit_report(rep, fmt)
    if args.what == "homomorphism":
        src, dst, mx = lyio.load_homomorphism(path)
        src.ensure_verified()
        dst.ensure_verified()
        return _emit_report(check_homomorphism(src, dst, mx, av), fmt)
    A, N = lyio.load_nijenhuis(path)
    return _emit_report(check_nijenhuis(A, N, av), fmt)


def _cmd_construct(args, fmt):
    if args.what == "semidirect":
        r = lyio.load_action(args.file)
        return _emit_doc(lyio.dump_structure(r.semidirect()), fmt)
    if args.what == "subadjacent":
        P = lyio.load_post(args.file)
        return _emit_doc(lyio.dump_structure(subadjacent(P)), fmt)
    op = lyio.load_operator(args.file)
    op.ensure_verified()
    if args.what == "descent":
        return _emit_doc(lyio.dump_structure(descent_algebra(op)), fmt)
    if args.what == "post":
        return _emit_doc(lyio.dump_structure(induced_post_from_rrb(op)), fmt)
    doc = {"algebra": lyio.dump_structure(op.action.semidirect()),
           "N": lyio.dump_matrix(lift_operator(op))}
    return _emit_doc(doc, fmt)


def _cmd_cohomology(args, fmt):
    if args.degree < 1:
        raise FormatError("cohomology degrees start at 1")
    cx = TComplex(lyio.load_operator(args.op))
    # the witnesses first: the dims then read the echelons they built, tagged for Z^p
    coords = [_coordinates(c) for c in cx.cohomology_witnesses(args.degree)] \
        if args.witness else None
    z, b, h = cx.cohomology_dims(args.degree)
    data = {"degree": args.degree, "cocycles": z, "coboundaries": b, "cohomology": h}
    if args.witness:
        data["witnesses"] = coords
    return _emit_report(Report("cohomology(degree %d)" % args.degree,
                               "pass", [], data), fmt)


def _cmd_deform(args, fmt):
    op = lyio.load_operator(args.op)
    if args.what == "linear":
        if not args.t1:
            raise FormatError("deform linear: --t1 is required")
        T1 = lyio.load_matrix(args.t1)
        return _emit_report(check_linear_deformation(op, T1, args.all_violations), fmt)
    if args.what == "equiv":
        if not (args.t1 and args.t2 and args.x_file):
            raise FormatError("deform equiv: --t1, --t2 and --x are required")
        T1 = lyio.load_matrix(args.t1)
        T2 = lyio.load_matrix(args.t2)
        wedges = lyio.load_wedges(args.x_file)
        return _emit_report(check_equivalence(op, T1, T2, wedges,
                                              args.all_violations), fmt)
    if not args.terms:
        raise FormatError("deform obstruct: --terms is required")
    d = OrderNDeformation(op, [lyio.load_matrix(f) for f in args.terms])
    try:
        ob = obstruction_class(d)
    except InvalidDeformation as e:
        rep = Report("obstruction(order %d)" % d.order, "fail", [],
                     {"error": str(e)})
        return _emit_report(rep, fmt)
    # ob_I and ob_II are the value vectors of the f and g blocks, n wide
    c = ob.as_cochain
    row, n, f = _coordinates(c), c.n, c.layout.f_blocks
    vecs = [row[b * n:(b + 1) * n] for b in range(c.layout.blocks)]
    data = {"order": d.order, "ob_I": vecs[:f], "ob_II": vecs[f:], "closed": ob.closed}
    verdict = "pass" if ob.closed else "fail"
    if args.extend:
        t_next, erep = extend(d)
        data.update(erep.data)
        if t_next is not None:
            data["t_next"] = lyio.dump_matrix(t_next)
        else:
            verdict = "fail"
    return _emit_report(Report("obstruction(order %d)" % d.order,
                               verdict, [], data), fmt)


def run(argv):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    fmt = "json" if args.json else args.format
    try:
        try:
            code = {"check": _cmd_check, "construct": _cmd_construct,
                    "cohomology": _cmd_cohomology, "deform": _cmd_deform}[args.command](args, fmt)
        except AxiomsFailed as e:
            if e.report is not None:
                _emit_report(e.report, fmt)
            else:
                print("error: %s" % e, file=sys.stderr)
            code = 1
        sys.stdout.flush()      # a buffered report to a full or closed stdout fails here
        return code
    except (LyalgError, OSError) as e:     # OSError: a closed stdout, say
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:     # what run could not write stays buffered: drop it, or exit retries it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
