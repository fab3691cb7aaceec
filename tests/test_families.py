"""What the generated corpus in ``families.py`` makes live: the induced
supports of each operator family, and both brackets of the reductive pair."""

import itertools
import random

import lyalg as L
from lyalg.cohomology import induced_rep
from lyalg.linalg import contract
from lyalg.postlya import induced_post_from_rrb
from lyalg.reps import adjoint_rep, check_action

from families import (heisenberg5_operator, live_post_operator, mixed_operator, p3_operator,
                      sl2_operator, sl3_cartan, square_zero_operator, two_step_operator)

# keys in the supports of rho_T, mu_T and D_T, and of the induced
# post-algebra's star and brace: an operator over the adjoint action of a
# two-step or Heisenberg algebra induces zero, and only the live post
# operator induces a live star and brace
INDUCED_KEYS = {
    "p3": (0, 0, 0, 0, 0),
    "heisenberg5-5163": (0, 0, 0, 0, 0),
    "two-step-5005": (0, 0, 0, 0, 0),
    "mixed-1901": (0, 0, 0, 0, 0),
    "sl2-5166": (4, 8, 0, 0, 0),
    "square-zero-5102": (6, 18, 12, 0, 0),
    "live-post": (3, 1, 2, 3, 1),
}

OPERATORS = {
    "p3": p3_operator,
    "heisenberg5-5163": lambda: heisenberg5_operator(random.Random(5163)),
    "two-step-5005": lambda: two_step_operator(random.Random(5005), 3, 1, 1),
    "mixed-1901": lambda: mixed_operator(1901),
    "sl2-5166": lambda: sl2_operator(random.Random(5166)),
    "square-zero-5102": lambda: square_zero_operator(random.Random(5102), 4, 3, 2),
    "live-post": live_post_operator,
}


def test_each_operator_family_induces_its_live_supports():
    got = {}
    for name, build in OPERATORS.items():
        op = build()
        r, P = induced_rep(op), induced_post_from_rrb(op)
        got[name] = tuple(len(t.support) for t in (r.rho, r.mu, r.derived_D, P.star, P.brace))
    assert got == INDUCED_KEYS


def test_sl3_cartan_is_live_and_not_two_step():
    """Both brackets are live, [[x,y],z] is live at 24 basis triples, and the
    center is 0, so the adjoint representation is not an action."""
    A = sl3_cartan()
    assert (A.dim, len(A.binary.support), len(A.ternary.support)) == (6, 12, 36)
    assert sum(any(contract(A.binary, contract(A.binary, x, y), z))
               for x, y, z in itertools.product(range(6), repeat=3)) == 24
    assert L.check_ly_axioms(A).passed
    assert L.center(A).dim == 0 and not check_action(adjoint_rep(A)).passed
