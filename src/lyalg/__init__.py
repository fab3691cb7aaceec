"""Exact arithmetic for Lie-Yamaguti algebras: axioms, representations,
weight-1 relative Rota-Baxter operators, post-algebras, cohomology and
deformations."""

from .cohomology import (Cochain, TComplex, coboundary_matrix_for,
                         induced_rep, pair_basis, pushforward_cochain,
                         wedge_coords, yamaguti_coboundary, zero_cochain_map)
from .core import (LYAlgebra, abelian, center, check_homomorphism,
                   check_ly_axioms, derived_algebra, direct_sum,
                   from_lie_algebra)
from .deformation import (ObstructionClass, OrderNDeformation,
                          binary_coefficient, check_equivalence,
                          check_linear_deformation, check_order_n,
                          difference_class, extend, obstruction_class,
                          ternary_coefficient)
from .errors import (AmbientMismatch, AxiomsFailed, DimMismatch, FormatError,
                     Inconsistent, InvalidDeformation, LyalgError,
                     NotAnAction, NotInvertible, NotLieAlgebra,
                     PreconditionFailed, ShapeMismatch, StructureError,
                     TooLarge, Unverified)
from .linalg import SparseMat, Subspace, Tensor, contract, frac, format_frac
from .postlya import (PostLYAlgebra, check_post_axioms,
                      check_post_homomorphism, identity_is_rrb,
                      induced_action, induced_post_from_rrb, subadjacent,
                      zero_post)
from .reports import Report, Violation
from .reps import (RepAction, adjoint_rep, check_action,
                   check_lemma_identities, check_representation, derive_D,
                   semidirect_product)
from .rrb import (HomPair, RRBOperator, check_nijenhuis, check_rrb,
                  check_rrb_homomorphism, descent_algebra,
                  graph_subalgebra_check, lift_operator, projection_operator)

__version__ = "0.1.0"
