"""Exception types shared across the package."""


class LyalgError(Exception):
    """Base class for all package errors."""


class DimMismatch(LyalgError):
    """Vector/matrix shapes do not match the algebras they connect."""


class ShapeMismatch(DimMismatch):
    """Cochain or tensor arrays have the wrong length."""


class Inconsistent(LyalgError):
    """Linear system has no solution (b outside the column space); ``rank``
    and ``rank_augmented`` are the ranks of its rows without and with b."""

    def __init__(self, message, rank=None, rank_augmented=None):
        super().__init__(message)
        self.rank, self.rank_augmented = rank, rank_augmented


class AmbientMismatch(LyalgError):
    """Subspaces live in different ambient dimensions."""


class StructureError(LyalgError):
    """Structure tensors violate a required symmetry."""


class NotLieAlgebra(LyalgError):
    """Binary tensor fails antisymmetry or the Jacobi identity."""


class AxiomsFailed(LyalgError):
    """A construction's input or output fails its defining axioms."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotAnAction(AxiomsFailed):
    """Representation is not certified as an action."""


class Unverified(AxiomsFailed):
    """Operator has not passed (or fails) its defining equations."""


class PreconditionFailed(LyalgError):
    """A named hypothesis of a construction does not hold."""

    def __init__(self, hypothesis, message=""):
        super().__init__(message or hypothesis)
        self.hypothesis = hypothesis


class FormatError(LyalgError):
    """Malformed input file: bad JSON, missing field, or out-of-range index."""


class NotInvertible(LyalgError):
    """A map required to be invertible is singular."""


class InvalidDeformation(LyalgError):
    """Deformation data fails the order-n equations it presupposes."""


class TooLarge(LyalgError):
    """A requested computation exceeds a documented size budget."""
