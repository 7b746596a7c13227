"""Exception types raised by the toolkit."""


class SchurkitError(Exception):
    """Base class for all toolkit errors."""


class IndefiniteBeyondTolerance(SchurkitError):
    """Matrix expected to be PSD has an eigenvalue below -eq_abs."""


class AmbientMismatch(SchurkitError):
    """Subspaces live in different ambient dimensions."""


class ShapeMismatch(SchurkitError):
    """Operand shapes are inconsistent."""


class DimMismatch(SchurkitError):
    """Systems have incompatible input/output dimensions."""


class NotContraction(SchurkitError):
    """Operator norm exceeds 1 beyond tolerance."""


class NotUnitary(SchurkitError):
    """Matrix expected to be unitary is not."""


class NotCNU(SchurkitError):
    """Contraction has a nontrivial unitary reducing part."""


class NotSimpleConservative(SchurkitError):
    """System is not simultaneously simple and conservative."""


class OutsideDisk(SchurkitError):
    """Evaluation point lies outside the open unit disk."""


class SingularPencil(SchurkitError):
    """-1 is (numerically) an eigenvalue of T*Z."""


class UnitaryParameter(SchurkitError):
    """Schur parameter is unitary; the iteration has terminated."""


class UnitaryTheta0(SchurkitError):
    """Theta(0) is unitary; no first iterate exists."""


class Terminated(SchurkitError):
    """Requested iterate lies beyond the termination step."""


class InvalidSequence(SchurkitError):
    """Choice-sequence shape chain is broken."""


class RangeInclusionViolated(SchurkitError):
    """A pseudo-inverse chain left its guaranteed range; rank decisions are suspect."""


class RankInconsistency(SchurkitError):
    """Two rank computations that must agree did not."""
