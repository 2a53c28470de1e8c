"""Exception types shared across the library."""


class AlgebraError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(AlgebraError):
    """Operands belong to different algebras or have inconsistent sizes."""


class InvalidAlgebra(AlgebraError):
    """Structure constants fail the associativity or unit axioms."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SingularMatrix(AlgebraError):
    """Inversion attempted on a rank-deficient matrix."""


class UnsupportedField(AlgebraError):
    """The ground field violates an algorithm's characteristic restrictions."""


class NotSelfInjectiveLike(AlgebraError):
    """Some projective has a socle that is zero or meets several classes."""


class WitnessNotFound(AlgebraError):
    """No basis element of a copy corner is an isomorphism; signals an
    upstream grouping bug."""


class NotFrobenius(AlgebraError):
    """No admissible counit candidate yields an invertible Gram matrix."""


class SingularGram(AlgebraError):
    """The Gram matrix of a counit is not invertible."""


class NotInvertible(AlgebraError):
    """Element expected to be a unit is not."""


class NotBasic(AlgebraError):
    """Operation requires a decomposition with all multiplicities one."""


class IndexOutOfRange(AlgebraError):
    """Copy index outside the multiplicity range."""


class BadBlockSupport(AlgebraError):
    """Tensor support violates the required corner pattern."""


class NotBijection(AlgebraError):
    """Subset data is not the graph of a bijection."""


class BadParams(AlgebraError):
    """Invalid generator or CLI parameters."""
