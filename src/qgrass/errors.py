"""Exception types shared across the package."""


class QGrassError(ValueError):
    """Base class for every domain error raised by this package."""


class NotWeaklyDecreasing(QGrassError):
    """Parts of a partition must be weakly decreasing."""


class NegativePart(QGrassError):
    """Parts of a partition must be nonnegative."""


class NonIntegerPart(QGrassError):
    """Parts of a partition must be of type int."""


class DoesNotFitBox(QGrassError):
    """Partition does not fit inside the k x (n-k) box of the context."""


class IndexOutOfRange(QGrassError):
    """Index argument outside its documented range."""


class ContextMismatch(QGrassError):
    """Operands were built over different (k, n) contexts."""


class NotContained(QGrassError):
    """Skew shape requires the inner partition to sit inside the outer one."""


class VarMismatch(QGrassError):
    """Schur expansions need a number of variables >= 0, the same for both operands."""


class NotToric(QGrassError):
    """Operation requires a toric shape."""


class TooManyRows(QGrassError):
    """Partition has more rows than the context allows."""


class FormMismatch(QGrassError):
    """Two formulas that must agree produced different values."""
