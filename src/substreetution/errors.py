"""Exception types shared across the package."""


class SubstreetutionError(Exception):
    """Base class for all structured errors raised by this package."""


class AddressTooDeep(SubstreetutionError):
    """An address or level index reaches below the available depth."""


class DepthMismatch(SubstreetutionError):
    """Two patches were expected to have equal depth."""


class BadPatchFormat(SubstreetutionError):
    """Malformed patch data (levels or text format)."""


class BadSystemFormat(SubstreetutionError):
    """Unparseable or unsupported substitution description."""


class NotFixable(SubstreetutionError):
    """The requested root color is not fixed by the substitution."""


class OddLength(SubstreetutionError):
    """The source map needs an even-length address."""


class NotInImage(SubstreetutionError):
    """A patch is not consistent with being an image of the substitution."""


class NotPowerOfTwo(SubstreetutionError):
    """Line words must have length a power of two."""


class NonPositive(SubstreetutionError):
    """A strictly positive integer was expected."""


class NonIntegerResult(SubstreetutionError):
    """An exact count formula unexpectedly produced a non-integer."""


class Shallow(SubstreetutionError):
    """The patch is too shallow for the requested operation."""


class Inconsistent(SubstreetutionError):
    """The patch cannot come from the analyzed invariant set."""


class TypeUndetermined(SubstreetutionError):
    """The dyadic type could not be pinned down at the available depth."""


class Undetermined(SubstreetutionError):
    """Several classification cases remain consistent at the available depth.

    Carries the still-consistent alternatives so callers can fall back to
    a union of their predictions.
    """

    def __init__(self, message, cases=()):
        super().__init__(message)
        self.cases = tuple(cases)


class NotClosed(SubstreetutionError):
    """Orbit closure did not stabilize at the identification depth."""


class NonConstantLevel(SubstreetutionError):
    """A projection to a sequence needs every level to be monochromatic."""


class MalformedGraph(SubstreetutionError):
    """An orbit graph is missing states or edges."""
