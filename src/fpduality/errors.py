"""Exception taxonomy shared by the whole package."""


class AlgebraError(Exception):
    """Base class for all library errors."""

    kind = "error"


class ZeroInverse(AlgebraError):
    kind = "ZeroInverse"


class RingMismatch(AlgebraError):
    kind = "RingMismatch"


class DegreeBudgetExceeded(AlgebraError):
    kind = "DegreeBudgetExceeded"


class SizeCapExceeded(AlgebraError):
    kind = "SizeCapExceeded"


class NotPGenerating(AlgebraError):
    kind = "NotPGenerating"


class NoPBasis(AlgebraError):
    kind = "NoPBasis"


class NotMaximal(AlgebraError):
    kind = "NotMaximal"


class NotGraded(AlgebraError):
    kind = "NotGraded"


class NotRegularSequence(AlgebraError):
    kind = "NotRegularSequence"


class NotSurjective(AlgebraError):
    kind = "NotSurjective"


class NotFinite(AlgebraError):
    kind = "NotFinite"


class NotCertifiedRegular(AlgebraError):
    kind = "NotCertifiedRegular"


class CanonicalNotTop(AlgebraError):
    kind = "CanonicalNotTop"


class ZeroRing(AlgebraError):
    kind = "ZeroRing"


class SplittingNotFound(AlgebraError):
    kind = "SplittingNotFound"


class ParseError(AlgebraError):
    kind = "ParseError"


class SessionNameError(AlgebraError):
    kind = "NameError"
