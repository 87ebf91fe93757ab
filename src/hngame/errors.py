"""Exception taxonomy shared by all hngame modules."""


class HNGameError(Exception):
    """Base class for every error raised by this package."""


class UnknownLabel(HNGameError):
    """A relation pair, payoff entry, or map references an undeclared label."""


class CycleError(HNGameError):
    """Transitive closure of the input pairs violates antisymmetry."""


class NotALattice(HNGameError):
    """Some pair of elements has no greatest lower or least upper bound."""

    def __init__(self, x, y, missing):
        self.pair = (x, y)
        self.missing = missing
        super().__init__(f"pair ({x}, {y}) has no {missing}")


class NoBounds(HNGameError):
    """The poset has no global least or greatest element."""


class TrivialLattice(HNGameError):
    """The least and greatest elements coincide."""


class NotStrict(HNGameError):
    """An operation required a strict pair lo < hi."""


class NotAnEmbedding(HNGameError):
    """A map fails injectivity or order-reflection."""


class NotAChain(HNGameError):
    """Elements expected to form a strict chain do not."""


class NotAntitone(HNGameError):
    """A sequence expected to be weakly decreasing is not."""


class MissingBottom(HNGameError):
    """A compressible sequence never reaches the least element."""


class PreconditionFailed(HNGameError):
    """A documented hypothesis of the requested operation does not hold."""

    def __init__(self, hypothesis, detail=""):
        self.hypothesis = hypothesis
        msg = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(msg)


class MalformedFiltration(HNGameError):
    """A filtration is not a strict bottom-to-top (or top-to-bottom) chain."""


class TooLarge(HNGameError):
    """Input exceeds the guard for a brute-force enumeration."""


class AdditivityViolation(HNGameError):
    """Rank/degree tables fail additivity on a chain triple."""

    def __init__(self, table, x, y, z):
        self.table = table
        self.triple = (x, y, z)
        super().__init__(f"{table} not additive on the chain {x} < {y} < {z}")


class NegativeRank(HNGameError, ValueError):
    """A rank table or rank potential gives some pair a negative rank."""


class ZeroRankNonpositiveDegree(HNGameError):
    """A pair has rank zero but non-positive degree."""

    def __init__(self, x, y):
        self.pair = (x, y)
        super().__init__(f"rank({x}, {y}) = 0 requires degree({x}, {y}) > 0")


class TrivialModule(HNGameError):
    """Associated primes requested for a group of order one."""


class SchemaError(HNGameError):
    """An input document does not conform to the published schema."""

    def __init__(self, message, field=None, line=None):
        self.field = field
        self.line = line
        loc = []
        if field is not None:
            loc.append(f"field {field}")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)


class TheoremViolation(HNGameError):
    """A consequence guaranteed by a verified hypothesis set failed.

    Raising this is a red-flag diagnostic: either the library has a bug or
    the hypotheses were not actually satisfied.  It is never expected in
    normal operation.
    """


class EmptySt(TheoremViolation):
    """The maximal-destabilizer set came back empty under valid hypotheses."""


class NoGreatest(TheoremViolation):
    """The maximal-destabilizer set has no greatest element."""


class JHNotFound(TheoremViolation):
    """Exhaustive search found no Jordan-Hölder filtration despite the
    hypotheses guaranteeing one."""
