"""Exception hierarchy shared by all modules."""


class MmsplabError(Exception):
    """Base class for all package errors."""


# -- field construction ------------------------------------------------------

class NotPrime(MmsplabError):
    pass


class ReduciblePolynomial(MmsplabError):
    pass


class DivisionByZero(MmsplabError, ZeroDivisionError):
    pass


class NoTower(MmsplabError):
    pass


class TowerTooShallow(MmsplabError):
    pass


# -- linear algebra ----------------------------------------------------------

class DimensionMismatch(MmsplabError):
    pass


class OddLength(MmsplabError):
    pass


class IndexOutOfRange(MmsplabError, IndexError):
    pass


class TooManyColumns(MmsplabError):
    pass


class NotSelfOrthogonal(MmsplabError):
    pass


class RankDeficient(MmsplabError):
    pass


# -- access structures -------------------------------------------------------

class BadThreshold(MmsplabError):
    pass


# -- MMSP / constructions ----------------------------------------------------

class ClassInvariantViolated(MmsplabError):
    pass


class OutOfRange(MmsplabError):
    pass


class ConstructionFailedVerification(MmsplabError):
    pass


# -- protocols ---------------------------------------------------------------

class NotQualified(MmsplabError):
    pass


class TooLarge(MmsplabError):
    pass


class BadIndex(MmsplabError):
    pass


def json_int(v, what: str) -> int:
    """v when JSON read it as an integer; 2.5, "2" and true are refused
    rather than rounded or coerced (bool is an int subclass, so the type
    is compared exactly)."""
    if type(v) is not int:
        raise BadIndex(f"{what} {v!r} is not an integer")
    return v


class ClassMismatch(MmsplabError):
    pass


class NonStandardQuery(MmsplabError):
    pass


# -- quantum backend ---------------------------------------------------------

class NonPrimeLocalDim(MmsplabError):
    pass


class NotMaximalIsotropic(MmsplabError):
    pass


class NoFixedVector(MmsplabError):
    pass


class IncompletePovm(MmsplabError):
    pass


class BadRegisters(MmsplabError):
    pass

