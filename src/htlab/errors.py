"""Exception types shared across the laboratory."""


class LabError(Exception):
    pass


class NotPrime(LabError):
    pass


class NotEisenstein(LabError):
    pass


class NotAUnit(LabError):
    pass


class PrecisionExhausted(LabError):
    pass


class HorizonTooSmall(LabError):
    pass


class AxiomViolation(LabError):
    """An axiom failed: carries the axiom id and the offending word, what it fails on."""

    def __init__(self, axiom, word, detail=""):
        self.axiom = axiom
        self.word = word
        super().__init__(f"axiom {axiom} fails on {word!r} {detail}".rstrip())


class BadIndex(LabError):
    pass


class ValidationFailure(LabError):
    pass


class CommutationFailure(ValidationFailure):
    def __init__(self, i, j, witness=None):
        self.i, self.j, self.witness = i, j, witness
        super().__init__(f"theta_{i} and theta_{j} do not commute (witness entry {witness})")


class BraidFailure(ValidationFailure):
    def __init__(self, i, witness=None):
        self.i, self.witness = i, witness
        super().__init__(f"[theta_{i}, phi] != beta*theta_{i} (witness entry {witness})")


class NilpotenceFailure(ValidationFailure):
    def __init__(self, i, witness=None):
        self.i, self.witness = i, witness
        super().__init__(f"theta_{i}^rank != 0 (witness entry {witness})")


class ClosedFormMismatch(LabError):
    def __init__(self, n, index, detail=""):
        self.n, self.index = n, index
        super().__init__(f"stratification coefficient ({n}, {index}) off closed form {detail}".rstrip())


class InsufficientPrecision(LabError):
    pass


class KernelRankDeficit(LabError):
    pass


class ParseError(LabError):
    pass
