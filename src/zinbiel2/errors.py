"""Exception hierarchy shared by all modules."""


class Zinbiel2Error(Exception):
    """Base class for all library errors."""


class DimError(Zinbiel2Error):
    """Operands have incompatible dimensions."""


class FieldMismatch(Zinbiel2Error):
    """Operands live over different fields."""


class DivisionByZero(Zinbiel2Error, ZeroDivisionError):
    """Inversion of the zero field element."""


class PreconditionError(Zinbiel2Error):
    """A checked precondition failed; carries the offending report when available."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class _WitnessError(Zinbiel2Error):
    """A failed structural claim; carries a witness when one is available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SubalgebraError(_WitnessError):
    """A subspace claimed to be a subalgebra is not closed; carries a witness."""


class NotAnIdeal(_WitnessError):
    """Two-sided ideal closure failed; carries a witness."""


class NotComplementary(Zinbiel2Error):
    """The two given subspaces do not span the ambient space as a direct sum."""


class NotSubalgebra(_WitnessError):
    """A factor image is not closed under the ambient operations."""


class ObstructionNonzero(_WitnessError):
    """Extraction produced a nonzero cocycle/sigma where the construction requires zero."""


class _CountError(Zinbiel2Error):
    """A search space over its budget; carries the exact candidate count."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class BudgetExceeded(_CountError):
    """An enumeration would exceed the configured candidate budget."""


class InfeasibleSearch(_CountError):
    """An exhaustive search space exceeds the configured budget."""


class SchemaError(Zinbiel2Error):
    """Input JSON does not match the expected schema; carries a location."""

    def __init__(self, message, path="$", filename=None):
        self.path = path
        self.filename = filename
        where = f"{filename}: " if filename else ""
        super().__init__(f"{where}{path}: {message}")
