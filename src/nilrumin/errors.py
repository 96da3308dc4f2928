"""Named error types.

Every validation failure raises an exception whose class name identifies the
violated contract and whose message names the offending datum (basis triple,
matrix entry, index, ...).  The CLI maps ValidationError to exit code 1 and
ParseError to exit code 2.
"""


class ValidationError(ValueError):
    """Base class for all domain validation failures."""


# -- graded Lie algebras ------------------------------------------------------

class AntisymmetryViolation(ValidationError):
    pass


class JacobiViolation(ValidationError):
    pass


class GradingViolation(ValidationError):
    pass


class ZeroScale(ValidationError):
    pass


class DegenerateGenerators(ValidationError):
    pass


class DependentVectors(ValidationError):
    pass


# -- inner products and cohomology --------------------------------------------

class NotPositiveDefinite(ValidationError):
    pass


class DegenerateMetric(ValidationError):
    pass


class NotPure(ValidationError):
    pass


# -- universal enveloping algebra / Rumin complex ------------------------------

class AlgebraMismatch(ValidationError):
    pass


# -- purity sieve --------------------------------------------------------------

class OutOfRange(ValidationError):
    pass


class EmptyRange(ValidationError):
    pass


# -- finite-dimensional torsion -------------------------------------------------

class ExponentConstraintViolated(ValidationError):
    pass


class ConstraintViolated(ValidationError):
    pass


class CutoffOnSpectrum(ValidationError):
    pass


class NotAcyclic(ValidationError):
    pass


class InvalidRepresentatives(ValidationError):
    pass


class NotFloatRepresentable(ValidationError):
    pass


# -- nilpotent group --------------------------------------------------------------

class NotUnimodular(ValidationError):
    pass


class BadGeneratorShape(ValidationError):
    pass


# -- CLI ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Malformed input file; carries line/column when available."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
