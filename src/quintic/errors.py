"""Exception hierarchy with machine-readable codes.

Every error carries a stable ``code`` string (surfaced by the CLI) and an
``exit_code``: 2 for bad input or data, 1 for internal invariant failures.
"""

from __future__ import annotations


class QuinticError(Exception):
    code = "internal-error"
    exit_code = 1


class InputError(QuinticError):
    code = "input-error"
    exit_code = 2


class NotFifthPowerFree(InputError):
    code = "not-fifth-power-free"


class FactorizationError(InputError):
    """Raised when an integer cannot be factored with certified prime factors."""

    code = "uncertified-factorization"
    #: (smooth part as {prime: exponent}, rest) when raised by intarith.factorize
    split = None


class BoundExceeded(InputError):
    code = "desk-bound-exceeded"
    #: (smooth part as {prime: exponent}, rest) when raised by intarith.factorize
    split = None


class SymbolUndefined(InputError):
    """Quintic symbols are not defined at the ramified prime above 5."""

    code = "symbol-undefined-at-lambda"


class NotCoprime(InputError):
    code = "not-coprime"


class FieldTooLarge(InputError):
    code = "field-too-large"


class ContradictionWitness(InputError):
    """Supplied class-number data is inconsistent with the genus-field count."""

    code = "contradiction-witness"


class NoPrimaryAssociate(QuinticError):
    """Bounded unit search found no associate congruent to a rational residue."""

    code = "no-primary-associate"


class QstarOutOfRange(QuinticError):
    code = "qstar-out-of-range"


class NoAdmissibleGenerator(QuinticError):
    """No Kummer generator of the expected shape passed the admissibility filter."""

    code = "no-admissible-generator"


class ModelInvariantError(QuinticError):
    code = "model-invariant-violated"


class InternalCheckError(QuinticError):
    code = "internal-check-failed"
