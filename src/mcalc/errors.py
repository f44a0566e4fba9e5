"""Engine failures with stable machine-readable codes.

Every error the CLI can surface carries a ``code`` string that is part of the
machine output contract; exception class names mirror the codes.
"""

from __future__ import annotations


class EngineError(Exception):
    code = "ENGINE_ERROR"

    def __init__(self, message: str = "", **data):
        super().__init__(message or self.code)
        self.data = data


class FieldMismatch(EngineError):
    code = "FIELD_MISMATCH"


class DivisionByZero(EngineError):
    code = "DIVISION_BY_ZERO"


class BadCharacteristic(EngineError):
    code = "BAD_CHARACTERISTIC"


class UnknownFieldKind(EngineError):
    code = "UNKNOWN_FIELD_KIND"


class RingMismatch(EngineError):
    code = "RING_MISMATCH"


class UnitIdeal(EngineError):
    code = "UNIT_IDEAL"


class ImageNotInKernel(EngineError):
    code = "IMAGE_NOT_IN_KERNEL"


class MapNotWellDefined(EngineError):
    code = "MAP_NOT_WELL_DEFINED"


class SaturationCapExceeded(EngineError):
    code = "SATURATION_CAP"


class DimensionDropViolated(EngineError):
    code = "DIMENSION_DROP_VIOLATED"


class NotFiniteColength(EngineError):
    code = "NOT_FINITE_COLENGTH"


class SupportNotAtOrigin(EngineError):
    code = "SUPPORT_NOT_AT_ORIGIN"


class InfiniteHomology(EngineError):
    code = "INFINITE_HOMOLOGY"


class HypothesisFails(EngineError):
    code = "HYPOTHESIS_FAILS"


class NotDimensionOne(EngineError):
    code = "NOT_DIMENSION_ONE"


class NotParameter(EngineError):
    code = "NOT_PARAMETER"


class NoStabilization(EngineError):
    code = "NO_STABILIZATION"


class UnknownScenario(EngineError):
    code = "UNKNOWN_SCENARIO"


class ExponentTooLarge(EngineError):
    code = "EXPONENT_TOO_LARGE"


class CoefficientTooLarge(EngineError):
    code = "COEFFICIENT_TOO_LARGE"


# Invalid-argument errors stay ValueErrors for library callers.

class OutOfRange(EngineError, ValueError):
    code = "OUT_OF_RANGE"


class BadOrder(EngineError, ValueError):
    code = "BAD_ORDER"


class BadVariables(EngineError, ValueError):
    code = "BAD_VARIABLES"


class QuotientNotAtOrigin(EngineError, ValueError):
    code = "QUOTIENT_NOT_AT_ORIGIN"


class ParseError(EngineError):
    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line})" if column is None else f" (line {line}, column {column})"
        elif column is not None:
            loc = f" (column {column})"
        super().__init__(message + loc, line=line, column=column)
        self.line = line
        self.column = column
