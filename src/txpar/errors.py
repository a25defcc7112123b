"""Shared exception types, mapped to CLI exit codes by txpar.cli."""


class ValidationError(ValueError):
    """Bad inputs or parameters (CLI exit code 1)."""


class TraceParseError(ValidationError):
    """Malformed trace content; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SoundnessError(ValidationError):
    """A rewrite was requested that would change program semantics."""


class SizeLimitError(ValidationError):
    """Instance exceeds the limits of an exhaustive search."""


class InvariantViolation(RuntimeError):
    """A property the simulator guarantees was observed to fail (exit code 3)."""


def _check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise ValidationError unless `value` is an exact int (a bool is not
    one) of at least `minimum`, if one is given."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
