"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: validation failures exit 2,
inconsistent instances exit 3, numerical failures exit 4.
"""

from contextlib import contextmanager


class ValidationError(ValueError):
    """Malformed input: bad shapes, violated invariants, out-of-range parameters."""

    exit_code = 2


class InconsistencyError(ValidationError):
    """A pairwise feature difference falls outside the span of observed differences.

    Carries the first offending (state, action, action) triple as ``witness``.
    """

    exit_code = 3

    def __init__(self, message: str, witness: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class NumericalError(RuntimeError):
    """Numerical failure: a singular mass-weighted Gram matrix (a weighted
    singular value too small), non-convergence, broken identity."""

    exit_code = 4


@contextmanager
def refusing(verb: str, path):
    """Refuse an ``OSError`` raised in the block as ``cannot <verb> <file>: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot {verb} {exc.filename or path}: {exc.strerror}") from None
