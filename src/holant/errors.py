"""Exception types shared across the package."""


class HolantError(Exception):
    """Base class for errors raised by this package."""


class ArgumentError(HolantError, ValueError):
    """Invalid argument (bad arity, malformed input, precondition violation)."""


class GuardExceeded(HolantError, RuntimeError):
    """A work guard (edge count, contraction size, dangling count, truncation order) was
    exceeded, or a numerical step failed on valid input: the run is refused."""


class ExceptionalSignature(ArgumentError):
    """Both end entries are zero; the signature needs the exceptional-case path."""


class InconsistentRecurrence(ArgumentError):
    """A recurrence triple does not actually reproduce the signature."""


class AsymmetricGadget(HolantError, RuntimeError):
    """A gadget composition produced a non-symmetric effective signature."""


class CastError(HolantError, ValueError):
    """Imaginary residue too large to cast a transformed signature to reals."""
