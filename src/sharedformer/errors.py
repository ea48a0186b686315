"""Exception hierarchy shared across the package.

CLI exit codes map onto these: InputError (FormatError included), ContractError,
ConfigError and DimensionError -> 2; OSError -> 3; DivergenceError -> 4;
InvariantError and any other SharedformerError -> 5.
"""


class SharedformerError(Exception):
    pass


class DimensionError(SharedformerError):
    """Tensor shapes incompatible with the requested operation."""


class ContractError(SharedformerError):
    """A documented precondition of an operation was violated."""


class ConfigError(SharedformerError):
    """Invalid configuration value or combination."""


class InputError(SharedformerError):
    """Bad user-supplied data (files, labels, paths)."""


class FormatError(InputError):
    """Malformed binary file. Carries the byte offset where decoding failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(SharedformerError):
    """NaN/Inf encountered where finite values are required."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""


class InvariantError(SharedformerError):
    """An internal consistency check failed."""
