"""Error taxonomy shared across the package."""


class NetinvError(Exception):
    pass


class ShapeError(NetinvError):
    """Tensor dimensions incompatible with the requested operation."""


class ContractError(NetinvError):
    """An API precondition or internal contract was violated."""


class DomainError(NetinvError):
    """Argument value outside its documented domain."""


class FormatError(NetinvError):
    """Malformed on-disk data (bad magic, truncation, CRC mismatch)."""


class ConfigError(NetinvError):
    """Invalid run configuration; message lists every offending key."""


class DivergenceError(NetinvError):
    """Training diverged: accuracy fell below chance, or a loss or a
    classifier output went non-finite."""
