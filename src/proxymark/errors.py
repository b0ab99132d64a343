"""Exception types shared across the package."""


class ProxymarkError(Exception):
    """Base class for package errors."""


class InputError(ProxymarkError, ValueError):
    """Invalid argument (dimension mismatch, out-of-range value, ...)."""


class TrainingDivergedError(ProxymarkError):
    """Loss became NaN/Inf during an optimization run."""


class DatasetParseError(ProxymarkError):
    """Malformed CSV dataset. Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NoCandidateFoundError(ProxymarkError):
    """Trigger candidate search exhausted its attempt cap."""


class BallTooTightError(ProxymarkError):
    """Proxy rejection sampling failed repeatedly under the accuracy gap."""


class InsufficientTransferabilityError(ProxymarkError):
    """Verification ran out of candidates before collecting n samples.

    Carries the partial trigger set, whose stats say how far the run got.
    """

    def __init__(self, message, partial_set=None):
        super().__init__(message)
        self.partial_set = partial_set


class DegenerateRuleError(ProxymarkError):
    """Ownership decision rule is degenerate (no midpoint strictly inside (baseline, p_hat))."""


class CheckpointFormatError(ProxymarkError):
    """Bad magic, truncated payload, or unsupported checkpoint version."""


class ConfigError(ProxymarkError):
    """Invalid or unknown experiment configuration key/value."""


class TriggerSetFormatError(ProxymarkError):
    """Trigger-set manifest and blob disagree, or the manifest is malformed."""
