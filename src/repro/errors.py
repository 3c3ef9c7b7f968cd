"""Exception hierarchy for the MECC reproduction library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Decode failures carry enough context (syndrome weight,
estimated error count) to be useful in fault-injection studies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of supported range."""


class EccError(ReproError):
    """Base class for ECC encode/decode errors."""


class EncodingError(EccError):
    """The data block cannot be encoded (e.g. wrong length)."""


class DecodingError(EccError):
    """The codeword could not be decoded.

    Raised when the decoder *detects* an uncorrectable pattern.  Note that,
    as with real BCH/Hamming hardware, error patterns beyond the code's
    guaranteed detection capability may be silently miscorrected instead.
    """

    def __init__(self, message: str, *, detected_errors: int | None = None):
        super().__init__(message)
        self.detected_errors = detected_errors


class UncorrectableError(DecodingError):
    """A detected-but-uncorrectable error pattern (e.g. DED in SEC-DED)."""


class ModeBitError(ReproError):
    """The replicated ECC-mode bits could not be resolved to a valid mode."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class JobExecutionError(ReproError):
    """One or more experiment-runner jobs failed.

    A job fails when it raises, or when the worker process running it
    dies.  Raised *after* every other job of the sweep has completed
    (and been cached), so re-running the sweep over the same cache runs
    only the failed jobs.

    Attributes:
        failures: list of ``(job_label, exception)`` pairs.
    """

    def __init__(self, message: str, *, failures: list | None = None):
        super().__init__(message)
        self.failures = failures or []


class TraceError(ReproError):
    """A trace file or trace record is malformed."""

