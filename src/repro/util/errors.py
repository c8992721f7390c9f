"""Error types shared across the package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ProtocolError(ReproError):
    """A protocol invariant was violated (bug or corrupted input)."""


class ConfigurationError(ReproError):
    """Invalid user-supplied configuration."""


class CodecError(ReproError):
    """A wire message could not be encoded or decoded."""


class FaultError(ReproError):
    """A fault-injection request was invalid (unknown pid, bad plan,
    or an unsupported operation for the targeted cluster)."""
