"""Shared exception types.

The split matters for the command line front end: parse problems, domain
(precondition) problems, and insufficient series order map to distinct
exit codes, while InternalError always indicates a bug in this library.
"""

from __future__ import annotations


class TriderivError(Exception):
    """Base class for every error raised by this library."""


class DomainError(TriderivError):
    """An input violates a documented precondition."""


class DegreeCapError(DomainError):
    """A term would pass total degree 65534, the packed key's limit."""

    def __init__(self, message: str, degree: int | None = None,
                 cap: int | None = None):
        super().__init__(message)
        self.degree = degree
        self.cap = cap


class TruncationError(TriderivError):
    """A series query needs coefficients beyond the stored order."""

    def __init__(self, message: str, required: int | None = None,
                 available: int | None = None):
        super().__init__(message)
        self.required = required
        self.available = available


class InternalError(TriderivError):
    """An identity the implementation relies on failed to hold."""


class DslError(TriderivError):
    """Base class for text parsing errors; carries a source span."""

    def __init__(self, message: str, start: int, end: int):
        super().__init__(f"{message} at {start}..{end}")
        self.reason = message
        self.start = start
        self.end = end


class ParseError(DslError):
    """The input does not match the grammar."""


class SemanticError(DslError):
    """The input parses but denotes no valid value (e.g. a d2 term using x2)."""
