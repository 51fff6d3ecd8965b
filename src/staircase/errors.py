"""Exception types shared across the package."""

from __future__ import annotations


class StaircaseError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(StaircaseError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class MalformedPermutationError(DomainError):
    """A sequence is not a rearrangement of 1..n."""


class InvalidIdentityError(DomainError):
    """A pair of multisets cannot form a partition identity."""


class ResourceLimitError(StaircaseError, RuntimeError):
    """A size or search cap of an engine was exceeded.

    ``partial`` carries whatever was computed before the cap hit, when the
    operation can say something useful about it; otherwise it is None.
    """

    def __init__(self, message: str, partial: object = None):
        super().__init__(message)
        self.partial = partial
