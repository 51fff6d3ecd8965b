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

    Every cap says the same thing: ``count`` units of ``what`` (a plural
    noun) went past ``cap``, as in "10001 frontier states exceed the cap
    10000".  ``partial`` carries whatever was computed before the cap
    hit, when the operation can say something useful about it;
    otherwise it is None.
    """

    def __init__(self, count: int, cap: int, what: str, partial: object = None):
        super().__init__(f"{count} {what} exceed the cap {cap}")
        self.partial = partial
