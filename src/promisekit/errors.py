"""Exception types shared across the package."""
from __future__ import annotations


class PromiseModelError(Exception):
    """Base class for model construction and analysis errors."""


class DuplicateNameError(PromiseModelError):
    """An agent, type, flag, or bundle name was declared twice."""


class DanglingReferenceError(PromiseModelError):
    """A promise or bundle refers to something that is not declared."""


class BundleCycleError(PromiseModelError):
    """Bundle inheritance chains must be acyclic.  ``cycle`` names the
    bundles around the cycle, first to last, and then the first again."""

    def __init__(self, cycle: tuple[str, ...]) -> None:
        super().__init__(f"bundle inheritance cycle: {' -> '.join(cycle)}")
        self.cycle = cycle


class InvalidBodyError(PromiseModelError):
    """A promise body violates a structural rule (e.g. constraints on use)."""


class UnsatisfiableError(PromiseModelError):
    """An operation required a satisfiable constraint set and did not get one."""
