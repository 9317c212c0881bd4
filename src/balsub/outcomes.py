"""Shared exception types, builder failure values, and validation reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class EmptyGraphError(ValueError):
    """Operation requires a graph with at least one vertex."""


class InvalidVertexError(ValueError):
    """A vertex id falls outside the host graph."""


class InvalidArgumentError(ValueError):
    """Arguments violate an operation's contract."""


class TooLargeError(ValueError):
    """Instance exceeds a configured exhaustive-search cap."""


class DensityTooLowError(ValueError):
    """Average degree is below the threshold the operation requires."""


class SearchBudgetExceeded(Exception):
    """A bounded search spent its node budget before it could either
    produce an answer or prove that none exists."""


@dataclass(frozen=True)
class BuildFailure:
    """Returned when a builder gives up honestly instead of raising.

    `reason` is a stable machine-readable tag; `partial` may carry whatever
    incomplete structure the builder had when it stalled.
    """

    reason: str
    detail: str = ""
    partial: Any = None

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Clause:
    """One named check inside a validation report."""

    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validator, one clause per definitional rule."""

    clauses: tuple[Clause, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if not c.passed)

    def clause(self, name: str) -> Clause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)
