"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SeqrelError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SeqrelError):
    """Malformed field/order/monomial/polynomial/config text."""


class FieldMismatchError(SeqrelError):
    """Arithmetic attempted between elements of different fields."""


class UnsupportedOrderError(SeqrelError):
    """The order is not a well-order, or a bound's down-set is infinite."""


class BoundExceededError(SeqrelError):
    """A finite table was queried outside its range.

    `index` is the offending index vector; `needed_shape` the minimal table
    shape that would have satisfied the query.
    """

    def __init__(self, index: tuple[int, ...], shape: tuple[int, ...]):
        self.index = tuple(index)
        self.needed_shape = tuple(i + 1 for i in index)
        self.shape = tuple(shape)
        super().__init__(
            f"table of shape {self.shape} has no entry at index {self.index}; "
            f"a table of shape at least {self.needed_shape} is needed"
        )


class PositiveDimensionError(SeqrelError):
    """A zero-dimensional ideal was required (staircase not closed)."""


class NotGroebnerError(SeqrelError):
    """Ideal input is not a Gröbner basis under the order: its multiplication
    matrices on the staircase do not commute."""
