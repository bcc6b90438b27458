"""Exact scalars: rational numbers and real quadratic extensions Q(sqrt(D)).

Rational arithmetic is ``fractions.Fraction``.  ``QuadExt`` represents
``a + b*sqrt(D)`` for a fixed rational radicand ``D >= 0`` that is not a
rational square; a value automatically collapses to a ``Fraction`` whenever
the irrational part cancels or the radicand is a perfect square.  All
arithmetic is closed and exact, and the ordering of Q(sqrt(D)) as a subfield
of the reals is decidable, which is what the signature computations rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import RadicandMismatchError

Scalar = Union[int, Fraction, "QuadExt"]

_RAT = (int, Fraction)


def is_square(q: Fraction | int) -> bool:
    """True iff q is the square of a rational."""
    q = Fraction(q)
    if q < 0:
        return False
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


def rational_sqrt(q: Fraction | int) -> Fraction:
    """Exact square root of a perfect rational square."""
    q = Fraction(q)
    if not is_square(q):
        raise ValueError(f"{q} is not a rational square")
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


class QuadExt:
    """Element a + b*sqrt(d) of a real quadratic extension of Q.

    Instances are immutable.  Mixing two different radicands in one
    operation raises ``RadicandMismatchError``; the library never needs a
    general algebraic-number tower.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("QuadExt is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(a, b, d) -> Scalar:
        """Build a + b*sqrt(d), collapsing to Fraction when possible."""
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if b == 0 or d == 0:
            return a
        if is_square(d):
            return a + b * rational_sqrt(d)
        return QuadExt(a, b, d)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise RadicandMismatchError(
                    f"cannot combine sqrt({self.d}) with sqrt({other.d})"
                )
            return other
        if isinstance(other, _RAT):
            return QuadExt(Fraction(other), 0, self.d)
        raise TypeError(f"unsupported scalar {other!r}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt.make(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadExt.make(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("not invertible")
        return QuadExt.make(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) as a real number."""
        if self.b == 0:
            return _rat_sign(self.a)
        if self.a == 0:
            return _rat_sign(self.b)
        sa, sb = _rat_sign(self.a), _rat_sign(self.b)
        if sa == sb:
            return sa
        # opposite signs: compare a^2 with b^2 d
        return sa * _rat_sign(self.a * self.a - self.b * self.b * self.d)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, _RAT):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not (self.a == 0 and self.b == 0)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


def _rat_sign(q: Fraction) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def scalar_sign(x: Scalar) -> int:
    """Exact sign (-1, 0, 1) of a rational or quadratic-extension scalar."""
    if isinstance(x, QuadExt):
        return x.sign()
    return _rat_sign(Fraction(x))


def scalar_abs(x: Scalar) -> Scalar:
    return -x if scalar_sign(x) < 0 else x


def scalar_is_zero(x: Scalar) -> bool:
    if isinstance(x, QuadExt):
        return x.a == 0 and x.b == 0
    return x == 0


def sqrt_scalar(q: Fraction | int) -> Scalar:
    """Exact positive square root of a nonnegative rational.

    Returns a Fraction when q is a perfect square and an element of
    Q(sqrt(q)) otherwise.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if is_square(q):
        return rational_sqrt(q)
    return QuadExt(0, 1, q)
