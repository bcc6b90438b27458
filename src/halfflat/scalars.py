"""Exact scalars: rational numbers and real quadratic extensions Q(sqrt(D)).

Rational arithmetic is ``fractions.Fraction``.  ``QuadExt`` represents
``a + b*sqrt(D)`` for a fixed rational radicand ``D >= 0`` that is not a
rational square; a value collapses to a ``Fraction`` whenever the irrational
part cancels, and ``make`` collapses a perfect-square radicand.  All
arithmetic is closed and exact, and the ordering of Q(sqrt(D)) as a subfield
of the reals is decidable, which is what the signature computations rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

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

    Instances are immutable.  The library never builds a square radicand:
    ``make`` and ``sqrt_scalar`` test d once, and arithmetic between values
    of one field keeps their d, so it collapses to a ``Fraction`` exactly
    when b == 0 and never re-tests d.  Mixing two different radicands in one
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

    def _same_field(self, a: Fraction, b: Fraction) -> Scalar:
        """a + b*sqrt(self.d) for Fraction parts: a Fraction when b == 0."""
        if not b:
            return a
        x = object.__new__(QuadExt)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        object.__setattr__(x, "d", self.d)
        return x

    def _parts(self, other) -> tuple[Fraction | int, Fraction | int]:
        """(a, b) of a rational or of a value of the same field."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise RadicandMismatchError(f"cannot combine sqrt({self.d}) with sqrt({other.d})")
            return other.a, other.b
        if isinstance(other, _RAT):
            return other, 0
        raise TypeError(f"unsupported scalar {other!r}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._parts(other)
        return self._same_field(self.a + a, self.b + b)

    __radd__ = __add__

    def __neg__(self):
        return self._same_field(-self.a, -self.b)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self._parts(other)
        if not b:
            return self._same_field(self.a * a, self.b * a)
        return self._same_field(self.a * a + self.b * b * self.d, self.a * b + self.b * a)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("not invertible")
        return self._same_field(self.a / n, -self.b / n)

    def __truediv__(self, other):
        a, b = self._parts(other)
        return self * other.inverse() if b else self._same_field(self.a / a, self.b / a)

    def __rtruediv__(self, other):
        return self.inverse() * other

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


def _rat_sign(q: Fraction | int) -> int:
    n = q.numerator  # the denominator is positive
    return (n > 0) - (n < 0)


def scalar_sign(x: Scalar) -> int:
    """Exact sign (-1, 0, 1) of a rational or quadratic-extension scalar."""
    if isinstance(x, QuadExt):
        return x.sign()
    return _rat_sign(x)


def scalar_abs(x: Scalar) -> Scalar:
    return -x if scalar_sign(x) < 0 else x


def scalar_is_zero(x: Scalar) -> bool:
    return not x


def cleared(values: Sequence[Scalar]) -> tuple[int, list[Scalar]]:
    """(den, den * values) for the positive lcm den of their denominators: ints, or QuadExt."""
    # a list, not a generator: a tuple unpacked from a generator is grown and shrunk, and the
    # freed tuples pile up in the interpreter's free lists (0.4 MB more RSS over 100 corpus rounds)
    den = math.lcm(
        *[math.lcm(x.a.denominator, x.b.denominator) if isinstance(x, QuadExt) else x.denominator for x in values]
    )
    return den, [x * den if isinstance(x, QuadExt) else x.numerator * (den // x.denominator) for x in values]


def primitive(values: Sequence[Scalar]) -> list[Scalar]:
    """Nonzero values scaled to integral parts (a and b of a + b*sqrt(D)) without a common factor.

    An irrational first value divides them first, so any multiple of them gives the same result up to sign.
    """
    if values and isinstance(values[0], QuadExt):
        inv = values[0].inverse()
        values = [x * inv for x in values]
    values = cleared(values)[1]
    g = math.gcd(*[p for x in values for p in ((int(x.a), int(x.b)) if isinstance(x, QuadExt) else (x,))])
    return values if g < 2 else [x // g if type(x) is int else x / g for x in values]


def unscaled(x: Scalar, den: Scalar) -> Scalar:
    """x / den, exactly: a Fraction when both are ints."""
    return Fraction(x, den) if type(x) is int and type(den) is int else x / den


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
