"""Exact arithmetic over rational combinations of square roots.

A value is stored as a finite sum ``sum_d c_d * sqrt(d)`` with rational
coefficients ``c_d`` and squarefree positive integer radicands ``d``.
Square roots of distinct squarefree integers are linearly independent
over the rationals, so zero tests and equality are exact, and the sign
is decided exactly by bracketing the square roots in integers.  Every
closed-form quantity in this package (basis normalizations, label
averages, the dual-vector recursion) lives in such an extension, which
is what makes the "exactly zero" assertions in the test suite honest.
The module holds the field alone: the tests solve linear systems over it
with their own eliminator (tests/exact_oracles.py), which shares no code
with the library's LDL^T kernels.

All operations are pure; instances are immutable after construction and
safe to share across threads.  The public constructor checks its terms;
the operators build their results through the trusted ``_rad``, which
skips that check and the zero filter because their terms already hold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Union[int, Fraction]


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s*s*d with d squarefree; return (s, d).  Requires n >= 1."""
    if n < 1:
        raise ValueError("squarefree_decompose needs a positive integer")
    s, d, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e % 2:
                d *= p
            s *= p ** (e // 2)
        p += 1 if p == 2 else 2
    return s, d * m


@lru_cache(maxsize=None)
def _smallest_prime_factor(d: int) -> int:
    p = 2
    while p * p <= d:
        if d % p == 0:
            return p
        p += 1 if p == 2 else 2
    return d


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _rad(terms: dict[int, Fraction]) -> "Rad":
    """A Rad on terms already in canonical form: squarefree radicands and
    nonzero Fraction coefficients."""
    out = object.__new__(Rad)
    out.terms = terms
    return out


class Rad:
    """An element of the field of rationals extended by square roots."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        # terms maps squarefree radicand -> nonzero rational coefficient
        self.terms = {}
        for d, c in (terms or {}).items():
            c = _as_fraction(c)
            if not isinstance(d, int) or d < 1 or squarefree_decompose(d)[1] != d:
                raise ValueError(f"radicand {d!r} is not a positive squarefree integer")
            if c:
                self.terms[d] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, x) -> "Rad":
        if isinstance(x, Rad):
            return x
        c = _as_fraction(x)
        return _rad({1: c} if c else {})

    @classmethod
    def sqrt(cls, x) -> "Rad":
        """Exact square root of a nonnegative rational (or rational Rad)."""
        if isinstance(x, Rad):
            x = x.as_fraction()
        x = _as_fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        if x == 0:
            return _rad({})
        s, d = squarefree_decompose(x.numerator * x.denominator)
        return _rad({d: Fraction(s, x.denominator)})

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(d == 1 for d in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return self.terms[1]

    def sign(self) -> int:
        """-1, 0 or 1, decided exactly.  Zero is the empty sum (the radicals
        are linearly independent).  Otherwise each sqrt(d) 2^b lies in
        [r, r + 1] with r = isqrt(d 4^b), and the precision b doubles until
        the bracket of the scaled sum excludes zero."""
        if self.is_rational():
            x = self.as_fraction()
            return (x > 0) - (x < 0)
        b = 64
        while True:
            lo = hi = Fraction(0)
            for d, c in self.terms.items():
                r = math.isqrt(d << 2 * b)
                ends = (c * r, c * (r + 1))
                lo, hi = lo + min(ends), hi + max(ends)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            b *= 2

    def __float__(self) -> float:
        return float(sum(float(c) * math.sqrt(d) for d, c in self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------

    def _merge(self, other, sign: int) -> "Rad":
        """self + sign * other, in place on a copy of self's terms; a
        coefficient that cancels is dropped."""
        if not isinstance(other, Rad):
            c = _as_fraction(other)
            if not c:
                return self
            other = {1: c}
        else:
            other = other.terms
        out = dict(self.terms)
        for d, c in other.items():
            if d in out:
                c = out[d] + c if sign > 0 else out[d] - c
                if c:
                    out[d] = c
                else:
                    del out[d]
            else:
                out[d] = c if sign > 0 else -c
        return _rad(out)

    def __add__(self, other) -> "Rad":
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Rad":
        return _rad({d: -c for d, c in self.terms.items()})

    def __sub__(self, other) -> "Rad":
        return self._merge(other, -1)

    def __rsub__(self, other) -> "Rad":
        return Rad.of(other)._merge(self, -1)

    def __mul__(self, other) -> "Rad":
        if not isinstance(other, Rad):
            c = _as_fraction(other)
            return _rad({d: a * c for d, a in self.terms.items()} if c else {})
        left, right = self.terms, other.terms
        if len(left) == 1 == len(right):
            (d1, c1), = left.items()
            (d2, c2), = right.items()
            g = math.gcd(d1, d2)
            if g == 1:
                return _rad({d1 * d2: c1 * c2})
            return _rad({(d1 // g) * (d2 // g): c1 * c2 * g})
        out: dict[int, Fraction] = {}
        for d1, c1 in left.items():
            for d2, c2 in right.items():
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)  # squarefree: the cofactors are coprime
                c = c1 * c2 * g if g != 1 else c1 * c2
                out[d] = out[d] + c if d in out else c
        return _rad({d: c for d, c in out.items() if c})

    __rmul__ = __mul__

    def inverse(self) -> "Rad":
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        num = Rad.of(1)
        den = self
        while not den.is_rational():
            p = min(_smallest_prime_factor(d) for d in den.terms if d > 1)
            plain = _rad({d: c for d, c in den.terms.items() if d % p})
            pulled = _rad({d // p: c for d, c in den.terms.items() if d % p == 0})
            conj = plain - _rad({p: Fraction(1)}) * pulled
            num = num * conj
            den = plain * plain - p * pulled * pulled
        return num * (1 / den.as_fraction())

    def __truediv__(self, other) -> "Rad":
        return self * Rad.of(other).inverse()

    def __rtruediv__(self, other) -> "Rad":
        return Rad.of(other) * self.inverse()

    def __pow__(self, k: int) -> "Rad":
        if k < 0:
            return self.inverse() ** (-k)
        out = Rad.of(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            other = Rad.of(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a rational value hashes like the int or Fraction it equals
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "Rad(0)"
        bits = [f"{c}*sqrt({d})" if d != 1 else f"{c}" for d, c in sorted(self.terms.items())]
        return "Rad(" + " + ".join(bits) + ")"
