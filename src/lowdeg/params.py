"""Scalar model parameters, kept free of numpy.

`ModelParams` is shared by every model, measure, basis and certificate;
the exact modules import it from here so that only the samplers (in
`models`) and the float Gram and Rayleigh routes load numpy.  `models`
re-exports it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .measures import sbm_block_probs


@dataclass(frozen=True)
class ModelParams:
    """Scalar parameters shared by every model and every potential.

    Either (p, s) or (q, rho) may be given for the subsampling models; the
    other pair is derived and both are kept consistent (q = p*s and
    rho = s(1-p)/(1-p*s)).  Fractions keep everything downstream exact.
    """

    n: int
    p: Optional[object] = None
    q: Optional[object] = None
    s: Optional[object] = None
    rho: Optional[object] = None
    lam: Optional[object] = None
    k: Optional[int] = None
    eps: Optional[object] = None
    delta: Optional[object] = None
    D: Optional[int] = None
    N: Optional[int] = None

    def __post_init__(self):
        for name, low in (("n", 2), ("k", 2), ("D", 1), ("N", None)):  # Python and numpy ints pass, 6.0 does not
            value = getattr(self, name)
            if value is None and name != "n":
                continue
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name}={value!r} is not an integer") from None
            if low is not None and value < low:
                raise ValueError(f"{name} must be at least {low}")
        for name in ("p", "q", "s", "rho", "lam", "eps"):  # keep int inputs exact under division
            if isinstance(getattr(self, name), int):
                object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.p is not None and self.s is not None:
            q = self.p * self.s
            rho = self.s * (1 - self.p) / (1 - q)
            if self.q is None:
                object.__setattr__(self, "q", q)
            if self.rho is None:
                object.__setattr__(self, "rho", rho)
            if abs(float(self.q - q)) > 1e-12 or abs(float(self.rho - rho)) > 1e-12:
                raise ValueError("inconsistent (p, s) vs (q, rho) parameterizations")
        elif self.q is not None and self.rho is not None and self.s is None:
            s = self.q + self.rho * (1 - self.q)
            object.__setattr__(self, "s", s)
            object.__setattr__(self, "p", self.q / s if s != 0 else None)
        for name, value in (("p", self.p), ("q", self.q), ("s", self.s)):  # s = 1: no subsampling
            if value is not None and not (0 < value <= 1):
                raise ValueError(f"{name}={value} outside the valid probability range")
        if self.rho is not None and not (0 <= self.rho <= 1):
            raise ValueError(f"rho={self.rho} outside [0, 1]")
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.eps is not None and not (0 <= self.eps < 1):
            raise ValueError(f"eps={self.eps} outside [0, 1)")
        delta_cap = 0.01 if isinstance(self.delta, float) else Fraction(1, 100)
        if self.delta is not None and not (0 < self.delta <= delta_cap):
            raise ValueError("delta must lie in (0, 0.01]")
        if self.lam is not None and self.k is not None and self.eps is not None:
            sbm_block_probs(self.n, self.k, self.lam, self.eps)

    @property
    def lam_tilde(self):
        return self.lam if self.lam >= 1 else type(self.lam)(1)

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)
