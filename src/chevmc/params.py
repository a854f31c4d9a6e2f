"""The coefficient ring Z[v, v^-1] with q = v^2 and y = -v^2.

All Hecke-algebra and K-theory computations share a single formal parameter
v.  The Hecke parameter is q = v^2, the motivic parameter is y = -v^2, so
the substitution q = -y is an identity of the ring rather than an operation
that can be applied inconsistently.  Half-integral powers of q (needed for
the stable basis) are plain odd powers of v.

Scalar, an element of this ring, is the rank-0 case of the packed ring
charring.GA: a dict from a key holding only the v field (the v exponent
plus the bias 2^(FIELD-1)) to an int coefficient.  Its constructors are
`int`, `v`, `q`, `y`, `one`, `zero` and Scalar({v exponent: int}).
"""

from __future__ import annotations

from .charring import Scalar

__all__ = ["Scalar"]
