"""Exact character-ring arithmetic.

Elements of the equivariant K-group of a point are Laurent polynomials
e^mu with mu in the weight lattice and coefficients in Z[v, v^-1]
(see params.py).  Weights are stored as integer tuples in the "fine"
lattice: coordinates are h times the fundamental-weight coordinates,
where h is the scaling constant of the ambient root system.  This keeps
exponentials of mu/h integral for the operator formula while ordinary
weights occupy the sublattice of coordinates divisible by h.

GA is the one sparse exponent-tuple ring of the package: its addition,
multiplication, equality, units and box-bounded exact division serve
every subclass, which supplies only its coefficient operations and
whether negative exponents are allowed.  csm.CohPoly, the polynomial
ring on the fundamental weights with rational coefficients, is such a
subclass.  `render_terms` joins the rendered terms of any of them.

Fractions keep their denominator in factored form; every arithmetic
operation tries to cancel each denominator factor by exact division,
which succeeds for the factor families that actually occur
(1 - e^beta, 1 + y e^beta and monomials).  Equality falls back to
cross-multiplication, so an unreduced fraction is never wrong, only
slower.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter

from .params import Scalar, ZERO, ONE


def _wadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _wneg(a):
    return tuple(-x for x in a)


def _wsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def render_terms(terms, sep="*"):
    """Join (coefficient text, coefficient is a single term, monomial
    text) triples, leading term first: a unit coefficient is dropped, a
    longer one is parenthesised, the monomial "1" (the constant) is
    dropped after a coefficient, and a leading minus becomes " - "."""
    parts = []
    for cs, single, mono in terms:
        if cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            if not single:
                cs = "(%s)" % cs
            parts.append(cs if mono == "1" else cs + sep + mono)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class GA:
    """An element of the group algebra Z[v,v^-1][weight lattice].

    `c` maps a weight (tuple of fine-lattice coordinates) to a nonzero
    Scalar coefficient.  A subclass with other coefficients overrides
    the class constants below.
    """

    __slots__ = ("c",)

    laurent = True  # negative exponents allowed; units are monomials
    _czero = ZERO
    _cdiv = staticmethod(Scalar.divide)  # exact coefficient quotient or None
    _cinv = staticmethod(Scalar.inverse)  # coefficient inverse or None

    @staticmethod
    def _coerce(x):
        return Scalar.int(x) if isinstance(x, int) else x

    def __init__(self, c=None):
        self.c = {} if c is None else {k: x for k, x in c.items() if x}

    @classmethod
    def term(cls, weight, coeff=ONE):
        return cls({tuple(weight): cls._coerce(coeff)})

    @classmethod
    def const(cls, coeff, rank):
        return cls({(0,) * rank: cls._coerce(coeff)})

    def __add__(self, other):
        c = dict(self.c)
        zero = self._czero
        for k, x in other.c.items():
            s = c.get(k, zero) + x
            if s:
                c[k] = s
            elif k in c:
                del c[k]
        return type(self)(c)

    def __neg__(self):
        return type(self)({k: -x for k, x in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GA):
            # a coefficient or an int
            return type(self)({k: x * other for k, x in self.c.items()})
        c = {}
        zero = self._czero
        for k1, x1 in self.c.items():
            for k2, x2 in other.c.items():
                k = _wadd(k1, k2)
                s = c.get(k, zero) + x1 * x2
                if s:
                    c[k] = s
                elif k in c:
                    del c[k]
        return type(self)(c)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers: invert explicitly")
        rank = len(next(iter(self.c))) if self.c else 0
        out = self.const(1, rank)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.const(other, len(next(iter(self.c))) if self.c else 0)
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def unit_inverse(self):
        """The inverse of a unit, otherwise None: a monomial with a unit
        coefficient in a Laurent ring, a nonzero constant otherwise."""
        if len(self.c) != 1:
            return None
        (k, x), = self.c.items()
        if not self.laurent and any(k):
            return None
        inv = self._cinv(x)
        return None if inv is None else type(self)({_wneg(k): inv})

    # -- lattice / Weyl operations ------------------------------------
    def map_weights(self, f):
        c = {}
        for k, x in self.c.items():
            kk = f(k)
            s = c.get(kk, ZERO) + x
            if s:
                c[kk] = s
            elif kk in c:
                del c[kk]
        return GA(c)

    def dual_vee(self):
        """e^mu -> e^-mu, y -> y^-1 (equivalently v -> v^-1)."""
        return GA({_wneg(k): x.v_inverse() for k, x in self.c.items()})

    def star(self):
        """e^mu -> e^-mu, parameters fixed."""
        return GA({_wneg(k): x for k, x in self.c.items()})

    def y_inverse(self):
        return GA({k: x.v_inverse() for k, x in self.c.items()})

    # -- division -----------------------------------------------------
    def leading(self):
        k = max(self.c)
        return k, self.c[k]

    def exact_div(self, other):
        """Exact quotient self/other, or None when not divisible.

        An exact quotient q of Laurent polynomials satisfies, coordinate
        by coordinate, max(q) = max(self) - max(other) and likewise for
        min (the extreme monomials of a product never cancel), so every
        quotient monomial lies in that box, cut at 0 in a polynomial
        ring; a reduction step that leaves the box proves
        indivisibility, and steps inside it are finitely many since the
        leading monomial strictly decreases.
        """
        if not other:
            raise ZeroDivisionError
        if not self:
            return type(self)()
        n = len(next(iter(self.c)))
        qmax = tuple(
            max(k[i] for k in self.c) - max(k[i] for k in other.c)
            for i in range(n)
        )
        qmin = tuple(
            min(k[i] for k in self.c) - min(k[i] for k in other.c)
            for i in range(n)
        )
        if not self.laurent:
            qmin = tuple(max(q, 0) for q in qmin)
        if any(a > b for a, b in zip(qmin, qmax)):
            return None
        rem = dict(self.c)
        # the remainder's monomials in ascending order; a popped monomial
        # no longer in `rem` was cancelled (or is a duplicate) and is skipped
        order = sorted(rem)
        dk, dc = other.leading()
        div = self._cdiv
        zero = self._czero
        quot = {}
        while rem:
            rk = order.pop()
            if rk not in rem:
                continue
            qc = div(rem[rk], dc)
            if qc is None:
                return None
            qk = _wsub(rk, dk)
            if any(c < lo or c > hi for c, lo, hi in zip(qk, qmin, qmax)):
                return None
            quot[qk] = quot.get(qk, zero) + qc
            for k, x in other.c.items():
                kk = _wadd(k, qk)
                s = rem.get(kk, zero) - qc * x
                if s:
                    if kk not in rem:
                        insort(order, kk)
                    rem[kk] = s
                elif kk in rem:
                    del rem[kk]
        return type(self)(quot)

    # -- display ------------------------------------------------------
    def render(self, names=None, scale=1, var=None):
        """Render with weights divided by `scale` (the lattice constant h)."""
        terms = []
        for k in sorted(self.c, reverse=True):
            exps = []
            for i, e in enumerate(k):
                if not e:
                    continue
                if e % scale == 0:
                    es = str(e // scale)
                else:
                    es = "%d/%d" % (e, scale)
                nm = names[i] if names else "w%d" % (i + 1)
                exps.append("%s*%s" % (es, nm) if es != "1" else nm)
            mono = "e^{%s}" % "+".join(exps).replace("+-", "-") if exps else "1"
            x = self.c[k]
            terms.append((x.render(var=var), len(x.c) == 1, mono))
        return render_terms(terms)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.render())

    def to_json(self):
        return [
            {"weight": list(k), "coeff": x.to_json()}
            for k, x in sorted(self.c.items())
        ]

    @staticmethod
    def from_json(items):
        return GA(
            {tuple(d["weight"]): Scalar.from_json(d["coeff"]) for d in items}
        )


class Frac:
    """num / prod(den) over a polynomial ring: GA in K-theory, CohPoly in
    cohomology.  The ring supplies `exact_div`, `unit_inverse` and
    `const`; everything else here is ring-independent."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        if not num:
            den = ()
        self.num = num
        self.den = tuple(den)

    def _reduce(self):
        """Cancel denominator factors that divide the numerator exactly."""
        num = self.num
        if not num:
            return self
        kept = []
        for f in self.den:
            inv = f.unit_inverse()
            if inv is not None:
                num = num * inv
                continue
            q = num.exact_div(f)
            if q is not None:
                num = q
            else:
                kept.append(f)
        return Frac(num, kept)

    def __add__(self, other):
        if not other.num:
            return self
        if not self.num:
            return other
        # common denominator via multiset lcm of factors
        c1 = Counter(self.den)
        c2 = Counter(other.den)
        lcm = c1 | c2
        n1 = self.num
        for f in (lcm - c1).elements():
            n1 = n1 * f
        n2 = other.num
        for f in (lcm - c2).elements():
            n2 = n2 * f
        return Frac(n1 + n2, tuple(lcm.elements()))._reduce()

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self.num)):
            other = Frac(other)
        elif not isinstance(other, Frac):
            # a coefficient scalar
            return Frac(self.num * other, self.den)
        return Frac(self.num * other.num, self.den + other.den)._reduce()

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError
        den = self.num.const(1, len(next(iter(self.num.c))))
        for f in self.den:
            den = den * f
        return Frac(den, (self.num,))._reduce()

    def __truediv__(self, other):
        if isinstance(other, type(self.num)):
            other = Frac(other)
        return self * other.inverse()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.num
        if isinstance(other, type(self.num)):
            other = Frac(other)
        return not (self - other).num

    def __hash__(self):
        raise TypeError("fractions are not hashable")

    def as_poly(self):
        """Return the reduced numerator if the fraction is polynomial."""
        r = self._reduce()
        num = r.num
        for f in r.den:
            num = num.exact_div(f)
            if num is None:
                return None
        return num

    def map(self, ring_map):
        """Apply a ring map to numerator and factors."""
        return Frac(ring_map(self.num), tuple(ring_map(f) for f in self.den))

    def render(self, **kw):
        g = self.as_poly()
        if g is not None:
            return g.render(**kw)
        s = "(%s)" % self.num.render(**kw)
        for f in self.den:
            s += " / (%s)" % f.render(**kw)
        return s

    def __repr__(self):
        return "Frac(%s)" % self.render()
