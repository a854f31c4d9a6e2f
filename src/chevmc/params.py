"""Exact coefficient arithmetic in Z[v, v^-1] with q = v^2 and y = -v^2.

All Hecke-algebra and K-theory computations share a single formal parameter
v.  The Hecke parameter is q = v^2, the motivic parameter is y = -v^2, so
the substitution q = -y is an identity of the ring rather than an operation
that can be applied inconsistently.  Half-integral powers of q (needed for
the stable basis) are plain odd powers of v.
"""

from __future__ import annotations


class Scalar:
    """A Laurent polynomial in v with integer coefficients.

    Stored as a dict mapping the v-exponent to its (nonzero) integer
    coefficient.
    """

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {} if c is None else {k: x for k, x in c.items() if x}

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero():
        return Scalar()

    @staticmethod
    def one():
        return Scalar({0: 1})

    @staticmethod
    def int(n):
        return Scalar({0: n}) if n else Scalar()

    @staticmethod
    def v(n=1, coeff=1):
        return Scalar({n: coeff}) if coeff else Scalar()

    @staticmethod
    def q(n=1, coeff=1):
        """coeff * q^n  (q = v^2; n may be a half-integer times 2 via v)."""
        return Scalar({2 * n: coeff}) if coeff else Scalar()

    @staticmethod
    def y(n=1, coeff=1):
        """coeff * y^n  (y = -v^2)."""
        sign = -1 if n % 2 else 1
        return Scalar({2 * n: sign * coeff}) if coeff else Scalar()

    # -- ring structure -----------------------------------------------
    def __add__(self, other):
        c = dict(self.c)
        for k, x in other.c.items():
            s = c.get(k, 0) + x
            if s:
                c[k] = s
            elif k in c:
                del c[k]
        return Scalar(c)

    def __neg__(self):
        return Scalar({k: -x for k, x in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Scalar({k: x * other for k, x in self.c.items()})
        c = {}
        for k1, x1 in self.c.items():
            for k2, x2 in other.c.items():
                k = k1 + k2
                s = c.get(k, 0) + x1 * x2
                if s:
                    c[k] = s
                elif k in c:
                    del c[k]
        return Scalar(c)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            inv = self.inverse()
            if inv is None:
                raise ValueError("scalar is not a unit: %s" % self)
            return inv ** (-n)
        out = Scalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        """Inverse if self is a unit (+-v^k); otherwise None."""
        if len(self.c) != 1:
            return None
        (k, x), = self.c.items()
        if x not in (1, -1):
            return None
        return Scalar({-k: x})

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    # -- substitutions ------------------------------------------------
    def v_inverse(self):
        """v -> v^-1.  Restricts to y -> y^-1, q -> q^-1, y -> -q^-1
        on the even part, which is how all of those substitutions are
        realized."""
        return Scalar({-k: x for k, x in self.c.items()})

    def is_even(self):
        """True when every power of v is even, i.e. the scalar lies in
        the subring Z[y, y^-1] = Z[q, q^-1]."""
        return all(k % 2 == 0 for k in self.c)

    def y_coeffs(self):
        """Return {y-exponent: coefficient}; requires an even scalar."""
        if not self.is_even():
            raise ValueError("scalar has odd v-powers: %s" % self)
        out = {}
        for k, x in self.c.items():
            n = k // 2
            out[n] = (-x) if n % 2 else x
        return out

    def q_coeffs(self):
        """Return {q-exponent: coefficient}; requires an even scalar."""
        if not self.is_even():
            raise ValueError("scalar has odd v-powers: %s" % self)
        return {k // 2: x for k, x in self.c.items()}

    def t_coeffs(self):
        """Return {t-exponent: coefficient} under t = -y = q."""
        return self.q_coeffs()

    # -- division -----------------------------------------------------
    def divide(self, other):
        """Exact division self/other in Z[v, v^-1]; None if not exact."""
        if not other:
            raise ZeroDivisionError
        if not self:
            return Scalar.zero()
        rem = dict(self.c)
        dmax = max(other.c)
        dlc = other.c[dmax]
        quot = {}
        # classic single-variable division from the top
        for _ in range(len(self.c) + len(other.c) + abs(max(self.c) - min(self.c)) + 2):
            if not rem:
                return Scalar(quot)
            rmax = max(rem)
            if rem[rmax] % dlc:
                return None
            qc = rem[rmax] // dlc
            qk = rmax - dmax
            quot[qk] = quot.get(qk, 0) + qc
            for k, x in other.c.items():
                kk = k + qk
                s = rem.get(kk, 0) - qc * x
                if s:
                    rem[kk] = s
                elif kk in rem:
                    del rem[kk]
        return None

    # -- display ------------------------------------------------------
    def render(self, var=None):
        """Render in terms of y (default when even), q, t or raw v."""
        if not self.c:
            return "0"
        if var is None:
            var = "y" if self.is_even() else "v"
        if var in ("y", "q", "t") and self.is_even():
            coeffs = {"y": self.y_coeffs, "q": self.q_coeffs, "t": self.t_coeffs}[var]()
        else:
            var = "v"
            coeffs = dict(self.c)
        parts = []
        for n in sorted(coeffs, reverse=True):
            a = coeffs[n]
            if n == 0:
                parts.append(("+" if a >= 0 else "-") + str(abs(a)))
                continue
            mono = var if n == 1 else "%s^%d" % (var, n)
            if a == 1:
                parts.append("+" + mono)
            elif a == -1:
                parts.append("-" + mono)
            else:
                parts.append(("+" if a >= 0 else "-") + str(abs(a)) + "*" + mono)
        s = " ".join(parts)
        return s[1:] if s.startswith("+") else s

    def __repr__(self):
        return "Scalar(%s)" % self.render()

    def to_json(self):
        return {str(k): x for k, x in sorted(self.c.items())}

    @staticmethod
    def from_json(d):
        return Scalar({int(k): x for k, x in d.items()})


ZERO = Scalar.zero()
ONE = Scalar.one()
