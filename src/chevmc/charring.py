"""Exact character-ring arithmetic on packed integer keys.

Elements of the equivariant K-group of a point are Laurent polynomials
e^mu with mu in the weight lattice and coefficients in Z[v, v^-1]
(see Scalar).  Weights are stored in the "fine" lattice: coordinates
are h times the fundamental-weight coordinates, where h is the scaling
constant of the ambient root system.  This keeps exponentials of mu/h
integral for the operator formula while ordinary weights occupy the
sublattice of coordinates divisible by h.

GA is the one ring of the package: a dict from a packed int key to an
int coefficient, over Z in (x_1..x_r, v).  A key has r + 1 fields of
FIELD = 20 bits, each an exponent plus the bias 2^(FIELD-1): the weight
coordinates first (most significant), then the v exponent.  So a
product of monomials is key + key - bias, the weight of a key is
key >> FIELD, its v part key & MASK, integer order is lex order, and
the rank is read off the bit length.  Exponents lie in [-LIMIT, LIMIT),
LIMIT = 2^13, a 64th of the bias: sums and differences of exponents,
and Weyl matrices (row sums below 64) applied to weights, never carry
into the next field, and every product, quotient and transform raises
ValueError on an exponent that leaves the range.

Scalar, the coefficient ring Z[v, v^-1], is the rank-0 case, with keys
of the v field only, so a Scalar times a GA is the same key sum.
csm.CohPoly, the polynomial ring Z[varpi_1..varpi_r] on the fundamental
weights, uses the same keys with v field 0 and the same int
coefficients.  `GA.render` turns an element of either into text, with
the monomial text a caller passes (`exp_mono`, `power_mono`), and
`render_terms` joins the terms.

There is no fraction type.  A Demazure-Lusztig step divides once in the
ring (localization.dl_step; the right operator `Localization.dl_right`,
also the affine Hecke action on stable envelopes under the star, and
its slice recursion, with no Weyl move, once per pair of points), and
every localization quotient is one exact division over a W-fixed
denominator (localization.Localization.root_quotient): a product of
root factors, or a W-invariant constant under a Segre-type class.  A
Bernstein step of the bridge route (chevalley.transition_direct)
divides nothing: its divided difference is summed in closed form.

One kernel, `_add_products`, adds monomial products into a coefficient
dict.  `*` runs it into a new dict; `GA.dot` runs all the products of a
sum s_1 t_1 + ... + s_n t_n into one accumulator, so that a
Demazure-Lusztig step b Delta + e x or an Atiyah-Bott sum builds no
intermediate product or sum; the cell solve runs it into its remainders
in place, on the pivot's negated terms built once.  What `*` and `dot`
return passes `_check` once, on the finished sum.  `exact_div` by a
two-term divisor, the shape of every Demazure-Lusztig denominator
1 - e^gamma and of a linear form, divides line by line (`_line_div`):
each line {k - m gap} of keys, gap the divisor's key difference,
divides alone, walked once from its top with the carry in a local, no
ordered remainder and no box.  Longer divisors, such as the solve's
diagonals, first try a one-term quotient (`_monomial_div`), then take
the long division (`_long_div`) inside the quotient's box.  A Weyl move
(`GA.transform`) adds to each key only the packed columns of mat - 1
that are nonzero: one for a simple reflection.

A y-line (`to_line`) is the same dict for a polynomial in y = -v^2,
with v^2 substituted by 2^SLOT: {k >> FIELD: sum_j c_j 2^(SLOT j)} over
the weight keys, c_j the coefficient of v^(2j), one slot per power of y;
an odd or negative power of v raises ValueError.  Its keys have the
weight fields only, so they read as the keys of one rank less, and the
kernel, `dot` and both divisions run on lines unchanged, one integer
product per pair of weights (the slice recursion and solve of
localization.py).  The substitution is a ring map, one-to-one on the
polynomials whose coefficients lie in [-2^(SLOT-1), 2^(SLOT-1));
`from_line` and `line_max` read the coefficients back as the residues
of the slots in that range, and `fits` raises ValueError on a bound
that leaves it, so that a caller certifies each line it decodes.  A
CohPoly has no v, so its line holds its plain int coefficients.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, insort
from itertools import repeat

FIELD = 20
MASK = (1 << FIELD) - 1
_HALF = 1 << (FIELD - 1)  # the bias of every field
LIMIT = 1 << 13  # exponents lie in [-LIMIT, LIMIT)
MAX_RANK = 15
SLOT = 64  # the bits of one power of y in a y-line: 8, 16, 32 or 64


def _layout(rank):
    """(bias, lo, bad) for keys with `rank` weight fields: bias has every
    field at the bias; a key k is in range iff (k - lo) & bad == 0,
    since then every field of k - lo lies in [0, 2 LIMIT)."""
    n = rank + 1
    bias = sum(_HALF << (FIELD * i) for i in range(n))
    lo = sum((_HALF - LIMIT) << (FIELD * i) for i in range(n))
    ok = sum((2 * LIMIT - 1) << (FIELD * i) for i in range(n))
    return bias, lo, ~ok


_LAYOUT = [_layout(r) for r in range(MAX_RANK + 1)]
_BIAS = [lay[0] for lay in _LAYOUT]


def _rank(key):
    return (key.bit_length() - 1) // FIELD


def _check(c, rank):
    """Raise unless every key of `c` has all its exponents in range."""
    _, lo, bad = _LAYOUT[rank]
    if any(map(bad.__and__, map(lo.__rsub__, c))):
        raise ValueError("exponent out of range [%d, %d)" % (-LIMIT, LIMIT))


def _negative(c, rank):
    """True when some key of `c` (all in range) has a negative
    exponent: the key less the bias then borrows out of that field."""
    bias = _BIAS[rank]
    bad = ~sum((LIMIT - 1) << (FIELD * i) for i in range(rank + 1))
    return any(map(bad.__and__, map(bias.__rsub__, c)))


def _pack(weight):
    """The weight fields of a key (without the v field)."""
    if len(weight) > MAX_RANK:
        raise ValueError("rank %d exceeds %d" % (len(weight), MAX_RANK))
    k = 0
    for e in weight:
        if not -LIMIT <= e < LIMIT:
            raise ValueError("exponent %d out of range [%d, %d)"
                             % (e, -LIMIT, LIMIT))
        k = (k << FIELD) + e + _HALF
    return k


def _weight(k, rank):
    """The weight tuple of a key with `rank` weight fields."""
    out = []
    for _ in range(rank):
        k >>= FIELD
        out.append((k & MASK) - _HALF)
    return tuple(reversed(out))


def _add_products(acc, a, b):
    """acc += a * b on packed keys: a and b are (key, int) pairs and
    each field's bias is carried by exactly one side, so a monomial
    product is a key sum.  `b` is iterated once per pair of `a`."""
    get = acc.get
    for k1, x1 in a:
        for k2, x2 in b:
            k = k1 + k2
            s = get(k, 0) + x1 * x2
            if s:
                acc[k] = s
            else:
                del acc[k]


def _mul_into(acc, a, b):
    """acc += a * b for nonempty coefficient dicts, the shorter in the
    outer loop; returns the product's rank for the caller's `_check`."""
    ra, rb = _rank(next(iter(a))), _rank(next(iter(b)))
    bias = _BIAS[min(ra, rb)]
    if len(a) > len(b):
        a, b = b, a
    _add_products(acc, [(k - bias, x) for k, x in a.items()], b.items())
    return max(ra, rb)


def _long_div(a, d, bias, box):
    """The coefficient dict of a / d by long division from the leading
    key (see GA.exact_div), or None: a remainder kept in key order, each
    step one exact integer quotient inside the box (lok, hik, test) and
    one subtraction of the divisor's other terms."""
    lok, hik, test = box
    rem = dict(a)
    order = sorted(rem)
    dk = max(d)
    dc = d[dk]
    shift = bias - dk
    rest = [(k - bias, x) for k, x in d.items() if k != dk]
    quot = {}
    while rem:
        rk = order.pop()
        x = rem.pop(rk, None)
        if x is None:
            continue
        qc, r = divmod(x, dc)
        if r:
            return None
        qk = rk + shift
        if ((qk - lok) | (hik - qk)) & test:
            return None
        quot[qk] = qc
        for k, dx in rest:
            kk = k + qk
            s = rem.get(kk, 0) - qc * dx
            if s:
                if kk not in rem:
                    insort(order, kk)
                rem[kk] = s
            else:
                del rem[kk]
    return quot


def _monomial_div(a, d, bias):
    """{key: int} of the monomial q with a = q d, or None; for |a| = |d|
    (see GA.exact_div).  q is lead(a) / lead(d), by one divmod, and
    q d = a when a[k + s] = q d[k] at every key k of d, s = lead(a) -
    lead(d): then a has those |d| terms and no other.  Unchecked."""
    ak, dk = max(a), max(d)
    qc, r = divmod(a[ak], d[dk])
    if r:
        return None
    s = ak - dk
    get = a.get
    for k, x in d.items():
        if get(k + s) != qc * x:
            return None
    return {s + bias: qc}


def _line_div(a, d, bias):
    """The coefficient dict of a / d for a two-term divisor
    c1 e^k1 + c2 e^k2, k1 > k2, or None; unchecked (see GA.exact_div).

    A quotient term at k - k1 carries into k - gap, gap = k1 - k2, so
    each line {k - m gap} of the exponent lattice divides alone, walked
    down from its top: each step adds the dividend's coefficient to the
    carry, and a nonzero sum makes a quotient term and the next carry.
    The dividend keys are taken in descending order, and each one that
    no walk has reached starts a walk, which ends where the carry
    cancels.  A step moves each field by less than 2 LIMIT, so from an
    in-range key it never borrows across fields: every walk key is the
    packed key of the next point of the line.  A line keeps the fields
    above the most significant one in which k1 and k2 differ, so its
    dividend keys lie in the run of sorted keys that share those
    fields.  A carry that reaches a key out of the range, or below that
    run, has passed every dividend key of its line and proves
    indivisibility; both are tested where the walk finds no dividend
    key."""
    k1, k2 = max(d), min(d)
    c1, c2 = d[k1], d[k2]
    gap = k1 - k2
    _, lo, bad = _LAYOUT[_rank(k1)]
    high = ((k1 ^ k2).bit_length() - 1) // FIELD * FIELD + FIELD
    shift = bias - k1
    unit = c1 if c1 in (1, -1) else 0  # then x / c1 = x * c1
    rem = dict(a)
    pop = rem.pop
    keys = sorted(a)
    quot = {}
    for k in reversed(keys):
        x = pop(k, 0)
        low = None
        while x:
            if unit:
                qc = x * unit
            else:
                qc, r = divmod(x, c1)
                if r:
                    return None
            quot[k + shift] = qc
            k -= gap
            y = pop(k, None)
            if y is None:  # no dividend key here: test the walk key
                if low is None:  # the lowest key of the walk's run
                    low = keys[bisect_left(keys, k >> high << high)]
                if k < low or (k - lo) & bad:
                    return None
                x = -qc * c2
            else:
                x = y - qc * c2
    return quot


def to_line(c):
    """The y-line of a coefficient dict whose v exponents are even and
    >= 0: {k >> FIELD: sum_j c_j 2^(SLOT j)} over the weight keys, c_j
    the coefficient of v^(2j) (see the module docstring)."""
    out = {}
    for k, x in c.items():
        e = (k & MASK) - _HALF
        if e < 0 or e & 1:
            raise ValueError("a y-line holds no odd or negative power of v")
        wk = k >> FIELD
        s = out.get(wk, 0) + (x << SLOT * (e >> 1))
        if s:
            out[wk] = s
        else:
            del out[wk]
    return out


_TYPECODES = {array(t).itemsize * 8: t for t in "qlihb"}


def _slots(c):
    """(n, slots): the lines of `c` as n slots each, in order, every slot
    its coefficient c_j as a signed int.  Adding 2^(SLOT-1) to every
    slot of a line carries nothing when each c_j lies in
    [-2^(SLOT-1), 2^(SLOT-1)), and flipping the top bit of each slot
    back leaves c_j in two's complement, so the bytes of the result are
    the slots; n has room for every line's top coefficient and one slot
    more.  SLOT is 8, 16, 32 or 64, the width of an array item."""
    vals = c.values()
    n = max(map(int.bit_length, map(abs, vals)), default=0) // SLOT + 2
    # 2^(SLOT-1) in each of n slots
    off = ((1 << SLOT * n) - 1) // ((1 << SLOT) - 1) << (SLOT - 1)
    data = b"".join(map(int.to_bytes, map(off.__xor__, map(off.__add__, vals)),
                        repeat(n * SLOT // 8), repeat(sys.byteorder)))
    return n, array(_TYPECODES[SLOT], data)


def line_max(c):
    """The max norm of the polynomial whose y-line is `c` (see
    `from_line`), read off the slots with no dict built."""
    slots = _slots(c)[1].tolist()
    return max(max(slots), -min(slots)) if slots else 0


def from_line(c):
    """(coefficient dict, l1 norm) of the polynomial whose y-line is `c`,
    slot j read as v^(2j), its residue in [-2^(SLOT-1), 2^(SLOT-1)): the
    polynomial of the line when all its coefficients lie there (see
    `fits`).  The v exponents are not range-checked."""
    n, slots = _slots(c)
    keys = [(wk << FIELD) + _HALF for wk in c]
    out = {}
    for i, x in enumerate(slots):
        if x:
            out[keys[i // n] + 2 * (i % n)] = x
    return out, sum(map(abs, out.values()))


def fits(n):
    """Raise ValueError unless a bound n on the coefficients of a
    polynomial certifies that its y-line decodes to it: n < 2^(SLOT-1)."""
    if n >> (SLOT - 1):
        raise ValueError("coefficient bound %d reaches 2^%d of a y-line"
                         % (n, SLOT - 1))


def pack_columns(mat):
    """The packed columns of an integer matrix acting on weights: entry
    (i, j) sits in the weight field i of column j, so a key moves to the
    key of mat(mu) by adding sum_j mu_j * column j.  Row sums below
    _HALF / LIMIT keep every image of an in-range weight inside its
    field."""
    r = len(mat)
    if max(sum(map(abs, row)) for row in mat) * LIMIT >= _HALF:
        raise ValueError("matrix too large for the packed fields")
    return tuple(sum(mat[i][j] << (FIELD * (r - i)) for i in range(r))
                 for j in range(r))


_MOVES = {}


def _moves(mat):
    """The (shift, packed column) pairs of the nonzero columns j of
    mat - 1, with the weight field j of a key at that shift: e^mu moves
    to e^{mat mu} by adding mu_j times each such column.  Built once per
    matrix; pack_columns checks the row sums of mat."""
    moves = _MOVES.get(mat)
    if moves is None:
        r = len(mat)
        moves = _MOVES[mat] = tuple(
            (FIELD * (r - j), col - (1 << FIELD * (r - j)))
            for j, col in enumerate(pack_columns(mat))
            if col != 1 << FIELD * (r - j)
        )
    return moves


def _wneg(a):
    return tuple(-x for x in a)


def render_terms(terms):
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
            parts.append(cs if mono == "1" else cs + "*" + mono)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def exp_mono(h):
    """The `GA.render` monomial of a fine weight: e^{a*w1+b*w2...} in
    the fundamental weights, each coordinate divided by h (written e/h
    where that is not integral); "1" for the weight 0."""
    def mono(k):
        exps = []
        for i, e in enumerate(k):
            if e:
                es = str(e // h) if e % h == 0 else "%d/%d" % (e, h)
                exps.append("w%d" % (i + 1) if es == "1"
                            else "%s*w%d" % (es, i + 1))
        return "e^{%s}" % "+".join(exps).replace("+-", "-") if exps else "1"
    return mono


def power_mono(var):
    """The `GA.render` monomial of an exponent tuple: var1^e1*var2^e2...
    with a first power bare; "1" for the exponents 0."""
    def mono(k):
        return "*".join(
            "%s%d" % (var, i + 1) if e == 1 else "%s%d^%d" % (var, i + 1, e)
            for i, e in enumerate(k) if e
        ) or "1"
    return mono


class GA:
    """An element of the group algebra Z[v,v^-1][weight lattice].

    `c` maps a packed key (see the module docstring) to a nonzero
    integer.  The constructor takes {weight: coefficient} or (weight,
    coefficient) pairs, coefficients ints or Scalars; `terms` reads them
    back.
    """

    __slots__ = ("c",)

    laurent = True  # negative exponents allowed; units are monomials

    @staticmethod
    def _split(coeff):
        """(v field, integer) pairs of an int or Scalar coefficient."""
        if isinstance(coeff, int):
            return ((_HALF, coeff),)
        return coeff.c.items()

    def __init__(self, terms=()):
        if hasattr(terms, "items"):
            terms = terms.items()
        c = {}
        for weight, coeff in terms:
            wk = _pack(weight) << FIELD
            for vk, x in self._split(coeff):
                k = wk + vk
                s = c.get(k, 0) + x
                if s:
                    c[k] = s
                elif k in c:
                    del c[k]
        self.c = c

    @classmethod
    def _new(cls, c):
        g = cls.__new__(cls)
        g.c = c
        return g

    @classmethod
    def term(cls, weight, coeff=1):
        wk = _pack(weight) << FIELD
        return cls._new({wk + vk: x for vk, x in cls._split(coeff) if x})

    @classmethod
    def const(cls, coeff, rank):
        return cls((((0,) * rank, coeff),))

    def rank(self):
        """The number of weight fields; 0 for the zero element."""
        return _rank(next(iter(self.c))) if self.c else 0

    def __add__(self, other):
        if not isinstance(other, GA):
            return NotImplemented
        c = self.c.copy()
        for k, x in other.c.items():
            s = c.get(k, 0) + x
            if s:
                c[k] = s
            else:
                del c[k]
        return type(self)._new(c)

    def __neg__(self):
        return type(self)._new({k: -x for k, x in self.c.items()})

    def __sub__(self, other):
        if not isinstance(other, GA):
            return NotImplemented
        c = self.c.copy()
        for k, x in other.c.items():
            s = c.get(k, 0) - x
            if s:
                c[k] = s
            else:
                del c[k]
        return type(self)._new(c)

    def __mul__(self, other):
        if isinstance(other, GA):
            # a Scalar is the rank-0 case: the product has the other type
            cls = type(other) if type(self) is Scalar else type(self)
            a, b = self.c, other.c
            c = {}
            if a and b:
                _check(c, _mul_into(c, a, b))
            return cls._new(c)
        if isinstance(other, int):
            if not other:
                return type(self)._new({})
            return type(self)._new({k: x * other for k, x in self.c.items()})
        return NotImplemented

    __rmul__ = __mul__

    @classmethod
    def dot(cls, pairs):
        """sum s * t over (s, t) pairs in one accumulator, with no
        intermediate product or sum: s and t are elements (a Scalar is
        the rank-0 case) or one of them an int."""
        acc = {}
        rank = 0
        for s, t in pairs:
            if not isinstance(s, GA):
                s, t = t, s
            a = s.c
            if not a or not t:
                continue
            if isinstance(t, GA):
                rank = max(rank, _mul_into(acc, a, t.c))
            else:
                _add_products(acc, ((0, t),), a.items())
                rank = max(rank, _rank(next(iter(a))))
        _check(acc, rank)
        return cls._new(acc)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers: invert explicitly")
        out = type(self)._new({_BIAS[self.rank()]: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, GA):
            return self.c == other.c
        if isinstance(other, int):
            if not other:
                return not self.c
            return self.c == {_BIAS[self.rank()]: other}
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def terms(self):
        """(weight tuple, Scalar coefficient) pairs, weights ascending."""
        r = self.rank()
        groups = {}
        for k in sorted(self.c):
            groups.setdefault(k >> FIELD, {})[k & MASK] = self.c[k]
        return [(_weight(wk << FIELD, r), Scalar._new(vc))
                for wk, vc in groups.items()]

    # -- lattice / Weyl operations ------------------------------------
    def transform(self, mat):
        """e^mu -> e^{mat mu} for an invertible integer matrix, such as a
        Weyl matrix, given as a tuple of row tuples: each key moves by
        mu_j times the packed column j of mat - 1, over the columns where
        that is nonzero (`_moves`), one for a simple reflection.  The
        layout comes from len(mat), so the zero element transforms too."""
        r = len(mat)
        moves = _moves(mat)
        c = {}
        for k, x in self.c.items():
            kk = k
            for s, col in moves:
                kk += ((k >> s & MASK) - _HALF) * col
            c[kk] = x
        if len(c) != len(self.c):
            raise ValueError("matrix is not invertible on the keys")
        _check(c, r)
        return type(self)._new(c)

    def _negate(self, weights, v):
        """Negate the weight exponents and/or the v exponent."""
        r = self.rank()
        bias = _BIAS[r]
        c = {}
        for k, x in self.c.items():
            vk = k & MASK
            if weights:  # every field negated, then the v field restored
                k = 2 * bias - k + 2 * (vk - _HALF)
            if v:
                k += 2 * (_HALF - vk)
            c[k] = x
        _check(c, r)
        return type(self)._new(c)

    def dual_vee(self):
        """e^mu -> e^-mu, y -> y^-1 (equivalently v -> v^-1)."""
        return self._negate(True, True)

    def star(self):
        """e^mu -> e^-mu, parameters fixed."""
        return self._negate(True, False)

    def y_inverse(self):
        """v -> v^-1, weights fixed: y -> y^-1 and q -> q^-1 on the even
        part of a Scalar."""
        return self._negate(False, True)

    # -- division -----------------------------------------------------
    def exact_div(self, other):
        """Exact quotient self/other, or None when not divisible.

        A two-term divisor, the shape of every Demazure-Lusztig
        denominator 1 - e^gamma and of a linear form, divides
        line by line (`_line_div`); the quotient then passes `_check`
        once (its keys are walk keys, so in range, when the divisor's
        leading key is that of a constant), and in a polynomial ring a
        negative exponent means no quotient.  A longer divisor d first
        tries a one-term quotient when self has |d| terms, as a monomial
        times d has (`_monomial_div`), under the same two tests.
        Otherwise it takes the long division (`_long_div`) inside a box: an exact quotient q of
        Laurent polynomials satisfies, field by field, max(q) = max(self)
        - max(other) and likewise for min (the extreme monomials of a
        product never cancel), so every quotient monomial lies in that
        box, cut at 0 in a polynomial ring; a reduction step that leaves
        the box proves indivisibility, and steps inside it are finitely
        many since the leading key strictly decreases.  The box test is
        two packed subtractions: every field difference is far below the
        bias in size, so a negative one borrows and sets the top bit of
        its field.  The box fields are read through C-level maps.  Every
        quotient key passes the box test, so when the box lies inside
        [-LIMIT, LIMIT) in every field the quotient is in range and the
        final `_check` is skipped; otherwise it runs.  An exponent out of
        range raises ValueError.
        """
        if not other:
            raise ZeroDivisionError
        a, d = self.c, other.c
        if not a:
            return type(self)._new({})
        r = _rank(next(iter(a)))
        bias = _BIAS[r]
        if len(d) == 2:
            quot = _line_div(a, d, bias)
            if quot is None:
                return None
            if max(d) != bias:  # else the quotient keys are walk keys
                _check(quot, r)
            if not self.laurent and _negative(quot, r):
                return None
            return type(self)._new(quot)
        if len(a) == len(d):
            quot = _monomial_div(a, d, bias)
            if quot is not None:
                if not self.laurent and _negative(quot, r):
                    return None
                _check(quot, r)
                return type(self)._new(quot)
        lok = hik = 0
        inside = True  # the box lies in [-LIMIT, LIMIT) in every field
        top = FIELD * r
        for s in range(0, top + 1, FIELD):
            if s == top:  # the top field orders the keys
                amin, amax, dmin, dmax = (
                    min(a) >> s, max(a) >> s, min(d) >> s, max(d) >> s)
            else:
                fa = list(map(MASK.__and__, map(s.__rrshift__, a)))
                fd = list(map(MASK.__and__, map(s.__rrshift__, d)))
                amin, amax, dmin, dmax = min(fa), max(fa), min(fd), max(fd)
            lo = amin - dmin
            hi = amax - dmax
            if not self.laurent:
                lo = max(lo, 0)
            if lo > hi:
                return None
            inside = inside and -LIMIT <= lo and hi < LIMIT
            lok += (lo + _HALF) << s
            hik += (hi + _HALF) << s
        box = (lok, hik, bias | (1 << (FIELD * (r + 1))))
        quot = _long_div(a, d, bias, box)
        if quot is None:
            return None
        if not inside:
            _check(quot, r)
        return type(self)._new(quot)

    # -- display ------------------------------------------------------
    def render(self, mono, var=None):
        """The text of the element, leading term first: `mono` maps a
        weight tuple to its monomial text ("1" for the weight 0), each
        coefficient is rendered by Scalar.render(var), and
        `render_terms` joins the terms.  GA.terms, not an override,
        gives the Scalar coefficients, so a CohPoly renders too."""
        return render_terms([(x.render(var=var), len(x.c) == 1, mono(k))
                             for k, x in reversed(GA.terms(self))])

    def __repr__(self):
        return "GA(%s)" % self.render(exp_mono(1))


class Scalar(GA):
    """A Laurent polynomial in v with integer coefficients: the rank-0
    case of GA, whose keys hold only the v field.  The constructor takes
    {v exponent: integer coefficient}.

    All Hecke-algebra and K-theory computations share this one formal
    parameter v.  The Hecke parameter is q = v^2 and the motivic
    parameter is y = -v^2, so the substitution q = -y is an identity of
    the ring rather than an operation that can be applied
    inconsistently.  Half-integral powers of q (needed for the stable
    basis) are plain odd powers of v."""

    __slots__ = ()

    def __init__(self, c=None):
        self.c = {_pack((n,)): x for n, x in c.items() if x} if c else {}

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero():
        return Scalar()

    @staticmethod
    def one():
        return Scalar.v(0)

    @staticmethod
    def int(n):
        return Scalar.v(0, n)

    @staticmethod
    def v(n=1, coeff=1):
        return Scalar({n: coeff})

    @staticmethod
    def q(n=1, coeff=1):
        """coeff * q^n  (q = v^2; n may be a half-integer times 2 via v)."""
        return Scalar({2 * n: coeff})

    @staticmethod
    def y(n=1, coeff=1):
        """coeff * y^n  (y = -v^2)."""
        return Scalar({2 * n: -coeff if n % 2 else coeff})

    def _exps(self):
        """{v exponent: coefficient}."""
        return {k - _HALF: x for k, x in self.c.items()}

    # -- substitutions ------------------------------------------------
    def is_even(self):
        """True when every power of v is even, i.e. the scalar lies in
        the subring Z[y, y^-1] = Z[q, q^-1]."""
        return all(k % 2 == 0 for k in self.c)

    def y_coeffs(self):
        """Return {y-exponent: coefficient}; requires an even scalar."""
        return {n: -x if n % 2 else x for n, x in self.q_coeffs().items()}

    def q_coeffs(self):
        """Return {q-exponent: coefficient}; requires an even scalar."""
        if not self.is_even():
            raise ValueError("scalar has odd v-powers: %s" % self)
        return {k // 2: x for k, x in self._exps().items()}

    # -- display ------------------------------------------------------
    def render(self, var=None):
        """Render in terms of y (default when even), q, t = q or raw v."""
        if not self.c:
            return "0"
        if var is None:
            var = "y" if self.is_even() else "v"
        if var in ("y", "q", "t") and self.is_even():
            coeffs = self.y_coeffs() if var == "y" else self.q_coeffs()
        else:
            var = "v"
            coeffs = self._exps()
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
        return {str(k): x for k, x in sorted(self._exps().items())}
