"""Fixed-point localization on G/B, shared by K-theory and cohomology.

A class is stored by its restrictions to the torus fixed points e_w, as
a dict {w: ring element}; the ring is charring.GA (packed keys, int
coefficients) in K-theory and csm.CohPoly in cohomology.  The two
theories differ only in that ring, in the Euler factor eul(mu) of a
cotangent weight mu, in the coefficients (b, e, d) of the
Demazure-Lusztig operators and in how the Weyl group acts on ring
elements; a subclass supplies those, and this class does the rest: the
operator recursion for the classes of Schubert cells, the Atiyah-Bott
sum and the expansion of a class in the cell basis.

Every value is a ring element.  Every Demazure-Lusztig step of the
package is (a x - b f)/d with a = b + e d, computed as b D + e x over
the one exact division D = (x - f)/d, polynomial by theory and asserted
so: `dl_step` in specialfn.dl_simple and csm.t_left,
and the right operator `dl_right`, which divides once per pair
{x, x s_i}.

The right operator T_i of Aluffi-Mihalcea-Schuermann-Su,
(F T_i)|_x = ((x s_i)(a) F|_{x s_i} - b F|_x) / x(d), takes cell(v) to
cell(v s_i) when l(v s_i) > l(v), starting from the point class.  It
gives the classes of the paper's left operators (the test reference
`dl_left`) but is K_T(pt)-linear, so `dl_right` makes no Weyl move: the
pair data of `_dr(i)` carry them all.  Those of a pair x < x s_i are
functions of the root x(alpha_i) alone, so they are made once per
positive root, on its first pair (`_root`).  `cell_class` builds the full
classes with it.  In K-theory at y = -q, conjugated by the star
e^mu -> e^{-mu}, which fixes scalars, it is the affine Hecke operator
on stable envelopes (oracle.KOracle.hecke_T_on_stab).

The expansions run on slice parts.  At every fixed point x, each
cell(v)|_x is divisible by P_x, a product of l(x) factors: P_id = 1 and
P_{x s_i} = P_x x(a) when l(x s_i) > l(x).  `slice_class(v)` caches the
slice parts Q_{v,x} = cell(v)|_x / P_x, and the recursion runs on them
too, with one exact division per pair {x, x s_i} and no Weyl move
(`_slice_step`).  Both climb the prefix tree of the canonical words
(`_climb`): the class of w is one step from that of its longest proper
prefix, so each class is built once, from one already built.  A slice
part is a Minkowski summand of the full value, since P_x has the
monomial 1, so it stays in the exponent range of that value.

The expansion in the cell basis is a triangular solve of exact
divisions (`_expand`).  A product G cell(w) expands on slice parts, on
values a third the size: every remainder of the solve of G|_x Q_{w,x}
against the slice parts is the full solve's over P_x, so every quotient
is the same.  Each genuine quotient is one exact division over a
W-fixed denominator.  For a positive root b, eul(b) is a unit times
eul(-b), so a sum of numerators over Euler factors of weights +-b is a
ring sum over the product of the eul(-b) (`cofactor`, `root_quotient`):
the Atiyah-Bott sum over the Weyl denominator, the G/P pushforward
coset by coset and specialfn's orbit sums.  A Segre-type class is a
ring-valued numerator class over one W-invariant constant, so its
pairing is one more exact division by that constant.

The ring arithmetic is fused (charring.GA.dot): a step forms its sums
in one accumulator, and `integral` its whole Atiyah-Bott sum.

The slice recursion and the solve run on lines (`_lines`): each value, in
K-theory a polynomial in y = -v^2, is kept as its y-line
(charring.to_line), one int per weight, so `dot`, `exact_div` and
`_add_products` multiply one integer per pair of weights; the right step
is K_T(pt)-linear and its divisors are v-free.  In cohomology there is no v
(`packed` false) and a line holds plain ints.  In K-theory every run
certifies (charring.fits) that each line is its polynomial, all
coefficients in [-2^(SLOT-1), 2^(SLOT-1)): v^2 -> 2^SLOT is a ring map,
one-to-one there, so a quotient q decoded from the integer quotient of a
by d is a / d when every coefficient of q d - a lies there too.  Each slice
part keeps a bound on its max norm: `_slice_step` bounds E D - (Q_x - b
Q_{x s_i}) and Q'_x, and keeps the max norm of E = Q'_{x s_i}, read off
its slots, and the bound just certified for Q'_x.  The solve bounds the
remainder at x by the bound of F|_x plus, over the pivots v so far,
||g_v||_1 times that of Q_{v,x}, the quotient at x counted once x has
been a pivot.  An upper bound is all that these need; one that reaches
2^(SLOT-1) raises ValueError.  Only the coefficients g_v, and the parts
that `slice_class` returns, are decoded.

The triangular solve keeps its remainder as raw line dicts, copied from
F once at the start, so neither F nor the cached classes change; it
subtracts g cell(v)|_x into them in place, with no product or
difference built and -g's terms made once per pivot, and passes each
remainder through `_check` just before dividing it, so an exponent that
left the range raises ValueError there rather than reaching a quotient.
"""

from __future__ import annotations

from .charring import (
    FIELD, _BIAS, _HALF, _add_products, _check, _wneg, fits, from_line,
    line_max, to_line,
)


def _delta(x, f, d):
    """(x - f) / d, asserted exact: the one division of a step."""
    g = (x - f).exact_div(d)
    assert g is not None, "Demazure-Lusztig step is not polynomial"
    return g


def dl_step(b, e, x, f, d):
    """b (x - f)/d + e x: one step of a Demazure-Lusztig or Demazure
    operator at a point, with x the value brought along the s_i edge and
    f the value at the point.  It is (a x - b f)/d for a = b + e d, the
    operator's first numerator, which is b modulo d for every operator
    of the package.  The quotient is exact, polynomial for every class
    the operators act on."""
    return type(d).dot(((b, _delta(x, f, d)), (e, x)))


class Localization:
    """Localization model for one root system; caches are write-once.

    Subclasses set `ring` and define `_euler(mu)` for mu in fundamental
    coordinates, the static `dl_coeffs(rs, i)` and `_act(w, g)`; a ring
    without v sets `packed` false, so that its lines hold plain ints.
    """

    ring = None
    packed = True  # lines pack the powers of y (see the module docstring)

    def __init__(self, rs):
        self.rs = rs
        self.W = rs.weyl()
        self.W.order  # the whole group, refused above WEYL_CAP before any class
        self.rank = rs.rank
        self.N = rs.n_positive()
        self.pos_roots = [a.fund for a in rs.positive_roots]
        # per positive root b: the factor eul(-b) of the Weyl denominator
        # and the unit eul(-b) / eul(b)
        self._den = {b: self._euler(_wneg(b)) for b in self.pos_roots}
        self._unit = {
            b: self._den[b].exact_div(self._euler(b)) for b in self.pos_roots
        }
        self._cells = {0: self.point_class()}
        self._slices = {0: self._lines(self._cells[0])}
        self._stab, self._starred = {}, {}  # KOracle.stab, its stars
        self._steps, self._roots = {}, {}
        self._ab = None

    def _one(self):
        return self.ring.const(1, self.rank)

    # -- pointwise ring structure --------------------------------------
    def point_class(self):
        """The class of the point e_id: the product of its Euler factors."""
        g = self._one()
        for b in self.pos_roots:
            g = g * self._euler(b)
        return {0: g}

    def mul(self, F, G):
        out = {}
        for w, f in F.items():
            if w in G:
                p = f * G[w]
                if p:
                    out[w] = p
        return out

    def add(self, F, G):
        out = dict(F)
        for w, g in G.items():
            s = out[w] + g if w in out else g
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return out

    def classes_equal(self, F, G):
        z = self.ring()
        return all(F.get(v, z) == G.get(v, z) for v in set(F) | set(G))

    # -- Demazure-Lusztig ----------------------------------------------
    def _dr(self, i):
        """The pairs x < x s_i of the right steps for s_i, built once, as
        (x, x s_i, ring data, line data) with the data of the root beta =
        x(alpha_i) (`_root`), made on its first pair for any i."""
        pairs = self._steps.get(i)
        if pairs is None:
            W = self.W
            b, e, d = self.dl_coeffs(self.rs, i)
            v = (-self._act(W.from_word((i,)), d)).exact_div(d)
            assert v is not None, "s_i(d) / d is not polynomial"
            alpha = self.rs.weight(self.rs.simple_roots[i].fund)
            step, length, act_key = W.step, W.length, W.act_key
            roots = self._roots
            pairs = []
            for x in W.order:
                xs = step(x, i)
                if length[xs] > length[x]:
                    k = act_key(x, alpha)
                    if k not in roots:
                        roots[k] = self._root(b, e, d, v, x, xs)
                    pairs.append((x, xs) + roots[k])
            self._steps[i] = pairs
        return pairs

    def _root(self, b, e, d, v, x, xs):
        """The data of the pairs x < x s_i with x(alpha_i) = beta, for (b,
        e, d) = `dl_coeffs(rs, i)` and v = -s_i(d) / d (e^{alpha_i} in
        K-theory, 1 in cohomology), so that s_i(v) = 1 / v.  b and e do
        not depend on i, and d and v depend on it through alpha_i alone,
        so with D = (x s_i)(d) these are functions of beta: the ring data
        (D, b x(v), b, -e x(v), -e (x s_i)(v)) of `dl_right` and the line
        data (D, -b, b x(v), e D, norms) of `_slice_step`, -b as an int
        and, in a packed ring, norms the l1 norms of D, b, b x(v) and e D
        for its certificate (else None)."""
        act = self._act
        D = act(xs, d)
        xv = act(x, v)
        bxv, eD = xv * b, D * e
        ring = (D, bxv, b, xv * -e, act(xs, v) * -e)
        if isinstance(b, int):
            mb, b1 = -b, abs(b)
        else:  # a Scalar: its line is one int at the weight key 0
            mb, b1 = -to_line(b.c)[0], sum(map(abs, b.c.values()))
        norms = None
        if self.packed:
            norms = (sum(map(abs, D.c.values())), b1,
                     sum(map(abs, bxv.c.values())),
                     sum(map(abs, eD.c.values())))
        new = self.ring._new
        return ring, (new(to_line(D.c)), mb, new(to_line(bxv.c)),
                      new(to_line(eD.c)), norms)

    def dl_right(self, i, F):
        """F T_i for the right operator (see the module docstring).  On each
        pair x < x s_i, with D = (x s_i)(d) = -x(v) x(d) and 1 / x(v) =
        (x s_i)(v), it is

            Delta = (F|_x - F|_{x s_i}) / D,
            (F T_i)|_x = b x(v) Delta - e x(v) F|_{x s_i},
            (F T_i)|_{x s_i} = b Delta - e (x s_i)(v) F|_x:

        one exact division per pair and no Weyl move."""
        dot = self.ring.dot
        zero = self.ring()
        out = {}
        for x, xs, (D, bxv, b, exv, exsv), _ in self._dr(i):
            if x not in F and xs not in F:
                continue
            f = F.get(x, zero)
            g = F.get(xs, zero)
            delta = (f - g).exact_div(D)
            assert delta is not None, "Demazure-Lusztig step is not polynomial"
            h = dot(((bxv, delta), (exv, g)))
            if h:
                out[x] = h
            h = dot(((b, delta), (exsv, f)))
            if h:
                out[xs] = h
        return out

    def _slice_step(self, i, F):
        """The slice parts of F T_i from those of F = cell(w), l(w s_i) >
        l(w), as lines with bounds on their max norms (see `_lines`): E's
        read off its slots, since a quotient has no a-priori bound, and
        Q'_x's the bound its certificate has just proved.  With P_{x s_i} =
        P_x x(a) on each pair x < x s_i, the right operator (see the
        module docstring) becomes

            Q'_{x s_i} = E = (Q_x - b Q_{x s_i}) / D,
            Q'_x = b x(v) E + e D Q_{x s_i},

        by a s_i(a) - b^2 = e d s_i(d): one exact division per pair."""
        Q, N = F
        dot = self.ring.dot
        zero = self.ring()
        out = {}
        M = None if N is None else {}
        for x, xs, _, (D, mb, bxv, eD, norms) in self._dr(i):
            if x not in Q and xs not in Q:
                continue
            q = Q.get(xs, zero)
            E = dot(((1, Q.get(x, zero)), (mb, q))).exact_div(D)
            assert E is not None, "Demazure-Lusztig step is not polynomial"
            g = dot(((bxv, E), (eD, q)))
            if M is not None:
                # the certificate: E is Q'_{x s_i} when every coefficient
                # of E D - (Q_x - b Q_{x s_i}) lies below a slot, and g
                # is the line of Q'_x when every coefficient of it does
                d1, b1, bx1, ed1 = norms
                nq = N.get(xs, 0)
                e = line_max(E.c)
                fits(e * d1 + N.get(x, 0) + b1 * nq)
                n = e * bx1 + ed1 * nq
                fits(n)
                if E:
                    M[xs] = e
                if g:
                    M[x] = n
            if E:
                out[xs] = E
            if g:
                out[x] = g
        return out, M

    def _climb(self, cache, step, w):
        """cache[w], made by `step(i, F)` from F = cache[x], x = w s_i for
        the last letter i of w's canonical word: a prefix of a lex-least
        reduced word is lex-least, so the classes follow the prefix tree
        of the canonical words (Casselman 1994), l(x s_i) > l(x) on every
        step, and each step makes one new class."""
        if w not in cache:
            i = self.W.word(w)[-1]
            cache[w] = step(i, self._climb(cache, step, self.W.step(w, i)))
        return cache[w]

    def _slice_lines(self, w):
        """The slice parts of cell(w) as lines with their norms, by the
        slice step from the point class (P_id = 1)."""
        return self._climb(self._slices, self._slice_step, w)

    def slice_class(self, w):
        """{x: Q} with cell(w)|_x = Q P_x: the slice parts of the class of
        X(w)^o, decoded from their lines."""
        return {x: self._decode(q)[0]
                for x, q in self._slice_lines(w)[0].items()}

    def cell_class(self, w):
        """The class of the Schubert cell X(w)^o, by `dl_right` from the
        point class."""
        return self._climb(self._cells, self.dl_right, w)

    def opposite_cell_class(self, w):
        """The class of the opposite cell Y(w)^o = w0 X(w0 w)^o, by the
        left w0 action (w0 F)|_v = w0(F|_{w0 v}), made on each call."""
        W = self.W
        F = self.cell_class(W.mul(W.w0, w))
        moved = {W.mul(W.w0, u): self._act(W.w0, f) for u, f in F.items()}
        return {u: moved[u] for u in W.ordered(moved)}

    # -- quotients over root factors -----------------------------------
    def cofactor(self, weights, roots=None):
        """m with 1 / prod_{mu in weights} eul(mu) = m / prod_{b} eul(-b)
        over the positive roots b in `roots` (default all), for weights
        that are +-b for distinct b: eul(b) is eul(-b) over a unit."""
        roots = self.pos_roots if roots is None else roots
        m = self._one()
        rest = set(roots)
        for mu in weights:
            if mu in rest:
                m = m * self._unit[mu]
                rest.remove(mu)
            else:
                rest.remove(_wneg(mu))
        for b in rest:
            m = m * self._den[b]
        return m

    def root_quotient(self, num, roots=None):
        """num / prod_{b in roots} eul(-b), which must be a polynomial;
        `roots` defaults to all positive roots."""
        d = self._one()
        for b in self.pos_roots if roots is None else roots:
            d = d * self._den[b]
        g = num.exact_div(d)
        assert g is not None, "localization sum is not polynomial"
        return g

    def integral(self, F):
        """Atiyah-Bott: the pushforward of F to a point,
        sum_w F|_w / prod_{alpha>0} eul(w alpha)."""
        if self._ab is None:
            W = self.W
            self._ab = [
                self.cofactor([W.act(w, b) for b in self.pos_roots])
                for w in range(W.n)
            ]
        ab = self._ab
        return self.root_quotient(
            self.ring.dot((f, ab[w]) for w, f in F.items())
        )

    # -- lines ---------------------------------------------------------
    def _lines(self, F):
        """(lines, norms) of a class F: {x: the line of F|_x} and, in a
        packed ring, {x: ||F|_x||_inf}, else None."""
        new = self.ring._new
        lines = {x: new(to_line(f.c)) for x, f in F.items()}
        if not self.packed:
            return lines, None
        return lines, {x: max(map(abs, f.c.values())) for x, f in F.items()}

    def _decode(self, g):
        """(f, ||f||_1) for the ring element f whose line is g, the norm
        None when lines hold plain ints; the range is checked."""
        if not self.packed:
            return self.ring._new(
                {(k << FIELD) + _HALF: x for k, x in g.c.items()}), None
        c, n1 = from_line(g.c)
        _check(c, self.rank)
        return self.ring._new(c), n1

    # -- expansion in the cell basis -----------------------------------
    def _expand(self, F, cell, points=None):
        """{u: coefficient} of F in the cell basis by a triangular solve
        from the top: once the cells above v are subtracted, the
        coefficient at v is F|_v over the diagonal cell(v)|_v.  F and the
        values of `cell` are (lines, norms) pairs (see `_lines`); `cell`
        maps a fixed point to its cell class (on G/P, the pushed-forward
        one; with F's slice parts, the slice parts), and `points` lists
        the fixed points in Bruhat-compatible order, all of W in its
        `order` by default.  The coefficients are decoded ring elements.

        The remainders are copies of F's line dicts, written in place (see
        the module docstring), except at x = v: the exact division has
        shown that rem[v] is g cell(v)|_v.  In a packed ring, bound[x]
        bounds every coefficient of the remainder at x, with the
        quotient at x itself once x has been a pivot, and `fits`
        certifies each bound as it grows."""
        if points is None:
            points = self.W.order
        ring = self.ring
        rank = self.rank - 1  # line keys hold the weight fields only
        bias = _BIAS[rank]
        lines, norms = F
        rem = {x: dict(f.c) for x, f in lines.items()}
        bound = None if norms is None else dict(norms)
        out = {}
        for v in reversed(points):
            c = rem.pop(v, None)
            if not c:
                continue
            _check(c, rank)
            cv, nv = cell(v)
            g = ring._new(c).exact_div(cv[v])
            assert g is not None, "non-polynomial Chevalley coefficient"
            out[v], g1 = self._decode(g)
            if bound is not None:
                for x, n in nv.items():
                    bound[x] = b = bound.get(x, 0) + g1 * n
                    fits(b)
            neg = [(k - bias, -a) for k, a in g.c.items()]
            for x, f in cv.items():
                if x != v:
                    _add_products(rem.setdefault(x, {}), neg, f.c.items())
        assert not any(rem.values()), "expansion left a remainder"
        return out
