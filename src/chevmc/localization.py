"""Fixed-point localization on G/B, shared by K-theory and cohomology.

A class is stored by its restrictions to the torus fixed points e_w, as
a dict {w: ring element}; the ring is charring.GA (packed keys, int
coefficients) in K-theory and csm.CohPoly in cohomology.  The two
theories differ only in that ring, in the Euler factor eul(mu) of a
cotangent weight mu, in the coefficients (b, e, d) of the left
Demazure-Lusztig operator and in how the Weyl group acts on ring
elements; a subclass supplies those, and this class does the rest: the
operator recursion for the classes of Schubert cells, the Atiyah-Bott
sum and the expansion of a class in the cell basis.

Every value is a ring element.  Every Demazure-Lusztig step of the
package is (a x - b f)/d with a = b + e d, computed as b D + e x over
the one exact division D = (x - f)/d, polynomial by theory and asserted
so: `dl_step` in specialfn (ScalarDL) and csm.DegenerateHecke.t_left,
and oracle.StableBasis.hecke_T, which divides once per pair {w, w s_i}
since D(w s_i) = e^{w a_i} D(w).

The cell classes are built on their slice parts.  The left operator
T_i, (T_i F)|_w = (a s_i(F|_{s_i w}) - b F|_w) / d, takes cell(v) to
cell(s_i v) when l(s_i v) > l(v), starting from the point class.  At
every fixed point x, each cell(v)|_x is divisible by P_x, the product of
the l(x) factors `cell_factor(x)`: P_id = 1 and P_{s_i w} = s_i(P_w) a_i
when l(s_i w) > l(w).  `slice_class(v)` caches the slice parts Q_{v,x} =
cell(v)|_x / P_x, and the recursion runs on them, with one exact
division per pair {w, s_i w} (`_slice_step`).  `cell_class` multiplies
the factors back for the users of full classes.  A slice part is a
Minkowski summand of the full value, since P_x has the monomial 1, so it
stays in the exponent range of that value.

The expansion in the cell basis is a triangular solve of exact
divisions.  The product G cell(w) expands on slice parts
(`expand_cell_product`), on values a third the size and with the same
quotients.  Each genuine
quotient is one exact division over a W-fixed denominator.  For a
positive root b, eul(b) is a unit times eul(-b), so a sum of numerators
over Euler factors of weights +-b is a ring sum over the product of the
eul(-b) (`cofactor`, `root_quotient`): the Atiyah-Bott sum over the
Weyl denominator, the G/P pushforward coset by coset and specialfn's
orbit sums.  A Segre-type class is a ring-valued numerator class over
one W-invariant constant, so its pairing is one more exact division by
that constant.

The ring arithmetic is fused (charring.GA.dot): a step forms its sums
in one accumulator, and `integral` its whole Atiyah-Bott sum.  The
triangular solve keeps its remainder as raw coefficient dicts, each
copied from F on its first write, so neither F nor the cached classes
change; it subtracts g cell(v)|_x into them in place, with no product
or difference built, and passes each written remainder through
`_check` just before dividing it, so an exponent that left the range
raises ValueError there rather than reaching a quotient.
"""

from __future__ import annotations

from .charring import _check, _mul_into, _wneg


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
    coordinates, the static `dl_coeffs(rs, i)` and `_act(w, g)`.
    """

    ring = None

    def __init__(self, rs):
        self.rs = rs
        self.W = rs.weyl()
        self.rank = rs.rank
        self.N = rs.n_positive()
        self.pos_roots = [a.fund for a in rs.positive_roots]
        # per positive root b: the factor eul(-b) of the Weyl denominator
        # and the unit eul(-b) / eul(b)
        self._den = {b: self._euler(_wneg(b)) for b in self.pos_roots}
        self._unit = {
            b: self._den[b].exact_div(self._euler(b)) for b in self.pos_roots
        }
        self._slices = {}
        self._factors = {}
        self._cells = {}
        self._opposite = {}
        self._dl_data = {}
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

    def w0_left(self, F):
        """The left w0 action: (w0 F)|_v = w0(F|_{w0 v})."""
        W = self.W
        out = {}
        for v in range(W.n):
            src = W.mul(W.w0, v)
            if src in F:
                out[v] = self._act(W.w0, F[src])
        return out

    # -- Demazure-Lusztig ----------------------------------------------
    def _dl(self, i):
        """The data of the slice step for s_i, built once: with (b, e, d)
        = `dl_coeffs(rs, i)`, the ring elements -b, d, b u and e d for
        u = -d / s_i(d) (an asserted exact division: e^{-alpha_i} in
        K-theory, 1 in cohomology), the factor a = b + e d, s_i and the
        map w -> s_i w."""
        data = self._dl_data.get(i)
        if data is None:
            W = self.W
            b, e, d = self.dl_coeffs(self.rs, i)
            si = W.from_word((i,))
            u = (-d).exact_div(self._act(si, d))
            assert u is not None, "d / s_i(d) is not polynomial"
            one = self._one()
            ed = one * e * d
            data = self._dl_data[i] = (
                one * -b, d, one * b * u, ed, one * b + ed,
                si, [W.inv[W.right[W.inv[w]][i]] for w in range(W.n)],
            )
        return data

    def _slice_step(self, i, Q):
        """The slice parts of T_i F from those of F, for F = cell(v) and
        l(s_i v) > l(v).  With P_{w'} = s_i(P_w) a on each pair w < w' =
        s_i w, the operator (see the module docstring) becomes

            Q'_{w'} = E = (s_i(Q_w) - b Q_{w'}) / d,
            Q'_w = s_i(b u E + e d Q_{w'}),   u = -d / s_i(d),

        by a s_i(a) - b^2 = e d s_i(d): one exact division per pair."""
        mb, d, bu, ed, _, si, left = self._dl(i)
        dot = self.ring.dot
        act = self._act
        zero = self.ring()
        out = {}
        for w, sw in enumerate(left):
            if sw < w or (w not in Q and sw not in Q):
                continue  # each pair {w, s_i w} once, from its lower point
            q = Q.get(sw, zero)
            E = dot(((1, act(si, Q.get(w, zero))), (mb, q))).exact_div(d)
            assert E is not None, "Demazure-Lusztig step is not polynomial"
            if E:
                out[sw] = E
            g = act(si, dot(((bu, E), (ed, q))))
            if g:
                out[w] = g
        return out

    def slice_class(self, w):
        """{x: Q} with cell(w)|_x = Q P_x, P_x the product of
        `cell_factor(x)`: the slice parts of the class of X(w)^o, by the
        Demazure-Lusztig recursion from the point class (P_id = 1)."""
        cache = self._slices
        if w not in cache:
            if w == 0:
                cache[0] = self.point_class()
            else:
                word = self.W.word(w)
                rest = self.W.from_word(word[1:])
                cache[w] = self._slice_step(word[0], self.slice_class(rest))
        return cache[w]

    def cell_factor(self, x):
        """The l(x) factors of P_x, read off a reduced word of x = s_i x'
        by P_x = a_i s_i(P_{x'}), with a_i = b + e d the first numerator
        of T_i: 1 + y e^{x beta} in K-theory and 1 - x(beta) in
        cohomology over the beta > 0 with x beta < 0."""
        cache = self._factors
        if x not in cache:
            if x == 0:
                cache[0] = []
            else:
                word = self.W.word(x)
                rest = self.W.from_word(word[1:])
                _, _, _, _, a, si, _ = self._dl(word[0])
                act = self._act
                cache[x] = [a] + [act(si, f) for f in self.cell_factor(rest)]
        return cache[x]

    def cell_class(self, w):
        """The class of the Schubert cell X(w)^o: its slice parts times
        their factors, one factor at a time."""
        cache = self._cells
        if w not in cache:
            out = {}
            for x, q in self.slice_class(w).items():
                for f in self.cell_factor(x):
                    q = q * f
                out[x] = q
            cache[w] = out
        return cache[w]

    def opposite_cell_class(self, w):
        """The class of the opposite cell Y(w)^o = w0 X(w0 w)^o."""
        if w not in self._opposite:
            W = self.W
            self._opposite[w] = self.w0_left(self.cell_class(W.mul(W.w0, w)))
        return self._opposite[w]

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

    def pair(self, F, G):
        return self.integral(self.mul(F, G))

    # -- expansion in the cell basis -----------------------------------
    def expand_cell_product(self, G, w):
        """{u: coefficient} of G cell(w) in the cell basis, solved on slice
        parts: every remainder of the solve on G|_x Q_{w,x} against the
        slice parts is the full solve's over P_x, so every quotient is
        the same."""
        return self._expand(self.mul(G, self.slice_class(w)), self.slice_class)

    def _expand(self, F, cell=None, points=None):
        """{u: coefficient} of F in the cell basis by a triangular solve
        from the top: once the cells above v are subtracted, the
        coefficient at v is F|_v over the diagonal cell(v)|_v.  `cell`
        maps a fixed point to its cell class (on G/P, the pushed-forward
        one; with F's slice parts, the slice parts), and `points` lists
        the fixed points in Bruhat-compatible order; the defaults are the
        cells of G/B and all of W.

        The remainder is written in place (see the module docstring),
        except at x = v: the exact division has shown that rem[v] is
        g cell(v)|_v."""
        if cell is None:
            cell = self.cell_class
        if points is None:
            points = range(self.W.n)
        ring = self.ring
        rank = self.rank
        rem = {x: f.c for x, f in F.items()}
        own = set()  # the points whose remainder dict is a private copy
        out = {}
        for v in reversed(points):
            c = rem.pop(v, None)
            if not c:
                continue
            if v in own:
                _check(c, rank)
            cv = cell(v)
            g = ring._new(c).exact_div(cv[v])
            assert g is not None, "non-polynomial Chevalley coefficient"
            out[v] = g
            for x, f in cv.items():
                if x == v:
                    continue
                if x not in own:
                    own.add(x)
                    rem[x] = dict(rem.get(x, ()))
                _mul_into(rem[x], g.c, f.c, -1)
        assert not any(rem.values()), "expansion left a remainder"
        return out
