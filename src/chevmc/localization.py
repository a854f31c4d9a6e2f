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
so: `dl_step` in specialfn (ScalarDL) and csm.DegenerateHecke.t_left;
`Localization.dl_left`, which divides once per pair {w, s_i w} since
D(s_i w) = u_i s_i(D(w)); and oracle.StableBasis.hecke_T, which divides
once per pair {w, w s_i} since D(w s_i) = e^{w a_i} D(w).  The expansion in the cell basis is a
triangular solve of exact divisions.  Each genuine quotient is one
exact division over a W-fixed denominator.  For a positive root b,
eul(b) is a unit times eul(-b), so a sum of numerators over Euler
factors of weights +-b is a ring sum over the product of the eul(-b)
(`cofactor`, `root_quotient`): the Atiyah-Bott sum over the Weyl
denominator, the G/P pushforward coset by coset and specialfn's orbit
sums.  A Segre-type class is a ring-valued numerator class over one W-invariant
constant, so its pairing is one more exact division by that constant.

The ring arithmetic is fused (charring.GA.dot): a step forms b D + e x
in one accumulator, and `integral` its whole Atiyah-Bott sum.  The
triangular solve keeps its remainder as raw coefficient dicts, each
copied from F on its first write, so neither F nor the cached cell
classes change; it subtracts g cell(v)|_x into them in place, with no
product or difference built, and passes each written remainder through
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
        """The data of `dl_left` for s_i, built once: (b, e, d) =
        `dl_coeffs(rs, i)`, the coefficients b' = s_i(b u_i) and e' =
        s_i(e) of the step at s_i w, with u_i = -s_i(d)/d by an
        asserted exact division, s_i and the map w -> s_i w."""
        data = self._dl_data.get(i)
        if data is None:
            W = self.W
            b, e, d = self.dl_coeffs(self.rs, i)
            si = W.from_word((i,))
            u = (-self._act(si, d)).exact_div(d)
            assert u is not None, "s_i(d) / d is not polynomial"
            one = self._one()
            data = self._dl_data[i] = (
                b, e, d, self._act(si, one * b * u), self._act(si, one * e),
                si, [W.inv[W.right[W.inv[w]][i]] for w in range(W.n)],
            )
        return data

    def dl_left(self, i, F):
        """The left Demazure-Lusztig operator T_i on a ring-valued class,
        with (b, e, d) = `dl_coeffs(rs, i)`:

            (T_i F)|_w = b D(w) + e x(w),  x(w) = s_i(F|_{s_i w}),
            D(w) = (x(w) - F|_w) / d,

        which is (a x(w) - b F|_w) / d with a = b + e d.  The points w
        and s_i w share one division: D(s_i w) = u_i s_i(D(w)) with
        u_i = -s_i(d)/d (e^{alpha_i} in K-theory, 1 in cohomology), so

            (T_i F)|_{s_i w} = s_i(s_i(b u_i) D(w) + s_i(e) F|_w).
        """
        b, e, d, bs, es, si, left = self._dl(i)
        dot = self.ring.dot
        act = self._act
        zero = self.ring()
        out = {}
        for w, sw in enumerate(left):
            if sw < w or (w not in F and sw not in F):
                continue  # each pair {w, s_i w} once, from its lower point
            f = F.get(w, zero)
            x = act(si, F[sw]) if sw in F else zero
            D = _delta(x, f, d)
            g = dot(((b, D), (e, x)))
            if g:
                out[w] = g
            g = act(si, dot(((bs, D), (es, f))))
            if g:
                out[sw] = g
        return out

    def cell_class(self, w):
        """The class of the Schubert cell X(w)^o by the Demazure-Lusztig
        recursion from the point class."""
        cache = self._cells
        if w not in cache:
            if w == 0:
                cache[0] = self.point_class()
            else:
                word = self.W.word(w)
                rest = self.W.from_word(word[1:])
                cache[w] = self.dl_left(word[0], self.cell_class(rest))
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
    def _expand(self, F, cells=None):
        """{u: coefficient} of F in the cell basis by a triangular solve
        from the top: once the cells above v are subtracted, the
        coefficient at v is F|_v over the diagonal cell(v)|_v.  `cells`
        maps the fixed points in Bruhat-compatible order to their cell
        classes (on G/P, the pushed-forward ones); the default is the
        cells of G/B.

        The remainder is written in place (see the module docstring),
        except at x = v: the exact division has shown that rem[v] is
        g cell(v)|_v."""
        if cells is None:
            points, cell = range(self.W.n), self.cell_class
        else:
            points, cell = list(cells), cells.__getitem__
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
