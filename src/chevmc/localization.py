"""Fixed-point localization on G/B, shared by K-theory and cohomology.

A class is stored by its restrictions to the torus fixed points e_w, as
a dict {w: ring element}; the ring is charring.GA (packed keys, int
coefficients) in K-theory and csm.CohPoly in cohomology.  The two
theories differ only in that ring, in the Euler factor of a tangent
weight, in the three ring elements of the left Demazure-Lusztig
operator and in how the Weyl group acts on ring elements; a subclass
supplies those, and this class does the rest: the operator recursion
for the classes of Schubert cells, the Atiyah-Bott sum, the dual basis
by triangular inversion and the expansion of a class in the cell basis.

Every Demazure-Lusztig step of the package, here and in specialfn,
oracle.StableBasis and csm.DegenerateHecke, is `dl_step`: one exact
division, polynomial by theory and asserted so; the expansion in the
cell basis is a triangular solve of exact divisions as well.  Frac
appears only where a value is a genuine quotient: the Atiyah-Bott sum
(`atiyah_bott`, shared with specialfn) and the dual basis.  A
Frac-valued class (Segre classes, pushforwards) mixes with ring-valued
ones in `mul` and `classes_equal`.
"""

from __future__ import annotations

from .charring import Frac


def dl_step(a, x, b, f, d):
    """(a x - b f) / d: one step of a Demazure-Lusztig or Demazure
    operator at a point, with x the value brought along the s_i edge and
    f the value at the point.  An exact division, polynomial for every
    class the operators act on."""
    g = (a * x - b * f).exact_div(d)
    assert g is not None, "Demazure-Lusztig step is not polynomial"
    return g


class Localization:
    """Localization model for one root system; caches are write-once.

    Subclasses set `ring` and define `_euler_factor(w, root)`, the
    static `dl_coeffs(rs, i)` and `_act(w, g)`.
    """

    ring = None

    def __init__(self, rs):
        self.rs = rs
        self.W = rs.weyl()
        self.rank = rs.rank
        self.N = rs.n_positive()
        W = self.W
        self._eul = [
            tuple(self._euler_factor(w, a) for a in rs.positive_roots)
            for w in range(W.n)
        ]
        self._cells = {}
        self._dual = None

    def _one(self):
        return self.ring.const(1, self.rank)

    # -- pointwise ring structure --------------------------------------
    def point_class(self):
        """The class of the point e_id: the product of its Euler factors."""
        g = self._one()
        for f in self._eul[0]:
            g = g * f
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
    def dl_left(self, i, F):
        """The left Demazure-Lusztig operator T_i = (a s_i^L - b) / d on
        a ring-valued class, with (a, b, d) = `dl_coeffs(rs, i)`:

            (T_i F)|_w = (a s_i(F|_{s_i w}) - b F|_w) / d.
        """
        W = self.W
        a, b, d = self.dl_coeffs(self.rs, i)
        si = W.from_word((i,))
        zero = self.ring()
        out = {}
        for w in range(W.n):
            sw = W.mul(si, w)
            if sw in F or w in F:
                x = self._act(si, F[sw]) if sw in F else zero
                g = dl_step(a, x, b, F.get(w, zero), d)
                if g:
                    out[w] = g
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

    # -- Atiyah-Bott sum and the dual basis ----------------------------
    @classmethod
    def atiyah_bott(cls, F, eul):
        """sum_w F|_w / prod(eul[w]) for {w: ring element or Frac} and
        {w: tuple of Euler factors}, which must be a polynomial."""
        acc = Frac(cls.ring())
        for w, f in F.items():
            f = Frac.lift(f)
            acc = acc + Frac(f.num, f.den + eul[w])
        g = acc.as_poly()
        assert g is not None, "localization sum is not polynomial"
        return g

    def integral(self, F):
        """Atiyah-Bott: the pushforward of F to a point."""
        return self.atiyah_bott(F, self._eul)

    def pair(self, F, G):
        return self.integral(self.mul(F, G))

    def _dual_basis(self, order, cells, eul):
        """{u: D_u} with sum_w (cells[x] D_u)|_w / prod(eul[w]) = [u == x],
        by triangular inversion: cells[x] is supported on points that
        come no later than x in `order`."""
        one = self._one()
        inv_eul = {w: Frac(one, eul[w]) for w in order}
        dual = {u: {} for u in order}
        for x in order:
            cx = cells[x]
            diag = (cx[x] * inv_eul[x]).inverse()
            for u in order:
                acc = Frac(one if u == x else self.ring())
                for v, f in cx.items():
                    if v != x and v in dual[u]:
                        acc = acc - f * dual[u][v] * inv_eul[v]
                val = acc * diag
                if val:
                    dual[u][x] = val
        return dual

    def dual_class(self, u):
        """The basis dual to the cell classes under the pairing."""
        if self._dual is None:
            cells = {w: self.cell_class(w) for w in range(self.W.n)}
            self._dual = self._dual_basis(range(self.W.n), cells, self._eul)
        return self._dual[u]

    # -- expansion in the cell basis -----------------------------------
    def _expand_by_pairing(self, F, points, dual, eul):
        """{u: nonzero sum_w (F dual[u])|_w / prod(eul[w])} over `points`."""
        out = {}
        for u in points:
            g = self.atiyah_bott(self.mul(F, dual[u]), eul)
            if g:
                out[u] = g
        return out

    def _expand(self, F, w, method="solve"):
        """{u: coefficient} of F in the cell basis, for F supported on
        the Bruhat interval below w."""
        W = self.W
        if method == "pairing":
            points = [u for u in range(W.n) if W.leq(u, w)]
            dual = {u: self.dual_class(u) for u in points}
            return self._expand_by_pairing(F, points, dual, self._eul)
        if method != "solve":
            raise ValueError("unknown method %r" % method)
        # triangular solve against the cell basis, top length first:
        # the coefficient at v is rem|_v over the diagonal cell(v)|_v
        rem = dict(F)
        out = {}
        for v in reversed(range(W.n)):
            if v not in rem:
                continue
            cv = self.cell_class(v)
            g = rem[v].exact_div(cv[v])
            assert g is not None, "non-polynomial Chevalley coefficient"
            out[v] = g
            for x, f in cv.items():
                s = rem[x] - f * g if x in rem else -(f * g)
                if s:
                    rem[x] = s
                else:
                    del rem[x]
        assert not rem, "expansion left a remainder"
        return out
