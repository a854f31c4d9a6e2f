"""Affine Hecke algebra in Bernstein normal form (X on the left).

Elements are finite sums  sum c * X^mu T_w  with c in Z[q, q^-1]
(realized inside Z[v, v^-1], q = v^2).  Products are rewritten to the
normal form with the Bernstein relation

    T_s X^lambda - X^{s lambda} T_s = (1 - q) (X^{s lambda} - X^lambda)
                                      / (1 - X^{-alpha}),

whose right-hand side expands as a finite geometric sum.  The transition
coefficients c_{u,mu}^{w,lambda} are obtained either directly from this
arithmetic (transition_direct) or from a lambda-chain (transition_chain).
"""

from __future__ import annotations

from .params import Scalar
from .chevalley import chevalley_terms


class HeckeElement:
    """Finite map (w index, weight tuple) -> Scalar, in X-left normal form."""

    __slots__ = ("alg", "c")

    def __init__(self, alg, c=None):
        self.alg = alg
        self.c = {} if c is None else {k: x for k, x in c.items() if x}

    def __add__(self, other):
        c = dict(self.c)
        for k, x in other.c.items():
            s = c.get(k, Scalar.zero()) + x
            if s:
                c[k] = s
            elif k in c:
                del c[k]
        return HeckeElement(self.alg, c)

    def __neg__(self):
        return HeckeElement(self.alg, {k: -x for k, x in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if isinstance(s, int):
            s = Scalar.int(s)
        return HeckeElement(self.alg, {k: x * s for k, x in self.c.items()})

    def __eq__(self, other):
        return self.c == other.c

    def __bool__(self):
        return bool(self.c)

    def __mul__(self, other):
        return self.alg.mul(self, other)

    def __repr__(self):
        alg = self.alg
        W = alg.rs.weyl()
        parts = []
        for (w, mu), x in sorted(self.c.items()):
            parts.append(
                "(%s) X^%s T[%s]"
                % (x.render(var="q"), alg.rs.weight_user(mu), W.word_str(w))
            )
        return " + ".join(parts) if parts else "0"


class HeckeAlgebra:
    """The affine Hecke algebra of a finite root system."""

    def __init__(self, rs):
        self.rs = rs
        self.W = rs.weyl()
        self._tx_cache = {}

    # -- constructors -------------------------------------------------
    def zero(self):
        return HeckeElement(self)

    def one(self):
        return self.basis(0)

    def basis(self, w, mu=None, coeff=None):
        """X^mu T_w."""
        if mu is None:
            mu = (0,) * self.rs.rank
        if coeff is None:
            coeff = Scalar.one()
        return HeckeElement(self, {(w, tuple(mu)): coeff})

    def X(self, mu):
        return self.basis(0, self.rs.weight(mu))

    def T(self, word):
        return self.basis(self.W.from_word(word))

    # -- core rewriting -----------------------------------------------
    def _ts_x(self, i, mu):
        """T_{s_i} X^mu in normal form, as {(w, weight): Scalar}.

        T_s X^mu = X^{s mu} T_s + (1-q) * G with G the geometric sum of
        the Bernstein relation.
        """
        rs = self.rs
        si = self.W.from_word((i,))
        alpha_i = rs.weight(tuple(rs.cartan[k][i] for k in range(rs.rank)))
        if mu[i] % rs.h:
            raise ValueError("Hecke weights must be integral")
        m = mu[i] // rs.h  # <mu, alpha_i^vee>
        smu = rs.reflect(mu, self._simple_root(i))
        out = {(si, smu): Scalar.one()}
        one_minus_q = Scalar.int(1) - Scalar.q(1)
        if m > 0:
            # G = -(X^mu + X^{mu-alpha} + ... + X^{mu-(m-1)alpha})
            for k in range(m):
                w = tuple(c - k * a for c, a in zip(mu, alpha_i))
                out[(0, w)] = out.get((0, w), Scalar.zero()) + (-one_minus_q)
        elif m < 0:
            # G = X^{mu+alpha} + ... + X^{mu+|m|alpha}
            for k in range(1, -m + 1):
                w = tuple(c + k * a for c, a in zip(mu, alpha_i))
                out[(0, w)] = out.get((0, w), Scalar.zero()) + one_minus_q
        return {k: x for k, x in out.items() if x}

    def _simple_root(self, i):
        for rt in self.rs.positive_roots:
            if rt.height() == 1 and rt.simple[i] == 1:
                return rt
        raise AssertionError

    def _tw_x(self, w, mu):
        """T_w X^mu in normal form (memoized)."""
        key = (w, mu)
        if key in self._tx_cache:
            return self._tx_cache[key]
        word = self.W.word(w)
        if not word:
            out = {(0, mu): Scalar.one()}
        else:
            i, rest = word[0], word[1:]
            inner = self._tw_x(self.W.from_word(rest), mu)
            # T_w X^mu = T_i (T_rest X^mu)
            acc = {}
            for (x, nu), cx in inner.items():
                for (z, rho_), cz in self._ts_x(i, nu).items():
                    # X^rho_ T_z T_x with z in {s_i, id}
                    for (zz, _unused), czz in self._t_mul_t(z, x).items():
                        k = (zz, rho_)
                        s = acc.get(k, Scalar.zero()) + cx * cz * czz
                        if s:
                            acc[k] = s
                        elif k in acc:
                            del acc[k]
            out = acc
        self._tx_cache[key] = out
        return out

    def _t_mul_t(self, a, b):
        """T_a T_b as {(w, 0-weight): Scalar} (no X parts appear)."""
        zero = (0,) * self.rs.rank
        acc = {(a, zero): Scalar.one()}
        for i in self.W.word(b):
            nxt = {}
            for (w, _z), c in acc.items():
                wi = self.W.right[w][i]
                if self.W.length[wi] > self.W.length[w]:
                    k = (wi, zero)
                    nxt[k] = nxt.get(k, Scalar.zero()) + c
                else:
                    # T_w T_i = (q-1) T_w + q T_{w s_i}
                    k1 = (w, zero)
                    k2 = (wi, zero)
                    nxt[k1] = nxt.get(k1, Scalar.zero()) + c * (
                        Scalar.q(1) - Scalar.one()
                    )
                    nxt[k2] = nxt.get(k2, Scalar.zero()) + c * Scalar.q(1)
            acc = {k: x for k, x in nxt.items() if x}
        return acc

    def mul(self, a: HeckeElement, b: HeckeElement):
        out = {}
        for (w1, mu1), c1 in a.c.items():
            for (w2, mu2), c2 in b.c.items():
                coeff = c1 * c2
                # X^mu1 T_w1 X^mu2 T_w2
                for (x, nu), cx in self._tw_x(w1, mu2).items():
                    shifted = tuple(p + q for p, q in zip(mu1, nu))
                    for (z, _zero), cz in self._t_mul_t(x, w2).items():
                        k = (z, shifted)
                        s = out.get(k, Scalar.zero()) + coeff * cx * cz
                        if s:
                            out[k] = s
                        elif k in out:
                            del out[k]
        return HeckeElement(self, out)

    # -- inverses and involution --------------------------------------
    def t_simple_inverse(self, i):
        """T_{s_i}^-1 = q^-1 T_{s_i} + (q^-1 - 1)."""
        si = self.W.from_word((i,))
        zero = (0,) * self.rs.rank
        return HeckeElement(
            self,
            {
                (si, zero): Scalar.q(-1),
                (0, zero): Scalar.q(-1) - Scalar.one(),
            },
        )

    def t_winv_inverse(self, w):
        """T_{w^-1}^-1 = T_{i_1}^-1 ... T_{i_l}^-1 along the canonical
        word (i_1..i_l) of w."""
        out = self.one()
        for i in self.W.word(w):
            out = self.mul(out, self.t_simple_inverse(i))
        return out

    def theta(self, a: HeckeElement):
        """The algebra involution with Theta(T_s) = -q T_s^-1 and
        Theta(X^mu) = X^-mu."""
        out = self.zero()
        for (w, mu), c in a.c.items():
            term = self.basis(0, tuple(-m for m in mu), c)
            for i in self.W.word(w):
                # Theta(T_i) = -q T_i^-1
                term = self.mul(
                    term, self.t_simple_inverse(i).scale(Scalar.q(1, -1))
                )
            out = out + term
        return out

    # -- transition coefficients --------------------------------------
    def transition_direct(self, w, lam_fund):
        """c_{u,mu}^{w,lambda}: expand T_{w^-1}^-1 X^lambda in the basis
        X^mu T_{u^-1}^-1."""
        lam = self.rs.weight(lam_fund)
        elem = self.mul(self.t_winv_inverse(w), self.X(lam_fund))
        # convert from X^mu T_x to X^mu T_{u^-1}^-1 by triangular solve:
        # T_{u^-1}^-1 = sum_x d_{u,x} T_x with d_{u,u} = q^-l(u)
        W = self.W
        basis_nf = {}
        zero = (0,) * self.rs.rank
        for u in range(W.n):
            basis_nf[u] = {
                x: c for (x, mu), c in self.t_winv_inverse(u).c.items()
            }
        # organize elem by weight
        by_mu = {}
        for (x, mu), c in elem.c.items():
            by_mu.setdefault(mu, {})[x] = c
        order = sorted(range(W.n), key=lambda u: -W.length[u])
        out = {}
        for mu, rem in by_mu.items():
            rem = dict(rem)
            for u in order:
                if u not in rem or not rem[u]:
                    continue
                d_uu = basis_nf[u][u]
                coeff = rem[u] * d_uu.inverse()
                if not coeff:
                    continue
                out[(u, mu)] = coeff
                for x, d in basis_nf[u].items():
                    s = rem.get(x, Scalar.zero()) - coeff * d
                    if s:
                        rem[x] = s
                    elif x in rem:
                        del rem[x]
            assert not any(rem.values()), "triangular solve left a remainder"
        return {k: v for k, v in out.items() if v}

    def transition_chain(self, w, chain, sign):
        """c_{u,mu}^{w,sign*lambda} from a lambda-chain for +lambda.

        Read term by term off the chain formula for C^w_{u,-sign*lambda}
        through the bridge C^w_{u,-lambda} = sum_mu y^{l(w)-l(u)} e^{-mu}
        c_{u,mu}^{w,lambda} (q = -y in the shared ring).
        """
        W = self.W
        out = {}
        for u, _J, mu, c in chevalley_terms(chain, w, -sign):
            key = (u, tuple(-m for m in mu))
            s = out.get(key, Scalar.zero()) + c * Scalar.y(
                W.length[u] - W.length[w]
            )
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return out

    def render_transition(self, table):
        W = self.W
        lines = []
        for (u, mu), c in sorted(table.items()):
            lines.append(
                "c[u=%s, mu=%s] = %s"
                % (W.word_str(u), self.rs.weight_user(mu), c.render(var="q"))
            )
        return "\n".join(lines)
