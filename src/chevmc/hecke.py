"""Affine Hecke algebra in Bernstein normal form (X on the left).

Elements are finite sums  sum c * X^mu T_w  with c in Z[q, q^-1]
(realized inside Z[v, v^-1], q = v^2).  Products are rewritten to the
normal form with the Bernstein relation

    T_s X^lambda - X^{s lambda} T_s = (1 - q) (X^{s lambda} - X^lambda)
                                      / (1 - X^{-alpha}),

whose right-hand side expands as a finite geometric sum.  The transition
coefficients c_{u,mu}^{w,lambda} are obtained either directly from this
relation (transition_direct, which applies one T_i^-1 at a time and stays
in the basis X^mu T_{u^-1}^-1 it reports) or from a lambda-chain
(transition_chain).
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

    # -- core rewriting -----------------------------------------------
    def _ts_x(self, i, mu):
        """T_{s_i} X^mu in normal form, as {(w, weight): Scalar}.

        T_s X^mu = X^{s mu} T_s + (1-q) * G with G the geometric sum of
        the Bernstein relation.
        """
        rs = self.rs
        si = self.W.from_word((i,))
        root = rs.simple_roots[i]
        alpha_i = rs.weight(root.fund)
        if mu[i] % rs.h:
            raise ValueError("Hecke weights must be integral")
        m = mu[i] // rs.h  # <mu, alpha_i^vee>
        smu = rs.reflect(mu, root)
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
        X^mu T_{u^-1}^-1.

        T_{w^-1}^-1 = T_{i_1}^-1 ... T_{i_l}^-1 along the canonical word
        (i_1..i_l) of w, so T_i^-1 acts on X^lambda for i = i_l, ..., i_1,
        each step in the basis X^mu T_x^-1 (x = u^-1).  T_i^-1 =
        q^-1 T_i + (q^-1 - 1) and T_i X^mu = X^{s_i mu} T_i + G (_ts_x)
        give

            T_i^-1 X^mu T_x^-1 = (q^-1 G + (q^-1 - 1) X^mu) T_x^-1
                + X^{s_i mu} (T_{x s_i}^-1 + (1 - q^-1) T_x^-1)  if x s_i > x
                + q^-1 X^{s_i mu} T_{x s_i}^-1                   if x s_i < x,

        the second case from T_i^-2 = q^-1 + (q^-1 - 1) T_i^-1.
        """
        W = self.W
        q_inv = Scalar.q(-1)
        q_inv_minus_one = q_inv - Scalar.one()
        state = {(0, self.rs.weight(lam_fund)): Scalar.one()}
        for i in reversed(W.word(w)):
            nxt = {}

            def add(key, c):
                nxt[key] = nxt.get(key, Scalar.zero()) + c

            for (x, mu), c in state.items():
                xs = W.right[x][i]
                add((x, mu), c * q_inv_minus_one)
                for (z, nu), g in self._ts_x(i, mu).items():
                    if z == 0:
                        add((x, nu), c * g * q_inv)
                    elif W.length[xs] > W.length[x]:
                        add((xs, nu), c)
                        add((x, nu), -c * q_inv_minus_one)
                    else:
                        add((xs, nu), c * q_inv)
            state = {k: c for k, c in nxt.items() if c}
        return {(W.inv[x], mu): c for (x, mu), c in state.items()}

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
