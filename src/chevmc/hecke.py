"""Affine Hecke transition coefficients, the bridge route.

The affine Hecke algebra of a finite root system has coefficients in
Z[q, q^-1] (realized inside Z[v, v^-1], q = v^2) and the Bernstein
relation

    T_s X^lambda - X^{s lambda} T_s = (1 - q) (X^{s lambda} - X^lambda)
                                      / (1 - X^{-alpha}),

whose right-hand side expands as a finite geometric sum (_ts_x).  The
transition coefficients c_{u,mu}^{w,lambda} come from this relation
alone: transition_direct applies one T_i^-1 at a time and stays in the
basis X^mu T_{u^-1}^-1 it reports, so it needs no Hecke products.  The
same relation, with the quadratic and braid relations, is checked on
the Demazure-Lusztig operators the library applies to characters
(specialfn.ScalarDL).
"""

from __future__ import annotations

from .charring import Scalar


class HeckeAlgebra:
    """The affine Hecke algebra of a finite root system."""

    def __init__(self, rs):
        self.rs = rs
        self.W = rs.weyl()

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

    def render_transition(self, table):
        W = self.W
        lines = []
        for (u, mu), c in sorted(table.items()):
            lines.append(
                "c[u=%s, mu=%s] = %s"
                % (W.word_str(u), self.rs.weight_user(mu), c.render(var="q"))
            )
        return "\n".join(lines)
