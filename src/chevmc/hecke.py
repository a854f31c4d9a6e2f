"""Affine Hecke transition coefficients, the bridge route.

The affine Hecke algebra of a finite root system has coefficients in
Z[q, q^-1] (realized inside Z[v, v^-1], q = v^2) and the Bernstein
relation, for P a character:

    T_i P = s_i(P) T_i + (1 - q) D,  D = (s_i(P) - P) / (1 - e^{-alpha_i}),

one exact division in the character ring (charring.GA).  The transition
coefficients c_{u,mu}^{w,lambda} come from this relation alone:
transition_direct applies one T_i^-1 at a time to whole characters
P_x, in the basis P_x T_x^-1 (x = u^-1) it reports, so it needs no
Hecke products.  The same relation, with the quadratic and braid
relations, is checked on the Demazure-Lusztig operators the library
applies to characters (specialfn.ScalarDL).
"""

from __future__ import annotations

from .charring import GA, Scalar


class HeckeAlgebra:
    """The affine Hecke algebra of a finite root system; its Weyl
    elements are those of rs.lazy_weyl(), made as they are reached."""

    def __init__(self, rs):
        self.rs = rs
        self.W = rs.lazy_weyl()

    def transition_direct(self, w, lam_fund):
        """c_{u,mu}^{w,lambda}: expand T_{w^-1}^-1 X^lambda in the basis
        X^mu T_{u^-1}^-1, as {u: GA} with c_{u,mu} the coefficient of
        e^mu (fine weight mu) in the entry at u.

        T_{w^-1}^-1 = T_{i_1}^-1 ... T_{i_l}^-1 along the canonical word
        (i_1..i_l) of w, so T_i^-1 acts on X^lambda for i = i_l, ..., i_1,
        each step on a sum of P_x T_x^-1 (x = u^-1).  T_i^-1 =
        q^-1 T_i + (q^-1 - 1) and the Bernstein relation (with D its
        quotient, see the module docstring) give

            T_i^-1 P T_x^-1 = (q^-1 - 1)(D + P - s_i P) T_x^-1
                              + s_i(P) T_{x s_i}^-1          if x s_i > x,
                            = (q^-1 - 1)(D + P) T_x^-1
                              + q^-1 s_i(P) T_{x s_i}^-1     if x s_i < x,

        the second case from T_i^-2 = q^-1 + (q^-1 - 1) T_i^-1.
        """
        W = self.W
        rs = self.rs
        q_inv = Scalar.q(-1)
        c = q_inv - Scalar.one()
        state = {0: GA.term(rs.weight(lam_fund))}
        for i in reversed(W.word(w)):
            si = W.reflection(rs.simple_roots[i])
            mat = W.mats[si]
            alpha = rs.weight(rs.simple_roots[i].fund)
            den = GA.const(1, rs.rank) - GA.term(tuple(-a for a in alpha))
            nxt = {}
            for x, P in state.items():
                sP = P.transform(mat)
                diff = sP - P
                D = diff.exact_div(den)
                if D is None:
                    raise ValueError("Hecke weights must be integral")
                xs = W.step(x, i)
                if W.length[xs] > W.length[x]:
                    nxt.setdefault(x, []).extend(((c, D), (-c, diff)))
                    nxt.setdefault(xs, []).append((1, sP))
                else:
                    nxt.setdefault(x, []).extend(((c, D), (c, P)))
                    nxt.setdefault(xs, []).append((q_inv, sP))
            state = {x: g for x, pairs in nxt.items()
                     if (g := GA.dot(pairs))}
        return {W.inv(x): P for x, P in state.items()}

    def render_transition(self, table):
        W = self.W
        return "\n".join(
            "c[u=%s, mu=%s] = %s"
            % (W.word_str(u), self.rs.weight_user(mu), c.render(var="q"))
            for u in W.ordered(table) for mu, c in table[u].terms()
        )
