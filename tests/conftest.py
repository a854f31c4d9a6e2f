"""Shared frozen golden data for the test suite.

The Hall-Littlewood term tables are stored as sets of
(w_word, J, u_word, t_power, one_minus_t_power, x_exponents).
"""

# lambda = first fundamental weight in A2, expansion degree 1
GOLD_W1_F1 = {
    ("e", (), "e", 0, 0, (1, 0, 0)),
    ("s1", (), "s1", 1, 0, (0, 1, 0)),
    ("s1", (2,), "e", 0, 1, (0, 1, 0)),
    ("s2s1", (), "s2s1", 2, 0, (0, 0, 1)),
    ("s2s1", (1,), "s1", 1, 1, (0, 0, 1)),
    ("s2s1", (2,), "s2", 1, 1, (0, 0, 1)),
    ("s2s1", (1, 2), "e", 0, 2, (0, 0, 1)),
}

GOLD_W1_F2 = {
    ("e", (), "e", 2, 0, (1, 0, 0)),
    ("s1", (), "s1", 1, 0, (0, 1, 0)),
    ("s1", (2,), "e", 1, 1, (1, 0, 0)),
    ("s2s1", (), "s2s1", 0, 0, (0, 0, 1)),
    ("s2s1", (1,), "s1", 0, 1, (0, 1, 0)),
    ("s2s1", (2,), "s2", 0, 1, (1, 0, 0)),
}

# lambda = twice the second fundamental weight in A2, degree 4
GOLD_2W2_F1 = {
    ("e", (), "e", 0, 0, (2, 2, 0)),
    ("s2", (), "s2", 1, 0, (2, 0, 2)),
    ("s2", (2,), "e", 0, 1, (2, 1, 1)),
    ("s2", (4,), "e", 0, 1, (2, 0, 2)),
    ("s1s2", (), "s1s2", 2, 0, (0, 2, 2)),
    ("s1s2", (1,), "s2", 1, 1, (1, 1, 2)),
    ("s1s2", (2,), "s1", 1, 1, (1, 2, 1)),
    ("s1s2", (3,), "s2", 1, 1, (0, 2, 2)),
    ("s1s2", (4,), "s1", 1, 1, (0, 2, 2)),
    ("s1s2", (1, 2), "e", 0, 2, (1, 2, 1)),
    ("s1s2", (1, 4), "e", 0, 2, (1, 1, 2)),
    ("s1s2", (3, 4), "e", 0, 2, (0, 2, 2)),
}

GOLD_2W2_F2 = {
    ("e", (), "e", 2, 0, (2, 2, 0)),
    ("s2", (), "s2", 1, 0, (2, 0, 2)),
    ("s2", (2,), "e", 1, 1, (2, 1, 1)),
    ("s2", (4,), "e", 1, 1, (2, 2, 0)),
    ("s1s2", (), "s1s2", 0, 0, (0, 2, 2)),
    ("s1s2", (1,), "s2", 0, 1, (1, 1, 2)),
    ("s1s2", (2,), "s1", 0, 1, (1, 2, 1)),
    ("s1s2", (3,), "s2", 0, 1, (2, 0, 2)),
    ("s1s2", (4,), "s1", 0, 1, (2, 2, 0)),
    ("s1s2", (2, 3), "e", 0, 2, (2, 1, 1)),
}


def hl_terms_as_tuples(rs, lam, formula, degree):
    """Normalize hl_terms output to the frozen golden-table format."""
    from chevmc.charring import Scalar
    from chevmc.specialfn import hl_terms, gl_exponents

    W = rs.weyl()
    out = set()
    for w, J, u, mono in hl_terms(rs, lam, formula):
        (k, coeff), = mono.terms()
        exps = gl_exponents(rs, rs.weight_user(k), degree)
        a = min(coeff.q_coeffs())
        b = 0
        one_minus_t = Scalar.one() - Scalar.q(1)
        while True:
            probe = Scalar.q(a) * one_minus_t ** b
            if probe == coeff:
                break
            b += 1
            assert b <= 4, (coeff.render(var="t"), a)
        out.add((W.word_str(w), tuple(J), W.word_str(u), a, b, exps))
    return out
