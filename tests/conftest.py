"""Shared frozen golden data and helpers for the test suite.

The Hall-Littlewood term tables are stored as sets of
(w_word, J, u_word, t_power, one_minus_t_power, x_exponents).
"""

import weakref

import pytest

from chevmc.alcove import (
    _in_alcove, _scale, _walls, chain_lex_height,
)
from chevmc.charring import (
    FIELD, GA, LIMIT, MASK, Scalar, _BIAS, _HALF, _add_products, _check,
    _mul_into, _pack, _rank, _wneg, _weight,
)
from chevmc.chevalley import _checked, _term_coeff, _term_pairs
from chevmc.localization import _delta, dl_step
from chevmc.oracle import KOracle
from chevmc.rootsystem import WeylGroup
from chevmc.specialfn import _lambda_parabolic, big_r, dl_simple

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


@pytest.fixture
def no_completion(monkeypatch):
    """Reading the whole group, `WeylGroup.order` and so `n`, fails: a
    test that takes it computes from the elements its walks reach."""
    def refuse(W):
        raise AssertionError("the Weyl group was completed")
    monkeypatch.setattr(WeylGroup, "order", property(refuse))


def hl_terms(rs, lam_fund, formula):
    """The individual terms of the two chain formulas for HL_lambda, as
    a list of (w, J, u, monomial): formula 1 is `chain_restricted`,
    formula 2 `chain_opposite` (see the specialfn module docstring).

    The reference, one ring element per term, that the packed sum of
    `specialfn.hall_littlewood` is checked against.
    """
    if not all(c >= 0 for c in lam_fund):
        raise ValueError("lambda must be dominant")
    W = rs.weyl()
    parabolic = _lambda_parabolic(rs, lam_fund)
    chain = chain_lex_height(rs, _wneg(lam_fund))
    lam = rs.weight(lam_fund)
    _pack(lam)  # in range, so each key below decodes exactly
    horiz = len(rs.horizontal_roots(parabolic))
    t = Scalar.q(1)
    one_minus_t = Scalar.one() - t
    bias = _BIAS[rs.rank]
    out = []
    for w in W.min_coset_reps(parabolic):
        for u, J, B, _ in ref_descent_subsets(chain, w, formula == 1,
                                              ref_walls(chain, far=False)):
            nj = len(J)
            if formula == 1:
                power2 = W.length[w] + W.length[u] - nj
                key = bias + W.act_key(u, lam) + B
            else:
                power2 = 2 * horiz - W.length[w] - W.length[u] - nj
                key = bias + W.act_key(w, lam) - B
            assert power2 % 2 == 0 and power2 >= 0
            coeff = Scalar.q(power2 // 2) * one_minus_t ** nj
            out.append((w, J, u, GA.term(_weight(key, rs.rank), coeff)))
    return out


def hl_terms_as_tuples(rs, lam, formula, degree):
    """Normalize hl_terms output to the frozen golden-table format."""
    from chevmc.charring import Scalar
    from chevmc.specialfn import gl_exponents

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


def ref_to_json(g):
    """[{"weight": [...], "coeff": {"<v exponent>": int}}], weights
    ascending: the sorted keys of a GA grouped by their weight fields.
    The reference encoder that `cli._dumps`, which writes a GA's text
    straight from its keys, is checked against."""
    r = g.rank()
    c = g.c
    out = []
    last = None
    for k in sorted(c):
        if k >> FIELD != last:
            last = k >> FIELD
            coeff = {}
            out.append({"weight": list(_weight(k, r)), "coeff": coeff})
        coeff[str((k & MASK) - _HALF)] = c[k]
    return out


def inversions(W, w):
    """Bitmask of the positive roots beta (bit beta.index) that w sends
    negative, i.e. with l(w s_beta) < l(w), read off w's matrix."""
    negative = {a.fund for a in W.rs.roots if not a.positive}
    return sum(1 << a.index for a in W.rs.positive_roots
               if W.act(w, a.fund) in negative)


def reflect(rs, fine, root):
    """s_alpha(mu) on the fine lattice."""
    m = rs.pair_coroot(fine, root)
    return tuple(c - m * f for c, f in zip(fine, root.fund))


def v_minus_lambda(rs, lam_fund):
    """A reduced word for v_{-lambda} (letters in -1, 0..r-1 with -1 = s_0).

    Walks the interior point of A - lambda back into A through walls of
    the fundamental alcove; each wall reflection shortens the gallery
    distance by one, so the collected word is reduced.
    """
    S = _scale(rs)
    walls = _walls(rs)
    p = tuple(S - 1 - S * rs.h * c for c in lam_fund)
    word = []
    while not _in_alcove(rs, walls, p):
        i = next((i for i in range(rs.rank) if p[i] < 0), -1)
        root, level = walls[i]
        p = rs.affine_reflect(p, root, level * S)
        word.append(i)
    # collected letters satisfy s_lk ... s_l1 (A - lambda) = A, so
    # v_-lambda = s_l1 s_l2 ... s_lk with the rightmost letter acting
    # first -- already the composition order chain_from_word expects
    return tuple(word)


def dl_left(o, i, F):
    """The left Demazure-Lusztig operator T_i of the localization oracle
    `o` on a ring-valued class, with (b, e, d) = `o.dl_coeffs(rs, i)`:

        (T_i F)|_w = b D(w) + e x(w),  x(w) = s_i(F|_{s_i w}),
        D(w) = (x(w) - F|_w) / d,

    which is (a x(w) - b F|_w) / d with a = b + e d.  The points w and
    s_i w share one division: D(s_i w) = u_i s_i(D(w)) with u_i =
    -s_i(d)/d (e^{alpha_i} in K-theory, 1 in cohomology), so

        (T_i F)|_{s_i w} = s_i(s_i(b u_i) D(w) + s_i(e) F|_w).

    The reference operator that the library's slice recursion
    (`Localization.slice_class`) is checked against."""
    W = o.W
    b, e, d = o.dl_coeffs(o.rs, i)
    si = W.from_word((i,))
    u = (-o._act(si, d)).exact_div(d)
    assert u is not None, "s_i(d) / d is not polynomial"
    one = o._one()
    bs, es = o._act(si, one * b * u), o._act(si, one * e)
    dot = o.ring.dot
    zero = o.ring()
    out = {}
    for w in range(W.n):
        sw = W.mul(si, w)
        if W.length[sw] < W.length[w] or (w not in F and sw not in F):
            continue  # each pair {w, s_i w} once, from its lower point
        f = F.get(w, zero)
        x = o._act(si, F[sw]) if sw in F else zero
        D = _delta(x, f, d)
        g = dot(((b, D), (e, x)))
        if g:
            out[w] = g
        g = o._act(si, dot(((bs, D), (es, f))))
        if g:
            out[sw] = g
    return out


def ref_operator(chain, w):
    """C^w_{u,lambda} via the operator formula R^[lambda] applied to the
    basis vector at w.

    States are {u: key dict} with exponents on the fine lattice, which
    holds the (1/h) X^*(T) exponents produced by the E-operators.

    The reference operator route, three states per chain position (the
    B_beta move, then both E-shifts into the next state), that the
    library's fused step (`chevalley.chevalley_operator`) is checked
    against.
    """
    rs = chain.rs
    W = rs.weyl()
    h = rs.h
    r = rs.rank

    def e_step(state, mu_fine, out):
        """Add e^{u(mu)/h} times the entry at u to out[u]: a shift of its
        keys by the key offset of u(mu)/h, added into an entry already
        there."""
        assert all(c % h == 0 for c in mu_fine)
        mu = tuple(c // h for c in mu_fine)
        for u, c in state.items():
            d = W.act_key(u, mu)
            if u in out:
                _add_products(out[u], ((d, 1),), c.items())
            else:
                out[u] = {k + d: x for k, x in c.items()}

    def b_step(state, root, positive):
        """Move the entry at u to u s_beta when that is shorter, times
        -(1+y) q^{k/2} with k = l(u) - l(u s_beta) - 1, negated for a
        negative root."""
        out = {}
        sref = W.mul_refl(0, root.index)
        bit = 1 << root.index
        for u, c in state.items():
            if inversions(W, u) & bit:
                us = W.mul(u, sref)
                k = W.length[u] - W.length[us] - 1
                assert k % 2 == 0
                coeff = _term_coeff(1, k, not positive, True)
                _add_products(out.setdefault(us, {}),
                              [(vk - _HALF, y) for vk, y in coeff.c.items()],
                              c.items())
        return out

    state = {w: {_BIAS[r]: 1}}
    for b in chain.betas:
        pos = b.positive
        broot = b if pos else rs.root_by_simple(tuple(-c for c in b.simple))
        beta_fine = tuple(rs.h * c for c in b.fund)
        coheight = sum(b.coroot)  # <rho, beta^vee>
        # R_beta = E^beta + E^{<rho,beta^vee> beta} B_beta
        nxt = {}
        e_step(state, beta_fine, nxt)
        e_step(b_step(state, broot, pos),
               tuple(coheight * c for c in beta_fine), nxt)
        state = _checked(nxt, r)
    return {u: GA._new(c) for u, c in state.items()}


def ref_transition_direct(rs, w, lam_fund):
    """c_{u,mu}^{w,lambda} of the affine Hecke algebra as {u: GA}, as
    `chevalley.transition_direct` returns them, each Bernstein step by
    one exact division in the character ring:

        T_i P = s_i(P) T_i + (1 - q) D,  D = (s_i(P) - P) / (1 - e^{-alpha_i}),

    with T_i^-1 P T_x^-1 = (q^-1 - 1)(D + P - s_i P) T_x^-1 + s_i(P)
    T_{x s_i}^-1 if x s_i > x, and (q^-1 - 1)(D + P) T_x^-1 + q^-1
    s_i(P) T_{x s_i}^-1 if x s_i < x.

    The reference that the library's closed-form step is checked
    against."""
    W = rs.weyl()
    q_inv = Scalar.q(-1)
    c = q_inv - Scalar.one()
    state = {0: GA.term(rs.weight(lam_fund))}
    for i in reversed(W.word(w)):
        mat = W.mats[W.step(0, i)]
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


def ref_walls(chain, far):
    """The walls of `chain` in position order as (alpha, k), alpha > 0,
    for H_{alpha,k}, built from its betas and levels alone: h_j =
    H_{-beta_j, d_j}, or if far H_{beta_j, <lambda, beta_j^vee> - d_j}."""
    rs = chain.rs
    out = []
    for b, d in zip(chain.betas, chain.levels):
        k = rs.pairing(chain.lam_fund, b) - d if far else -d
        if not b.positive:
            b, k = rs.root_by_simple(tuple(-c for c in b.simple)), -k
        out.append((b, k))
    return out


def ref_descent_subsets(chain, w, ascending, walls):
    """All (u, J, B, odd) with J a sorted tuple of chain positions along
    which w descends, scanning `walls` (a `ref_walls` list) in the given
    direction; `alcove.descent_subsets` yields (u, |J|, B, odd) for the
    walls ascending and the far walls descending.  Walked without the
    element store's tables or the chain's scans: cur descends at j when
    the product cur s_alpha (a walk of s_alpha's word) is shorter, and
    the translation adds the packed key of cur(k alpha) from cur's
    matrix.

    The reference walk that the library's, and the grouped chain route
    built on it, are checked against."""
    rs = chain.rs
    W = rs.weyl()
    order = range(len(chain)) if ascending else range(len(chain) - 1, -1, -1)
    steps = [(j + 1, W.mul_refl(0, walls[j][0].index),
              tuple(walls[j][1] * rs.h * c for c in walls[j][0].fund),
              not chain.betas[j].positive) for j in order]
    out = []
    stack = [(0, w, (), 0, False)]
    while stack:
        i, cur, J, B, odd = stack.pop()
        for pos in range(i, len(steps)):
            j, refl, shift, negative = steps[pos]
            down = W.mul(cur, refl)
            if W.length[down] < W.length[cur]:
                stack.append((pos + 1, down, J + (j,),
                              B + W.key(W.act(cur, shift)), odd ^ negative))
        out.append((cur, J if ascending else J[::-1], B, odd))
    return out


def ref_chevalley_chain(chain, w, sign):
    """C^w_{u, sign*lambda} as {u: GA}, one product per term: each leaf
    of `ref_descent_subsets` adds its key +-key(u(lambda)) - B times its
    coefficient straight into its u's dict.

    The reference per-leaf route that `chevalley.chevalley_chain`, which
    counts the keys of each coefficient first, is checked against."""
    rs = chain.rs
    W = rs.weyl()
    positive = sign > 0
    walls = ref_walls(chain, far=not positive)
    bias = _BIAS[rs.rank]
    by_u = {}
    for u, J, B, odd in ref_descent_subsets(chain, w, positive, walls):
        t = len(J)
        dl = W.length[w] - W.length[u] - t
        lk = W.key(W.act(u, chain.lam))
        key = (bias + lk if positive else bias - lk) - B
        _add_products(by_u.setdefault(u, {}), ((key, 1),),
                      _term_pairs(t, dl, odd, positive))
    return {u: GA._new(c) for u, c in _checked(by_u, rs.rank).items()}


def duality_check(rs, lam_fund, w, u, kind, table_fn):
    """Return (lhs, rhs) GA values of the chosen duality for C^w_{u,lambda},
    one entry at a time: the reference for chevalley.duality_sides.

    table_fn(w, lam_fund, sign) -> {u: GA} computes Chevalley tables.
    kinds: serre, star, dynkin, star_dynkin, palindromic.
    """
    W = rs.weyl()
    w0 = W.w0
    m0 = W.mats[w0]
    iota = tuple(tuple(-x for x in row) for row in m0)  # e^mu -> e^{-w0 mu}
    dl = W.length[w] - W.length[u]
    lhs = table_fn(w, lam_fund, 1).get(u, GA())
    if kind == "serre":
        # C^w_{u,lambda} = (-y)^{l(w)-l(u)} w0((C^{w0u}_{w0w,-lambda})^vee)
        t = table_fn(W.mul(w0, u), lam_fund, -1).get(W.mul(w0, w), GA())
        rhs = t.dual_vee().transform(m0) * Scalar.q(dl)
    elif kind == "star":
        t = table_fn(W.mul(w0, u), lam_fund, -1).get(W.mul(w0, w), GA())
        rhs = t.transform(iota) * (-1 if dl % 2 else 1)
    elif kind == "dynkin":
        nlam = rs.weight_user(_wneg(W.act(w0, rs.weight(lam_fund))))
        t = table_fn(W.mul(W.mul(w0, w), w0), nlam, 1).get(
            W.mul(W.mul(w0, u), w0), GA())
        rhs = t.transform(iota)
    elif kind == "star_dynkin":
        w0lam = rs.weight_user(W.act(w0, rs.weight(lam_fund)))
        t = table_fn(W.mul(u, w0), w0lam, 1).get(W.mul(w, w0), GA())
        rhs = t * (-1 if dl % 2 else 1)
    elif kind == "palindromic":
        rhs = lhs.y_inverse() * Scalar.y(dl)
    else:
        raise ValueError("unknown duality %r" % kind)
    return lhs, rhs


def ref_chain_div(n, d):
    """n / d for a two-term divisor d by the chain-by-chain division, or
    None.

    The quotient box: field by field, an exact quotient's exponents lie
    in [min(n) - min(d), max(n) - max(d)], cut at 0 in a polynomial
    ring.  A step at key k leaves its one carry at k - gap, gap = k1 -
    k2, so the keys congruent modulo gap form one chain: each round
    walks down from the top of every chain that has keys left, until
    the carry cancels, and the box test bounds every walk.  The final
    `_check` runs unless the box lies in range.

    The reference that `GA.exact_div`'s line-by-line division is checked
    against."""
    a, c = n.c, d.c
    assert len(c) == 2
    if not a:
        return type(n)._new({})
    r = _rank(next(iter(a)))
    bias = _BIAS[r]
    lok = hik = 0
    inside = True
    for s in range(0, FIELD * r + 1, FIELD):
        fa = [k >> s & MASK for k in a]
        fd = [k >> s & MASK for k in c]
        lo, hi = min(fa) - min(fd), max(fa) - max(fd)
        if not n.laurent:
            lo = max(lo, 0)
        if lo > hi:
            return None
        inside = inside and -LIMIT <= lo and hi < LIMIT
        lok += (lo + _HALF) << s
        hik += (hi + _HALF) << s
    test = bias | (1 << (FIELD * (r + 1)))
    k1, k2 = max(c), min(c)
    c1, c2 = c[k1], c[k2]
    gap = k1 - k2
    rem = dict(a)
    quot = {}
    while rem:
        tops = {}
        for k in rem:
            if k > tops.get(k % gap, 0):
                tops[k % gap] = k
        for k in tops.values():
            x = rem.pop(k)
            while x:
                qc, rest = divmod(x, c1)
                if rest:
                    return None
                qk = k + bias - k1
                if ((qk - lok) | (hik - qk)) & test:
                    return None
                quot[qk] = qc
                k -= gap
                x = rem.pop(k, 0) - qc * c2
    if not inside:
        _check(quot, r)
    return type(n)._new(quot)


def ref_slice_step(o, i, Q):
    """The slice parts of F T_i from those Q of F = cell(w), l(w s_i) >
    l(w), on ring elements with full keys: for (b, e, d) =
    `o.dl_coeffs(rs, i)` and v = -s_i(d) / d, on each pair x < x s_i,
    with D = (x s_i)(d),

        Q'_{x s_i} = E = (Q_x - b Q_{x s_i}) / D,
        Q'_x = b x(v) E + e D Q_{x s_i},

    every Weyl move made on the spot.  The reference that the line step
    (`Localization._slice_step`) is checked against."""
    W = o.W
    b, e, d = o.dl_coeffs(o.rs, i)
    v = (-o._act(W.from_word((i,)), d)).exact_div(d)
    dot = o.ring.dot
    zero = o.ring()
    out = {}
    for x in W.order:
        xs = W.right[x][i]
        if W.length[xs] < W.length[x] or (x not in Q and xs not in Q):
            continue
        D = o._act(xs, d)
        q = Q.get(xs, zero)
        E = dot(((1, Q.get(x, zero)), (-b, q))).exact_div(D)
        assert E is not None, "Demazure-Lusztig step is not polynomial"
        if E:
            out[xs] = E
        g = dot(((o._act(x, v) * b, E), (D * e, q)))
        if g:
            out[x] = g
    return out


def ref_slices(o):
    """{w: slice parts of cell(w)} for every w by `ref_slice_step` from
    the point class, along the canonical words."""
    W = o.W
    out = {0: o.point_class()}
    for w in W.order[1:]:
        i = W.word(w)[-1]
        out[w] = ref_slice_step(o, i, out[W.right[w][i]])
    return out


def ref_expand(o, F, cell, points=None):
    """{u: coefficient} of the ring-valued class F in the cell basis by
    the triangular solve on full keys: at each v from the top, the
    remainder at v over the diagonal cell(v)|_v, then g cell(v)|_x
    subtracted from the remainders in place.

    The reference that the line solve (`Localization._expand`) is checked
    against."""
    if points is None:
        points = o.W.order
    rem = {x: dict(f.c) for x, f in F.items()}
    out = {}
    for v in reversed(points):
        c = rem.pop(v, None)
        if not c:
            continue
        _check(c, o.rank)
        cv = cell(v)
        g = o.ring._new(c).exact_div(cv[v])
        assert g is not None, "non-polynomial Chevalley coefficient"
        out[v] = g
        for x, f in cv.items():
            if x != v:
                _mul_into(rem.setdefault(x, {}), (-g).c, f.c)
    assert not any(rem.values()), "expansion left a remainder"
    return out


def solve_classes(o, F, cell, points=None):
    """`o._expand` on a ring-valued class F and ring-valued cell classes
    `cell`, each turned into lines once."""
    lines = {}

    def line_cell(v):
        if v not in lines:
            lines[v] = o._lines(cell(v))
        return lines[v]

    return o._expand(o._lines(F), line_cell, points)


# -- classes and formulas that only tests evaluate ---------------------

def line_bundle(o, lam_fund):
    """L_lambda on the K-theory oracle `o`: restriction e^{w(lambda)} at
    e_w."""
    lam = o.rs.weight(lam_fund)
    return {w: GA.term(o.W.act(w, lam)) for w in range(o.W.n)}


def lambda_y_cotangent(o, w, sign=1):
    """lambda_y(T*)|_w = prod_{alpha>0} (1 + y e^{w(alpha)}); with
    sign=-1 the product over the -w(alpha), so that the two signs
    multiply to Lambda = prod over all roots beta of (1 + y e^beta),
    which W fixes."""
    y = Scalar.y(1)
    g = o._one()
    for b in o.pos_roots:
        wb = o.rs.weight(o.W.act(w, b))
        g = g * (o._one() + GA.term(tuple(sign * c for c in wb), y))
    return g


def _over_lambda_y(o, F):
    """F / lambda_y(T*) as (numerator class, Lambda)."""
    num = {w: f * lambda_y_cotangent(o, w, -1) for w, f in F.items()}
    return num, lambda_y_cotangent(o, 0) * lambda_y_cotangent(o, 0, -1)


def segre(o, F, d):
    """(-y)^d D(F) / lambda_y(T*) as (numerator class, Lambda), with
    the duality D(F)|_w = (-1)^{dim G/B} e^{2 w rho} (F|_w)^vee."""
    W = o.W
    pref = Scalar.q(d) * ((-1) ** o.N)
    rho2 = tuple(2 * c for c in o.rs.rho())
    return _over_lambda_y(o, {
        w: f.dual_vee() * GA.term(W.act(w, rho2), pref)
        for w, f in F.items()
    })


def smc(o, u):
    """SMC_y(Y(u)^o) = (-y)^{dim Y(u)} D(MC_y(Y(u)^o)) / lambda_y(T*),
    the basis dual to the MC classes (Aluffi-Mihalcea-Schuermann-Su), as
    (numerator class, Lambda)."""
    return segre(o, o.opposite_cell_class(u), o.N - o.W.length[u])


def mc_prime(o, w):
    """MC'_y(X(w)^o) = lambda_y(id) MC_y(X(w)^o) / lambda_y(T*) as
    (numerator class, Lambda)."""
    return _over_lambda_y(
        o, o.scale(o.cell_class(w), lambda_y_cotangent(o, 0)))


_AB = weakref.WeakKeyDictionary()  # per oracle: D and the units D / w(D)


def integral(o, F):
    """Atiyah-Bott on either oracle: the pushforward of F to a point,
    sum_w F|_w / w(D) with D = prod_{alpha>0} eul(alpha), the point
    class at e_id.  Each w(D) is D over a unit, D.exact_div(w(D)), made
    once per w and per oracle, so the sum is one exact division by D."""
    if o not in _AB:
        D = o.point_class()[0]
        _AB[o] = D, [D.exact_div(o._act(w, D)) for w in range(o.W.n)]
    D, units = _AB[o]
    g = o.ring.dot((f, units[w]) for w, f in F.items()).exact_div(D)
    assert g is not None, "localization sum is not polynomial"
    return g


def _ref_cofactor(o, weights, roots=None):
    """m with 1 / prod_{mu in weights} eul(mu) = m / prod_b eul(-b) over
    the positive roots b in `roots` (default all), for weights that are
    +-b for distinct b: eul(b) is eul(-b) over a unit."""
    rest = set(o.pos_roots if roots is None else roots)
    m = o._one()
    for mu in weights:
        if mu in rest:
            m = m * o._euler(_wneg(mu)).exact_div(o._euler(mu))
            rest.remove(mu)
        else:
            rest.remove(_wneg(mu))
    for b in rest:
        m = m * o._euler(_wneg(b))
    return m


def _ref_root_quotient(o, num, roots=None):
    """num / prod_{b in roots} eul(-b), asserted polynomial."""
    d = o._one()
    for b in o.pos_roots if roots is None else roots:
        d = d * o._euler(_wneg(b))
    g = num.exact_div(d)
    assert g is not None, "localization sum is not polynomial"
    return g


def ref_orbit_sum(rs, lam_fund, parabolic, roots):
    """sum_{w in W^P} e^{w lam} prod_{a in roots} (1 + y e^{wa})/(1 - e^{wa})
    for roots +-a positive roots, one cofactor per coset representative
    over the Weyl denominator: the reference for specialfn._orbit_sum."""
    o = KOracle(rs)
    W = o.W
    g = GA.term(rs.weight(lam_fund))
    for a in roots:
        g = g * (GA.const(1, rs.rank) + GA.term(rs.weight(a), Scalar.y(1)))
    return _ref_root_quotient(o, GA.dot(
        (g.transform(W.mats[w]), _ref_cofactor(o, [W.act(w, a) for a in roots]))
        for w in W.min_coset_reps(parabolic)))


def ref_pushforward(o, F, parabolic):
    """pi_* F, coset by coset one cofactor per fixed point over the
    product of the eul(-v gamma), gamma in Phi_P^+: the reference for
    KOracle.pushforward."""
    rs, W = o.rs, o.W
    horiz = rs.horizontal_roots(parabolic)
    levi = [a.fund for a in rs.positive_roots if a not in horiz]
    wp = W.parabolic_elements(parabolic)
    out = {}
    for v in W.min_coset_reps(parabolic):
        roots = [W.act(v, g) for g in levi]
        num = GA.dot(
            (F[x], _ref_cofactor(o, [W.act(x, g) for g in levi], roots))
            for x in (W.mul(v, p) for p in wp) if x in F)
        g = _ref_root_quotient(o, num, roots)
        if g:
            out[v] = g
    return out


def ref_weyl_character(rs, mu_fund):
    """chi_mu as the quotient of the alternants sum_w (-1)^{l(w)}
    e^{w(mu + rho)} and sum_w (-1)^{l(w)} e^{w rho}: the reference for
    specialfn.weyl_character."""
    W = rs.weyl()
    rho = rs.rho()
    mur = tuple(a + b for a, b in zip(rs.weight(mu_fund), rho))
    signs = [(-1) ** W.length[w] for w in range(W.n)]
    num = GA.dot((GA.term(W.act(w, mur)), s) for w, s in enumerate(signs))
    den = GA.dot((GA.term(W.act(w, rho)), s) for w, s in enumerate(signs))
    return num.exact_div(den)


def slice_class(o, w):
    """{x: Q} with cell(w)|_x = Q P_x: the slice parts of the class of
    X(w)^o, decoded from their lines (`Localization._slice_lines`)."""
    return {x: o._decode(q)[0] for x, q in o._slice_lines(w)[0].items()}


def dl_apply(rs, w, f):
    """T~_w f along the canonical word of w: the reference for the
    climb of specialfn.whittaker."""
    for i in reversed(rs.weyl().word(w)):
        f = dl_simple(rs, i, f)
    return f


def dl_simple_vee(rs, i, f):
    """T~vee_i f for

        T~vee_i = (1 + y e^{-a_i})/(1 - e^{-a_i}) s_i - (1 + y)/(1 - e^{-a_i}),

    one `localization.dl_step` with the oracle's (b, e, d)
    (`KOracle.dl_coeffs`), which are T~vee_i's: e = -y.  It differs from
    specialfn's T~_i only in the sign of a_i in the first numerator."""
    b, e, d = KOracle.dl_coeffs(rs, i)
    W = rs.weyl()
    return dl_step(b, e, f.transform(W.mats[W.step(0, i)]), f, d)


def dl_apply_vee(rs, w, f):
    """T~vee_w f along the canonical word of w."""
    for i in reversed(rs.weyl().word(w)):
        f = dl_simple_vee(rs, i, f)
    return f


# T~_i and T~vee_i by name, for the tests that check both operators
DL_SIMPLE = {"tilde": dl_simple, "tilde_vee": dl_simple_vee}


def big_r_operators(rs, lam_fund):
    """R_lambda = sum_w T~vee_w e^lambda."""
    e_lam = GA.term(rs.weight(lam_fund))
    return GA.dot((dl_apply_vee(rs, w, e_lam), 1)
                  for w in range(rs.weyl().n))


def big_h_quotient(rs, lam_fund):
    """H_lambda = R_lambda / sum_{p in W_P} q^{l(p)}, P = P_lambda."""
    W = rs.weyl()
    r = big_r(rs, lam_fund)
    den = Scalar()
    for p in W.parabolic_elements(_lambda_parabolic(rs, lam_fund)):
        den = den + Scalar.q(W.length[p])
    out = []
    for k, x in r.terms():
        d = x.exact_div(den)
        assert d is not None, "R_lambda is not divisible by the W_P sum"
        out.append((k, d))
    return GA(out)
