"""Chevalley coefficients C^w_{u,lambda} for motivic Chern classes.

The coefficients expand the product of a line-bundle class with the
motivic Chern class of a Schubert cell,

    L_lambda (x) MC_y(X(w)o) = sum_u C^w_{u,lambda} MC_y(X(u)o),

and are computed here by three independent routes:
  * the lambda-chain formula (subsets J of chain positions with a strict
    Bruhat chain from u to w),
  * the bridge through the affine Hecke transition coefficients
    (transition_direct; q = -y is an identity of the shared parameter
    ring),
  * the operator formula (the R-operator product along the chain).

chevalley_tables is the one entry point for tables, and
chevalley_table its one-w case.  It range-checks lambda ahead of every
route, takes the lambda = 0 shortcut, builds the lex lambda-chain when
none is given and picks how the chain route runs: one w walks its
subsets J depth first, each read as its u, key, t = |J| and sign
(chevalley_chain, one product per coefficient), two or more share one
backward pass over (chain position, element) (_chain_pass), which sums
each chain suffix once per element; the two agree key for key.
chevalley_sum runs the same pass for sum_w sum_u q^{l(u)}
C^w_{u,lambda} with one dict per element (specialfn's H_lambda, HL and
Whittaker sums).  The operator and bridge routes run
one w at a time; the operator route makes one move per chain position,
E^beta a key offset per element and E^{<rho,beta^vee> beta} B_beta one
product per descent, refuses a chain whose exponent_bound reaches 2^17
and range-checks its output once, only when that bound reaches LIMIT;
the bridge route takes each Bernstein divided difference in closed
form, term by term.  The walk, the pass and the operator route read
their steps off LambdaChain.steps and their Weyl moves off the tables
of WeylGroup (images, mul_refl).

Dualities, the parabolic formula and the stable-basis matrices of
T*(G/B) (shift_matrix, wall_cross_path: functions of the root system
that build no oracle) live here as well.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .charring import (
    FIELD, GA, LIMIT, MASK, Scalar, _BIAS, _HALF, _add_products, _check,
    _pack, _weight, _wneg, exp_mono,
)
from .alcove import chain_lex_height, descent_subsets


@lru_cache(maxsize=1024)
def _term_coeff(t, dl, odd, positive):
    """(-(1+y))^t q^{dl/2} for +lambda, (1+y)^t q^{dl/2} for -lambda,
    negated when an odd number of the chosen roots is negative.  Ring
    elements are never changed in place, so callers share the result."""
    base = Scalar.int(1) + Scalar.y(1)
    coeff = (-base if positive else base) ** t * Scalar.q(dl // 2)
    return -coeff if odd else coeff


@lru_cache(maxsize=1024)
def _term_pairs(t, dl, odd, positive):
    """The key pairs of _term_coeff(...) less the v field's bias."""
    coeff = _term_coeff(t, dl, odd, positive)
    return tuple((k - _HALF, x) for k, x in coeff.c.items())


def _leaves(chain, w, sign):
    """(u, key, t, dl, odd) for every term of the chain formula, key
    the packed key of e^mu (v exponent 0): +-key(u(lambda)) - B over the
    translation B of the walk.  The coefficient is _term_coeff(t, dl,
    odd, sign > 0): t = |J| and odd read off the walk, dl = l(w) - l(u)
    - t.  The weights mu lie in the convex hull of W lambda, so with
    lambda in range (as chevalley_tables checks; Weyl row sums below 64,
    see charring.pack_columns) a range check of the keys is exact."""
    rs = chain.rs
    length = rs.weyl().length
    positive = sign > 0
    bias = _BIAS[rs.rank]
    lw = length[w]
    for u, t, B, odd in descent_subsets(chain, w, positive):
        dl = lw - length[u] - t
        assert dl % 2 == 0, "parity failure in the Chevalley formula"
        lk = chain.lam_key(u)
        yield u, (bias + lk if positive else bias - lk) - B, t, dl, odd


def chevalley_terms(chain, w, sign):
    """All terms of the chain formula: list of (u, t, mu_fine, coeff),
    one per subset J of chain positions, t = |J|.

    sign=+1 (coefficient of L_{+lambda}): the J> condition, i.e. the
    descent from w multiplies r_{h_j} with j ascending, and
    mu = u(lambda) - B over the walls h_j.
    sign=-1 (coefficient of L_{-lambda}): the J< condition, descent from
    w with j descending, and mu = -u(lambda) - B over the walls h'_j of
    the reversed chain.
    """
    r = chain.rs.rank
    return [(u, t, _weight(key, r), _term_coeff(t, dl, odd, sign > 0))
            for u, key, t, dl, odd in _leaves(chain, w, sign)]


def _checked(by_u, rank):
    """The nonzero entries of {u: key dict}, all keys range-checked."""
    out = {u: c for u, c in by_u.items() if c}
    _check(itertools.chain.from_iterable(out.values()), rank)
    return out


def chevalley_chain(chain, w, sign):
    """C^w_{u, sign*lambda} as {u: GA} from a chain for +lambda: the
    term keys of each (u, t, dl, odd) are counted, then multiplied."""
    positive = sign > 0
    groups = {}
    for u, key, t, dl, odd in _leaves(chain, w, sign):
        g = groups.setdefault((u, t, dl, odd), {})
        g[key] = g.get(key, 0) + 1
    by_u = {}
    for (u, t, dl, odd), g in groups.items():
        _add_products(by_u.setdefault(u, {}), _term_pairs(t, dl, odd,
                                                          positive), g.items())
    return {u: GA._new(c) for u, c in _checked(by_u, chain.rs.rank).items()}


def _chain_pass(chain, ws, sign, seed=None):
    """{w: chevalley_chain(chain, w, sign)} for the distinct elements
    ws, in one pass that every w shares.

    F_i(x), the sum of the chain formula over the subsets J of the scan
    positions from i on, walked from x, obeys

        F_n(x) = e^{+-x(lambda)} at u = x,
        F_i(x) = F_{i+1}(x) + c_i(x) e^{-x(k beta)} F_{i+1}(x r_i)

    when x descends at step i (r_i the reflection, H_{beta,k} the wall
    and c_i(x) = _term_coeff(1, l(x) - l(x r_i) - 1, beta_i < 0, sign));
    the table of w is F_0(w).  The factors along a J multiply to its
    leaf's coefficient in _leaves and the shifts add to its B, so every
    key of an F is a leaf key of some table and stays in range once
    chevalley_tables has range-checked lambda.  A forward sweep lists
    the elements reached at each step and their descents; the backward
    sweep then keeps one F per element, updated in place: x r_i ascends
    at step i, so no F read at a step changes there, and an element is
    dropped before the first step it is not reached at.  An F is
    {u: key dict}, as in chevalley_chain; seed(x, key), given the packed
    key of e^{+-x(lambda)}, is F_n(x) ({x: {key: 1}} by default), and
    the u of a term is that of the F_n it starts from."""
    rs = chain.rs
    W = rs.weyl()
    positive = sign > 0
    n, length, images, mul_refl, keys = (W.npos, W.length, W.images,
                                         W.mul_refl, W.root_keys)
    reached = dict.fromkeys(ws)
    # per step: the (x, x r_i, key pairs of c_i(x) e^{-x(k beta)}) of
    # the elements x that descend, and the elements first reached after it
    moves, born = [], []
    for a, kh, odd, _c in chain.steps(positive):
        here, new = [], {}
        for x in reached:
            b = images(x)[a]
            if b >= n:
                y, s = mul_refl(x, a), kh * keys[b]
                pairs = _term_pairs(1, length[x] - length[y] - 1, odd,
                                    positive)
                here.append((x, y, [(k - s, c) for k, c in pairs]))
                if y not in reached:
                    new[y] = None
        moves.append(here)
        born.append(new)
        reached.update(new)
    bias = _BIAS[rs.rank]
    F = {}
    for x in reached:
        lk = chain.lam_key(x)
        key = bias + lk if positive else bias - lk
        F[x] = seed(x, key) if seed else {x: {key: 1}}
    for here, new in zip(reversed(moves), reversed(born)):
        for x, y, a in here:
            fx = F[x]
            for u, c in F[y].items():
                _add_products(fx.setdefault(u, {}), a, c.items())
        for y in new:
            del F[y]
    return {w: {u: GA._new(c) for u, c in _checked(F.pop(w), rs.rank).items()}
            for w in ws}


def transition_direct(rs, w, lam_fund):
    """c_{u,mu}^{w,lambda} of the affine Hecke algebra (coefficients in
    Z[q, q^-1] inside Z[v, v^-1], q = v^2): expand T_{w^-1}^-1 X^lambda
    in the basis X^mu T_{u^-1}^-1, as {u: GA} with c_{u,mu} the
    coefficient of e^mu (fine weight mu) in the entry at u.

    T_{w^-1}^-1 = T_{i_1}^-1 ... T_{i_l}^-1 along the canonical word
    (i_1..i_l) of w, so T_i^-1 acts on X^lambda for i = i_l, ..., i_1,
    each step on a sum of P_x T_x^-1 (x = u^-1).  T_i^-1 = q^-1 T_i +
    (q^-1 - 1) and the Bernstein relation T_i P = s_i(P) T_i + (1 - q) D,
    D = (s_i(P) - P) / (1 - e^{-alpha_i}), give

        T_i^-1 P T_x^-1 = (q^-1 - 1)(D + P - s_i P) T_x^-1
                          + s_i(P) T_{x s_i}^-1          if x s_i > x,
                        = (q^-1 - 1)(D + P) T_x^-1
                          + q^-1 s_i(P) T_{x s_i}^-1     if x s_i < x,

    the second case from T_i^-2 = q^-1 + (q^-1 - 1) T_i^-1; so no Hecke
    products are needed.  With m = <mu, alpha_i^vee>, D(e^mu) is
    -sum_{j=0}^{m-1} e^{mu - j alpha_i} if m > 0, sum_{j=1}^{-m} e^{mu +
    j alpha_i} if m < 0, so the first coefficient sums e^{mu - j alpha_i}
    over j in [1, m + up), negated, or [m + up, 1), up = 1 if x s_i > x:
    terms between mu and s_i mu, in range when s_i P is.  Only the Weyl
    elements reached are made.
    """
    W = rs.weyl()
    r, h = rs.rank, rs.h
    q_inv = Scalar.q(-1)
    c = q_inv - Scalar.one()
    state = {0: GA.term(rs.weight(lam_fund))}
    for i in reversed(W.word(w)):
        s = FIELD * (r - i)  # the weight field i of a key
        ak = W.key(rs.weight(rs.simple_roots[i].fund))
        nxt = {}
        for x, P in state.items():
            xs = W.step(x, i)
            up = W.length[xs] > W.length[x]
            line, sP = {}, {}
            for k, a in P.c.items():
                m, rest = divmod((k >> s & MASK) - _HALF, h)
                if rest:
                    raise ValueError("Hecke weights must be integral")
                sP[k - m * ak] = a
                if m > 0:  # the keys of e^{mu - j alpha_i}
                    kjs, a = range(k - ak, k - (m + up) * ak, -ak), -a
                else:
                    kjs = range(k - (m + up) * ak, k - ak, -ak)
                for kj in kjs:
                    line[kj] = line.get(kj, 0) + a
            _check(sP, r)
            nxt.setdefault(x, []).append(
                (c, GA._new({k: a for k, a in line.items() if a})))
            nxt.setdefault(xs, []).append((1 if up else q_inv, GA._new(sP)))
        state = {x: g for x, pairs in nxt.items()
                 if (g := GA.dot(pairs))}
    return {W.inv(x): P for x, P in state.items()}


def chevalley_bridge(rs, w, lam_fund, sign):
    """C^w_{u, sign*lambda} through the Hecke transition coefficients:

        C_{u,-lambda}^w = sum_mu y^{l(w)-l(u)} e^{-mu} c_{u,mu}^{w,lambda}

    with q = -y built into the shared ring, one entry at a time.
    """
    W = rs.weyl()
    table = transition_direct(rs, w, tuple(sign * -c for c in lam_fund))
    return {u: g.star() * Scalar.y(W.length[w] - W.length[u])
            for u, g in table.items()}


def chevalley_operator(chain, w):
    """C^w_{u,lambda} via the operator formula R^[lambda] applied to the
    basis vector at w.

    States are {u: key dict} with exponents on the fine lattice, which
    holds the (1/h) X^*(T) exponents produced by the E-operators, less
    an offset per u.  Each R_beta = E^beta + E^{<rho,beta^vee> beta}
    B_beta is one move: u's offset grows by u(beta/h), and where u
    s_beta is shorter the entry is added at u s_beta times -(1+y) q^{k/2}
    e^{u s_beta(<rho, beta^vee> beta/h)}, k = l(u) - l(u s_beta) - 1,
    negated for beta < 0.  Exponents and offsets stay within the chain's
    exponent_bound, so below the guard of 2^17 no key carries across its
    fields; the output is range-checked once if the bound reaches LIMIT."""
    rs = chain.rs
    W = rs.weyl()
    r = rs.rank
    bound = chain.exponent_bound
    if bound >= _HALF // 4:
        raise ValueError("chain exponent bound %d out of range" % bound)
    n, length, images, mul_refl, keys = (W.npos, W.length, W.images,
                                         W.mul_refl, W.root_keys)
    state, offset = {w: {_BIAS[r]: 1}}, {w: 0}
    for a, _kh, neg, ch in chain.steps(True):
        down = []
        for u in state:
            b = images(u)[a]
            kb = keys[b]
            if b >= n:  # u s_beta (beta) = -u(beta)
                down.append((u, mul_refl(u, a), offset[u] - ch * kb))
            offset[u] += -kb if neg else kb
        for u, us, off in down:
            k = length[u] - length[us] - 1
            assert k % 2 == 0
            if us not in state:
                state[us], offset[us] = {}, off
            off -= offset[us]
            _add_products(state[us], [
                (vk + off, y) for vk, y in _term_pairs(1, k, neg, True)
            ], state[u].items())
        for u in [u for u, c in state.items() if not c]:
            del state[u], offset[u]
    out = {u: GA._new({k + offset[u]: x for k, x in c.items()})
           for u, c in state.items()}
    if bound >= LIMIT:
        _check(itertools.chain.from_iterable(g.c for g in out.values()), r)
    return out


def chevalley_tables(rs, lam_fund, ws, sign=1, method="chain", chain=None):
    """{w: {u: C^w_{u, sign*lambda}}} for the distinct elements ws, in
    their order; chain, a chain for +lambda, defaults to the lex chain.
    Every route makes only the Weyl elements it reaches."""
    ws = list(dict.fromkeys(ws))
    if method not in ("chain", "operator", "bridge"):
        raise ValueError("unknown method %r" % method)
    _pack(rs.weight(lam_fund))  # raises on a weight outside the packed range
    if not any(lam_fund):
        return {w: {w: GA.const(1, rs.rank)} for w in ws}
    if method == "operator" and sign < 0:
        raise ValueError("operator method computes the +lambda table")
    if method == "bridge":
        return {w: chevalley_bridge(rs, w, lam_fund, sign) for w in ws}
    if chain is None:
        chain = chain_lex_height(rs, lam_fund)
    if method == "operator":
        return {w: chevalley_operator(chain, w) for w in ws}
    if len(ws) == 1:
        return {ws[0]: chevalley_chain(chain, ws[0], sign)}
    return _chain_pass(chain, ws, sign)


def chevalley_sum(rs, lam_fund, ws, sign=1):
    """sum_{w in ws} sum_u q^{l(u)} C^w_{u, sign*lambda} over the distinct
    elements ws: the pass of chevalley_tables on the lex chain, lambda
    range-checked as there, with F_n(x) = q^{l(x)} e^{+-x(lambda)} under
    one shared u, so that the pass keeps one dict per element."""
    _pack(rs.weight(lam_fund))  # raises on a weight outside the packed range
    length = rs.weyl().length
    F = _chain_pass(chain_lex_height(rs, lam_fund), list(dict.fromkeys(ws)),
                    sign, lambda x, key: {0: {key + 2 * length[x]: 1}})
    return GA.dot((f[0], 1) for f in F.values() if f)


def chevalley_table(rs, lam_fund, w, sign=1, method="chain", chain=None):
    """Full Chevalley table {u: C^w_{u, sign*lambda}}: the one-w case of
    chevalley_tables."""
    return chevalley_tables(rs, lam_fund, (w,), sign, method, chain)[w]


# -- parabolic ---------------------------------------------------------

def chevalley_parabolic(rs, lam_fund, w, parabolic, method="chain"):
    """C^{w,P}_{u,lambda} for u, w in W^P and lambda a P-trivial weight.

    C^{w,P}_{u,lambda} = sum_{v in u W_P} (-y)^{l(v)-l(u)} C^w_{v,lambda}.
    """
    W = rs.weyl()
    if any(lam_fund[i] for i in parabolic):
        raise ValueError("lambda must pair to zero with the parabolic roots")
    if W.min_coset_rep(w, parabolic) != w:
        raise ValueError("w must be a minimal coset representative")
    full = chevalley_table(rs, lam_fund, w, sign=1, method=method)
    wp = W.parabolic_elements(parabolic)
    out = {}
    for u in W.min_coset_reps(parabolic):
        coset = [W.mul(u, p) for p in wp]
        acc = GA.dot(
            (full[v], Scalar.q(W.length[v] - W.length[u]))
            for v in coset if v in full
        )
        if acc:
            out[u] = acc
    return out


# -- dualities ---------------------------------------------------------

def duality_check(rs, lam_fund, w, u, kind, table_fn):
    """Return (lhs, rhs) GA values of the chosen duality for C^w_{u,lambda}.

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


# -- stable basis (of oracle.KOracle.stab) -----------------------------

def shift_matrix(rs, lam_fund):
    """S[u][w]: stab_{A+lambda}(u) = sum_w S[u][w] stab_A(w), the
    coefficient q^{(l(u)-l(w))/2} (C^w_{u,-lambda})^vee|_{y = -q^{-1}} of
    L_lambda (x) stab(u) at stab(w) times e^{-u(lambda)}.  The
    substitution fixes scalars and negates weights, so each entry is one
    product (C^w_{u,-lambda})^star e^{-u(lambda)} v^{l(u)-l(w)}."""
    W = rs.weyl()
    lam = rs.weight(lam_fund)
    out = {u: {} for u in range(W.n)}
    for w, table in chevalley_tables(rs, lam_fund, range(W.n), -1).items():
        for u, g in table.items():
            out[u][w] = g.star() * GA.term(_wneg(W.act(u, lam)),
                                           Scalar.v(W.length[u] - W.length[w]))
    return out


def wall_cross_path(rs, lam_fund):
    """M[w][x]: stab_A(w) = sum_x M[w][x] stab_{A+lambda}(x), composed
    along the alcove path from A to A+lambda of the lex lambda-chain.
    Crossing H_{beta,n} from A1 to A2, on its positive side,

        stab_{A1}(w) = stab_{A2}(w) + [w s_beta > w] e^{-n w(beta)}
                       (q^{1/2} - q^{-1/2}) stab_{A2}(w s_beta),

    so a w that does not ascend keeps its row as it is."""
    W = rs.weyl()
    one = GA.const(1, rs.rank)
    qdiff = Scalar.v(1) - Scalar.v(-1)
    # M_j expands the stab basis of the j-th alcove on the path in
    # the final basis; start at the far end with the identity.
    m = {w: {w: one} for w in range(W.n)}
    for a, kh, _odd, _c in reversed(
            chain_lex_height(rs, lam_fund).steps(False)):
        nb = tuple(-(kh // rs.h) * rs.h * c
                   for c in rs.positive_roots[a].fund)  # -n beta, fine lattice
        nxt = {}
        for w, row in m.items():
            ws = W.mul_refl(w, a)
            if W.length[ws] > W.length[w]:
                c = GA.term(W.act(w, nb), qdiff)
                row = dict(row)
                for z, d in m[ws].items():
                    s = GA.dot(((one, row[z]), (c, d))) if z in row else c * d
                    if s:
                        row[z] = s
                    else:
                        del row[z]
            nxt[w] = row
        m = nxt
    return m


def render_table(rs, table, mono=None):
    """One line per u, in the order of (length, canonical word); `mono`
    is the monomial text of a fine weight, `exp_mono` by default."""
    W = rs.weyl()
    mono = mono or exp_mono(rs.h)
    return "\n".join(
        "C[u=%s] = %s" % (W.word_str(u), table[u].render(mono))
        for u in W.ordered(table)
    )
