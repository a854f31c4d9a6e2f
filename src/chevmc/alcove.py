"""Affine hyperplanes, alcove walks and lambda-chains (identity sheet).

An integral weight lambda determines the affine Weyl group element
v_{-lambda} with v_{-lambda}(A) = A - lambda, where A is the fundamental
alcove {x : 0 < <x, alpha^vee> < 1 for alpha > 0}.  Its walls define the
affine letters: s_i is the reflection in H_{alpha_i,0} (i = 1..r) and
s_0 the reflection in H_{theta~,1}, with theta~ the positive root of
maximal coheight (its coroot is the highest coroot; theta~ is the
highest short root).  Each word for v_{-lambda} yields a lambda-chain
of roots beta_1..beta_l with separating hyperplanes H_{-beta_j, d_j};
the chains drive every transition and Chevalley formula downstream.

Those formulas sum over subsets J of chain positions, scanned in one
of two ways: the walls h_j in ascending j (+lambda) or the far walls,
those of the reversed chain, in descending j (-lambda); a LambdaChain
keeps just these two scans.  descent_subsets finds the J for one
starting element in one iterative depth-first pass (an explicit stack,
so a chain of any length fits) that carries, next to the Weyl element
reached, |J|, the translation part of the composed affine reflections
as a packed key offset (see charring) and the parity of the negative
roots taken, so each subset's weight key and sign are read off without
replaying the reflections (the incremental alcove walk of
Lenart-Postnikov).  It is the walk of a single-w table; the tables of
many w, and the weighted sums behind H_lambda, the Hall-Littlewood
chain formulas and the Whittaker functions, are summed without listing
the J, by a backward pass over the same LambdaChain.steps
(chevalley.chevalley_tables picks one or the other;
chevalley.chevalley_sum always takes the pass).
chain_lex_height builds each chain once per root system and weight;
chains are immutable and shared.

Alcoves are tracked by one interior point of A, (1 - 1/(2h^2)) rho/h,
which never lies on a wall.  Points are integer tuples on the fine
lattice scaled by S = 2h^2, where that point is (S-1, ..., S-1), and
are moved only by RootSystem.affine_reflect with the level scaled by S.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .rootsystem import RootSystem


def _walls(rs):
    """The walls of A as (root, level), indexed by affine letter:
    H_{alpha_i,0} at i = 0..r-1 and H_{theta~,1} at r, which index -1
    also reaches."""
    theta = max(rs.positive_roots, key=lambda rt: rt.coheight())
    return [(a, 0) for a in rs.simple_roots] + [(theta, 1)]


def _scale(rs):
    return 2 * rs.h * rs.h


def _in_alcove(rs, walls, p):
    """Whether the scaled point p lies in A."""
    top = _scale(rs) * rs.h
    return all(c > 0 for c in p) and rs.pair_coroot(p, walls[-1][0]) < top


class LambdaChain:
    """A lambda-chain beta_1..beta_l with separating hyperplanes
    h_j = H_{-beta_j, d_j}, kept as the two scans every route reads.

    steps(True) lists the walls h_j in ascending j, steps(False) the far
    walls H_{beta_j, <lambda, beta_j^vee> - d_j} (beta_j's wall seen
    from A - lambda, the walls of the reversed chain) in descending j.
    A position is (a, kh, odd, c) for its wall H_{alpha_a,k} written
    with alpha_a > 0 (so k changes sign where beta_j < 0): kh = k h,
    odd = beta_j < 0 and c = <rho, alpha_a^vee>."""

    def __init__(self, rs, lam_fund, betas, levels, reduced):
        self.rs = rs
        self.lam_fund = tuple(lam_fund)
        self.lam = rs.weight(lam_fund)
        self.betas = tuple(betas)      # Root objects, signs allowed
        self.levels = tuple(levels)    # d_j with hyperplane H_{-beta_j, d_j}
        self.reduced = reduced
        near, far = [], []
        for b, d in zip(self.betas, self.levels):
            odd = not b.positive
            a = rs.root_by_simple(tuple(-x for x in b.simple)) if odd else b
            s, c = -rs.h if odd else rs.h, a.coheight()
            near.append((a.index, -d * s, odd, c))
            far.append((a.index, (rs.pairing(lam_fund, b) - d) * s, odd, c))
        self._scans = tuple(far[::-1]), tuple(near)
        self._descents = []
        for scan in self._scans:
            at = {}
            for pos, st in enumerate(scan):
                at[st[0]] = at.get(st[0], 0) | 1 << pos
            self._descents.append(({}, list(at.items())))
        self._lam_keys = {}

    def __len__(self):
        return len(self.betas)

    def steps(self, ascending):
        """The positions as (a, kh, odd, c): the walls h_j in ascending
        j, or else the far walls in descending j."""
        return self._scans[ascending]

    def descents(self, ascending):
        """({u: the bitmask of the positions of steps(ascending) at which
        u descends}, [(a, the bits of the positions whose root is
        alpha_a)]); descent_subsets fills each mask on first use."""
        return self._descents[ascending]

    @cached_property
    def exponent_bound(self):
        """A bound on |e| for every exponent e the operator route
        (chevalley.chevalley_operator) reaches from any w: a position with
        c = <rho, alpha^vee> shifts an entry by u(beta/h) or moves it by c
        u(beta), never both, so a weight field by at most R (1 + c), R the
        largest |fundamental coordinate| of a root; along a path the v
        exponents k + {0, 2} of -(1+y) q^{k/2} add to l(w) + t <= 2N.
        The route refuses a chain whose bound reaches 2^17 and checks its
        output only when the bound reaches charring.LIMIT."""
        rs = self.rs
        R = max(abs(c) for rt in rs.positive_roots for c in rt.fund)
        return max(R * sum(1 + st[3] for st in self.steps(True)),
                   2 * rs.n_positive())

    def lam_key(self, u):
        """The packed key offset of u(lambda), kept by u."""
        if u not in self._lam_keys:
            self._lam_keys[u] = self.rs.weyl().act_key(u, self.lam)
        return self._lam_keys[u]

    def render(self):
        out = []
        for b, d in zip(self.betas, self.levels):
            alpha = "+".join(
                ("a%d" % (i + 1)) if c == 1 else ("%d*a%d" % (c, i + 1))
                for i, c in enumerate(b.simple)
                if c
            ).replace("+-", "-")
            out.append("(%s, %d)" % (alpha or "0", d))
        return "[" + ", ".join(out) + "]"

    def to_json(self):
        return [{"beta": list(b.simple), "level": d}
                for b, d in zip(self.betas, self.levels)]


def chain_from_word(rs: RootSystem, lam_fund, word):
    """Build the lambda-chain of an affine word for v_{-lambda}.

    `word` uses letters 0..r-1 for s_1..s_r and -1 (or r) for s_0.
    The path endpoint is verified against lambda; a letter outside
    -1..r or a word that does not map A to A - lambda raises ValueError;
    a word longer than l(v_{-lambda}) builds a chain with reduced False.
    The prefixes make only the Weyl elements they reach, so any rank the
    root system accepts works.
    """
    word = tuple(-1 if i == rs.rank else i for i in word)
    if not all(-1 <= i < rs.rank for i in word):
        raise ValueError("word letters must lie in -1..%d" % rs.rank)
    W = rs.weyl()
    h = rs.h
    walls = _walls(rs)
    # One pass over the prefixes v = s_{i1} ... s_{i_{j-1}}, each the map
    # x -> wcur(x) + t.  With alpha_0 = -theta~, letter i reflects in the
    # wall {<x, alpha_i^vee> = -k} of A (k = 1 at s_0, else 0), which v
    # carries to H_{-beta_j, d_j}: beta_j = wcur(alpha_i) and
    # d_j = k - <t, beta_j^vee>.
    by_fine = {tuple(h * c for c in rt.fund): rt for rt in rs.roots}
    theta = walls[-1][0]
    theta_fine = tuple(h * c for c in theta.fund)
    betas = []
    levels = []
    wcur = 0
    t = (0,) * rs.rank  # fine coordinates
    for i in word:
        root, k = walls[i]
        alpha = tuple((-1) ** k * h * c for c in root.fund)
        beta = by_fine[W.act(wcur, alpha)]
        betas.append(beta)
        levels.append(k - rs.pair_coroot(t, beta) // h)
        if k:
            # v s_0 = (x -> wcur s_theta~(x) + wcur(theta~) + t)
            t = tuple(a + b for a, b in zip(t, W.act(wcur, theta_fine)))
            wcur = W.mul_refl(wcur, theta.index)
        else:
            wcur = W.step(wcur, i)
    # l(v_{-lambda}) counts the hyperplanes separating A from A - lambda
    reduced = len(word) == sum(abs(rs.pairing(lam_fund, rt))
                               for rt in rs.positive_roots)
    chain = LambdaChain(rs, lam_fund, betas, levels, reduced)
    try:
        _validate_chain(chain)
    except AssertionError:
        raise ValueError(
            "word does not map the fundamental alcove to A-lambda"
        ) from None
    return chain


def chain_lex_height(rs: RootSystem, lam_fund):
    """The reduced lambda-chain from the lexicographic height function.

    The multiset of hyperplanes is forced (those separating A from
    A - lambda); the order sorts h(s_{alpha,k}) lexicographically with
    the natural Dynkin-node order.  Built once per (rs, lambda) and kept
    in rs.lex_chains, as rs.weyl() keeps its elements.
    """
    lam_fund = tuple(lam_fund)
    chain = rs.lex_chains.get(lam_fund)
    if chain is None:
        chain = rs.lex_chains[lam_fund] = _lex_chain(rs, lam_fund)
    return chain


def _lex_chain(rs, lam_fund):
    entries = []  # (height tuple, beta_j, level d_j of H_{-beta_j, d_j})
    for rt in rs.positive_roots:
        m = rs.pairing(lam_fund, rt)
        if m > 0:
            ks = range(0, -m, -1)          # 0 >= k > -m
            beta = rt
        elif m < 0:
            ks = range(1, -m + 1)          # 0 < k <= -m
            beta = rs.root_by_simple(tuple(-c for c in rt.simple))
        else:
            continue
        for k in ks:
            height = tuple(
                Fraction(x, m) for x in (-k,) + tuple(rt.coroot)
            )
            # H_{alpha,k} = H_{-beta,|k|}: beta = alpha when k <= 0 and
            # beta = -alpha when k > 0
            entries.append((height, beta, abs(k)))
    entries.sort(key=lambda e: e[0])
    chain = LambdaChain(rs, lam_fund, [e[1] for e in entries],
                        [e[2] for e in entries], True)
    _validate_chain(chain)
    return chain


def _validate_chain(chain):
    """Composing the separating reflections must map A to A - lambda:
    crossing the wall h_j reflects the tracked point of A."""
    rs = chain.rs
    S = _scale(rs)
    p = (S - 1,) * rs.rank
    for a, kh, _odd, _c in chain.steps(True):
        p = rs.affine_reflect(p, rs.positive_roots[a], kh * (S // rs.h))
    p = tuple(c + S * x for c, x in zip(p, chain.lam))
    if not _in_alcove(rs, _walls(rs), p):
        raise AssertionError("chain reflections do not reach A - lambda")


def descent_subsets(chain: LambdaChain, w, ascending):
    """All (u, t, B, odd) for the subsets J of chain positions along
    which w descends: scanning chain.steps(ascending), each position of
    J right-multiplies by the reflection in its wall and lowers the
    length; u is the element reached, t = |J|, and odd whether an odd
    number of the roots beta_j, j in J, is negative.

    B is the translation the walk picks up, as a packed key offset
    (WeylGroup.act_key).  With H_{alpha,k} the wall of a position,
    choosing it adds cur(k alpha), cur being the element reached just
    before it; cur's images give its key and whether cur descends
    there.  So if r_1, ..., r_t are the affine reflections in the walls
    of J in scan order,

        w r_1 ... r_t (x) = u(x) + B.

    The open branches sit on a stack, not the call stack, listed in the
    order of the recursion that skips a position before taking it; a
    node's positions are the set bits of its mask (chain.descents).
    """
    W = chain.rs.weyl()
    steps = chain.steps(ascending)
    masks, at = chain.descents(ascending)
    n, images, mul_refl, keys = W.npos, W.images, W.mul_refl, W.root_keys
    out, stack = [], [(0, w, 0, 0, False)]
    while stack:
        i, cur, t, B, odd = stack.pop()
        m = masks.get(cur)
        if m is None:
            img = images(cur)
            m = masks[cur] = sum(bits for a, bits in at if img[a] >= n)
        m = m >> i << i
        if m:
            img = images(cur)
            while m:
                pos = (m & -m).bit_length() - 1
                m &= m - 1
                a, kh, neg, _ = steps[pos]
                stack.append((pos + 1, mul_refl(cur, a), t + 1,
                              B + kh * keys[img[a]], odd ^ neg))
        out.append((cur, t, B, odd))
    return out
