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

Those formulas sum over subsets J of chain positions.  descent_subsets
finds them for one starting element in one iterative depth-first pass
(an explicit stack, so a chain of any length fits) that carries, next
to the Weyl element reached, the translation part of the composed
affine reflections as a packed key offset (see charring) and the parity
of the negative roots taken, so each subset's weight key and sign are
read off without replaying the reflections (the incremental alcove walk
of Lenart-Postnikov).  It is the walk of a single-w table and of every
caller that needs each J; the tables of many w, and the weighted sums
behind H_lambda, the Hall-Littlewood chain formulas and the Whittaker
functions, are summed without listing the J, by a backward pass over
the same LambdaChain.steps (chevalley.chevalley_tables picks one or
the other; chevalley.chevalley_sum always takes the pass).
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


class Hyperplane:
    """H_{alpha,k} = {x : <x, alpha^vee> = k}, stored with alpha > 0.

    H_{alpha,k} and H_{-alpha,-k} are the same hyperplane; the canonical
    form keeps the positive root.
    """

    __slots__ = ("root", "level")

    def __init__(self, rs: RootSystem, root, level):
        if not root.positive:
            root = rs.root_by_simple(tuple(-c for c in root.simple))
            level = -level
        self.root = root
        self.level = level


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
    h_j = H_{-beta_j, d_j}; the walls h'_j of the reversed chain are
    computed with them."""

    def __init__(self, rs, lam_fund, betas, levels, word, reduced):
        self.rs = rs
        self.lam_fund = tuple(lam_fund)
        self.lam = rs.weight(lam_fund)
        self.betas = tuple(betas)      # Root objects, signs allowed
        self.levels = tuple(levels)    # d_j with hyperplane H_{-beta_j, d_j}
        self.word = tuple(word)
        self.reduced = reduced
        # H_{-beta_j, d_j} = H_{beta_j, -d_j}, and beta_j's wall seen from
        # A - lambda: H_{beta_j, <lambda, beta_j^vee> - d_j}
        self.walls = tuple(Hyperplane(rs, b, -d) for b, d in zip(betas, levels))
        self.far_levels = tuple(
            rs.pairing(lam_fund, b) - d for b, d in zip(betas, levels)
        )
        self.far_walls = tuple(
            Hyperplane(rs, b, k) for b, k in zip(betas, self.far_levels)
        )
        self._steps, self._lam_keys, self._descents = {}, {}, {}

    def __len__(self):
        return len(self.betas)

    def steps(self, ascending, far):
        """The positions in scan order as (j, a, kh, odd, c), once per
        direction and wall list (far_walls if far, else walls): walls[j-1]
        = H_{alpha_a,k}, kh = k h, odd = beta_j < 0, c = <rho, alpha^vee>."""
        memo = (ascending, far)
        if memo not in self._steps:
            order = range(len(self))
            walls = self.far_walls if far else self.walls
            self._steps[memo] = [
                (j + 1, walls[j].root.index, walls[j].level * self.rs.h,
                 not self.betas[j].positive, walls[j].root.coheight())
                for j in (order if ascending else reversed(order))]
        return self._steps[memo]

    def descents(self, ascending, far):
        """({u: the bitmask of the positions of steps(ascending, far) at
        which u descends}, [(a, the bits of the positions whose root is
        alpha_a)]); descent_subsets fills each mask on first use."""
        memo = (ascending, far)
        if memo not in self._descents:
            at = {}
            for pos, (_, a, _, _, _) in enumerate(self.steps(ascending, far)):
                at[a] = at.get(a, 0) | 1 << pos
            self._descents[memo] = {}, list(at.items())
        return self._descents[memo]

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
        return max(R * sum(1 + st[4] for st in self.steps(True, False)),
                   2 * rs.n_positive())

    def lam_key(self, u):
        """The packed key offset of u(lambda), kept by u."""
        if u not in self._lam_keys:
            self._lam_keys[u] = self.rs.lazy_weyl().act_key(u, self.lam)
        return self._lam_keys[u]

    def reversed_hyperplane(self, j):
        """h'_j = H_{beta_{l+1-j}, <lambda, beta^vee_{l+1-j}> - d_{l+1-j}}."""
        return self.far_walls[len(self) - j]

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
        return [
            {"beta": list(b.simple), "level": d}
            for b, d in zip(self.betas, self.levels)
        ]


def chain_from_word(rs: RootSystem, lam_fund, word, require_reduced=True):
    """Build the lambda-chain of an affine word for v_{-lambda}.

    `word` uses letters 0..r-1 for s_1..s_r and -1 (or r) for s_0.
    The path endpoint is verified against lambda; a letter outside
    -1..r or a word that does not map A to A - lambda raises ValueError.
    The prefixes make only the Weyl elements they reach, so any rank the
    root system accepts works.
    """
    word = tuple(-1 if i == rs.rank else i for i in word)
    if not all(-1 <= i < rs.rank for i in word):
        raise ValueError("word letters must lie in -1..%d" % rs.rank)
    W = rs.lazy_weyl()
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
    reduced = len(word) == sum(
        abs(rs.pairing(lam_fund, rt)) for rt in rs.positive_roots
    )
    chain = LambdaChain(rs, lam_fund, betas, levels, word, reduced)
    try:
        _validate_chain(chain)
    except AssertionError:
        raise ValueError(
            "word does not map the fundamental alcove to A-lambda"
        ) from None
    if require_reduced and not reduced:
        raise ValueError("word is not reduced")
    return chain


def chain_lex_height(rs: RootSystem, lam_fund):
    """The reduced lambda-chain from the lexicographic height function.

    The multiset of hyperplanes is forced (those separating A from
    A - lambda); the order sorts h(s_{alpha,k}) lexicographically with
    the natural Dynkin-node order.  Built once per (rs, lambda) and kept
    in rs.lex_chains, as rs.lazy_weyl() keeps its elements.
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
    betas = [e[1] for e in entries]
    levels = [e[2] for e in entries]
    chain = LambdaChain(rs, lam_fund, betas, levels, (), True)
    _validate_chain(chain)
    return chain


def _validate_chain(chain):
    """Composing the separating reflections must map A to A - lambda:
    crossing the wall h_j reflects the tracked point of A."""
    rs = chain.rs
    S = _scale(rs)
    p = (S - 1,) * rs.rank
    for h in chain.walls:
        p = rs.affine_reflect(p, h.root, h.level * S)
    p = tuple(c + S * x for c, x in zip(p, chain.lam))
    if not _in_alcove(rs, _walls(rs), p):
        raise AssertionError("chain reflections do not reach A - lambda")


def descent_subsets(chain: LambdaChain, w, ascending, far):
    """All (u, J, B, odd) with J a sorted tuple of chain positions along
    which w descends: scanning the positions in the given direction,
    each position j in J right-multiplies by r_{h_j} and lowers the
    length; u is the element reached, and odd whether an odd number of
    the roots beta_j, j in J, is negative.

    B is the translation the walk picks up, as a packed key offset
    (WeylGroup.act_key).  With walls chain.far_walls if far, else
    chain.walls, and H_{alpha,k} their j-th entry, choosing j adds
    cur(k alpha), cur being the element reached just before j; cur's
    images give its key and whether cur descends at j.  So if j(1), ...,
    j(t) are the positions of J in scan order and r_j is the affine
    reflection in walls[j-1],

        w r_{j(1)} ... r_{j(t)} (x) = u(x) + B.

    The open branches sit on a stack, not the call stack, listed in the
    order of the recursion that skips a position before taking it; a
    node's positions are the set bits of its mask (chain.descents).
    """
    W = chain.rs.lazy_weyl()
    steps = chain.steps(ascending, far)
    masks, at = chain.descents(ascending, far)
    n, images, mul_refl, keys = W.npos, W.images, W.mul_refl, W.root_keys
    out, stack = [], [(0, w, (), 0, False)]
    while stack:
        i, cur, J, B, odd = stack.pop()
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
                j, a, kh, neg, _ = steps[pos]
                stack.append((pos + 1, mul_refl(cur, a), J + (j,),
                              B + kh * keys[img[a]], odd ^ neg))
        out.append((cur, J if ascending else J[::-1], B, odd))
    return out
