"""Affine hyperplanes, alcove walks and lambda-chains (identity sheet).

An integral weight lambda determines the affine Weyl group element
v_{-lambda} with v_{-lambda}(A) = A - lambda, where A is the fundamental
alcove.  Each reduced word of v_{-lambda} yields a lambda-chain of roots
beta_1..beta_l with separating hyperplanes H_{-beta_j, d_j}; the chains
drive every transition and Chevalley formula downstream.

Alcove geometry is done by tracking one exact rational interior point of
A; the base point (1-eps) * rho / h with eps = 1/(2h^2) can never land
on a wall, which is asserted defensively.
"""

from __future__ import annotations

from fractions import Fraction

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

    def key(self):
        return (self.root.index, self.level)

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def reflect_weight(self, rs: RootSystem, fine):
        """The affine reflection r^_h on the fine weight lattice."""
        return rs.affine_reflect(fine, self.root, self.level)

    def reflect_point(self, rs: RootSystem, point):
        """Same reflection on a rational point in fundamental coords."""
        m = sum(Fraction(d) * c for d, c in zip(self.root.coroot, point))
        shift = m - self.level
        return tuple(c - shift * f for c, f in zip(point, self.root.fund))

    def render(self, one_based=True):
        alpha = "+".join(
            ("a%d" % (i + 1)) if c == 1 else ("%d*a%d" % (c, i + 1))
            for i, c in enumerate(self.root.simple)
            if c
        )
        return "H_{%s,%d}" % (alpha, self.level)

    def __repr__(self):
        return self.render()


def base_point(rs: RootSystem):
    """A fixed rational interior point of the fundamental alcove."""
    eps = Fraction(1, 2 * rs.h * rs.h)
    c = (1 - eps) / rs.h
    return (c,) * rs.rank


def _in_fundamental_alcove(rs, point):
    for rt in rs.positive_roots:
        m = sum(Fraction(d) * c for d, c in zip(rt.coroot, point))
        if m <= 0 or m >= 1:
            return False
    return True


def _pairing(rt, point):
    return sum(Fraction(d) * c for d, c in zip(rt.coroot, point))


def _apply_affine_letter(rs, i, point):
    """Letter s_i of the affine Weyl group; i = -1 encodes s_0 = s_{theta,1}."""
    if i < 0:
        th = rs.highest_root
        m = _pairing(th, point) - 1
        return tuple(c - m * f for c, f in zip(point, th.fund))
    m = point[i]
    return tuple(
        c - m * Fraction(rs.cartan[j][i]) for j, c in enumerate(point)
    )


def v_minus_lambda(rs: RootSystem, lam_fund):
    """A reduced word for v_{-lambda} (letters in -1, 0..r-1 with -1 = s_0).

    Walks the interior point of A - lambda back into A through walls of
    the fundamental alcove; each wall reflection shortens the gallery
    distance by one, so the collected word is reduced.
    """
    p = tuple(
        b - Fraction(c) for b, c in zip(base_point(rs), lam_fund)
    )
    word = []
    guard = 0
    while not _in_fundamental_alcove(rs, p):
        guard += 1
        if guard > 100000:
            raise AssertionError("alcove walk failed to terminate")
        moved = False
        for i in range(rs.rank):
            if p[i] < 0:
                assert p[i] != 0, "interior point landed on a wall"
                p = _apply_affine_letter(rs, i, p)
                word.append(i)
                moved = True
                break
        if moved:
            continue
        m = _pairing(rs.highest_root, p)
        assert m != 1, "interior point landed on a wall"
        if m > 1:
            p = _apply_affine_letter(rs, -1, p)
            word.append(-1)
        else:  # pragma: no cover - inconsistent state
            raise AssertionError("point outside alcove but no wall violated")
    # collected letters satisfy s_lk ... s_l1 (A - lambda) = A, so
    # v_-lambda = s_l1 s_l2 ... s_lk with the rightmost letter acting
    # first -- already the composition order chain_from_word expects
    return tuple(word)


class LambdaChain:
    """A lambda-chain beta_1..beta_l with separating hyperplanes
    H_{-beta_j, d_j}."""

    def __init__(self, rs, lam_fund, betas, levels, word, reduced):
        self.rs = rs
        self.lam_fund = tuple(lam_fund)
        self.lam = rs.weight(lam_fund)
        self.betas = list(betas)       # Root objects, signs allowed
        self.levels = list(levels)     # d_j with hyperplane H_{-beta_j, d_j}
        self.word = tuple(word)
        self.reduced = reduced

    def __len__(self):
        return len(self.betas)

    def hyperplane(self, j):
        """Separating hyperplane h_j = H_{-beta_j, d_j} (1-based j)."""
        b = self.betas[j - 1]
        neg = self.rs.root_by_simple(tuple(-c for c in b.simple))
        return Hyperplane(self.rs, neg, self.levels[j - 1])

    def hyperplanes(self):
        return [self.hyperplane(j) for j in range(1, len(self) + 1)]

    def reversed_hyperplane(self, j):
        """h'_j = H_{beta_{l+1-j}, <lambda, beta^vee_{l+1-j}> - d_{l+1-j}}."""
        l = len(self)
        b = self.betas[l - j]
        lvl = self.rs.pairing(self.lam_fund, b) - self.levels[l - j]
        return Hyperplane(self.rs, b, lvl)

    def reverse(self):
        """The (-lambda)-chain (-beta_l, ..., -beta_1)."""
        rs = self.rs
        l = len(self)
        betas = [
            rs.root_by_simple(tuple(-c for c in b.simple))
            for b in reversed(self.betas)
        ]
        # the j-th separating hyperplane of the reversed chain is
        # h'_j = H_{beta_{l+1-j}, <lambda,beta^vee>-d}; since the new
        # beta_j is -beta_{l+1-j}, this is literally H_{-beta_j^new, d'}
        levels = []
        for j in range(1, l + 1):
            b_old = self.betas[l - j]
            levels.append(
                self.rs.pairing(self.lam_fund, b_old) - self.levels[l - j]
            )
        neg_lam = tuple(-c for c in self.lam_fund)
        return LambdaChain(rs, neg_lam, betas, levels, (), self.reduced)

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
    The path endpoint is verified against lambda; a word that does not
    map A to A - lambda raises ValueError.
    """
    word = tuple(-1 if i == rs.rank else i for i in word)
    # verify endpoint: v = s_{i1} ... s_{il} as a composition (rightmost
    # letter acts first) must send the base point into A - lambda
    v_p = base_point(rs)
    for i in reversed(word):
        v_p = _apply_affine_letter(rs, i, v_p)
    shifted = tuple(c + Fraction(x) for c, x in zip(v_p, lam_fund))
    if not _in_fundamental_alcove(rs, shifted):
        raise ValueError("word does not map the fundamental alcove to A-lambda")
    if require_reduced and len(word) != len(v_minus_lambda(rs, lam_fund)):
        raise ValueError("word is not reduced")

    # betas: beta_j = sbar_{i1} ... sbar_{i_{j-1}} (alpha_{ij}) with
    # alpha_0 = -theta and sbar_0 = s_theta (finite parts only)
    W = rs.weyl()
    theta = rs.highest_root
    s_theta = W.reflection(theta)
    betas = []
    wcur = 0  # finite part sbar_{i1}...sbar_{i_{j-1}}
    for j, i in enumerate(word):
        if i < 0:
            alpha_fine = tuple(-rs.h * c for c in theta.fund)
        else:
            alpha_fine = rs.weight(
                tuple(rs.cartan[k][i] for k in range(rs.rank))
            )
        image = W.act(wcur, alpha_fine)
        simple_coords = _root_simple_from_fine(rs, image)
        betas.append(rs.root_by_simple(simple_coords))
        step = s_theta if i < 0 else W.from_word((i,))
        wcur = W.mul(wcur, step)

    # levels from midpoints of consecutive alcove interior points
    pts = [base_point(rs)]
    for j in range(1, len(word) + 1):
        q = base_point(rs)
        for i in reversed(word[:j]):
            q = _apply_affine_letter(rs, i, q)
        pts.append(q)
    levels = []
    for j, b in enumerate(betas, start=1):
        mid = tuple(
            (a + c) / 2 for a, c in zip(pts[j - 1], pts[j])
        )
        # hyperplane is H_{-beta_j, d_j}: <mid, (-beta_j)^vee> = d_j
        val = -_pairing(b, mid)
        assert val.denominator == 1, "midpoint not on an integral wall"
        levels.append(int(val))
    reduced = len(word) == len(v_minus_lambda(rs, lam_fund))
    return LambdaChain(rs, lam_fund, betas, levels, word, reduced)


def _root_simple_from_fine(rs, fine):
    """Simple-root coordinates of a root given on the fine lattice."""
    for rt in rs.roots:
        if tuple(rs.h * c for c in rt.fund) == tuple(fine):
            return rt.simple
    raise ValueError("not a root: %r" % (fine,))


def chain_lex_height(rs: RootSystem, lam_fund):
    """The reduced lambda-chain from the lexicographic height function.

    The multiset of hyperplanes is forced (those separating A from
    A - lambda); the order sorts h(s_{alpha,k}) lexicographically with
    the natural Dynkin-node order.
    """
    entries = []  # (height tuple, root-or-negative, level d_j of H_{-beta,d})
    for rt in rs.positive_roots:
        m = rs.pairing(lam_fund, rt)
        if m == 0:
            continue
        if m > 0:
            ks = range(0, -m, -1)          # 0 >= k > -m
        else:
            ks = range(1, -m + 1)          # 0 < k <= -m
        for k in ks:
            denom = Fraction(m)
            height = (Fraction(-k) / denom,) + tuple(
                Fraction(d) / denom for d in rt.coroot
            )
            if k <= 0:
                beta = rt
            else:
                beta = rs.root_by_simple(tuple(-c for c in rt.simple))
            # hyperplane is H_{alpha, k}; chain stores H_{-beta_j, d_j}
            d = -k if k <= 0 else k  # level for root -beta
            # H_{alpha,k} = H_{-beta, d}: if beta = alpha then -beta = -alpha
            # and d = -k; if beta = -alpha then -beta = alpha and d = k.
            entries.append((height, beta, -k if beta is rt else k))
    entries.sort(key=lambda e: e[0])
    betas = [e[1] for e in entries]
    levels = [e[2] for e in entries]
    chain = LambdaChain(rs, lam_fund, betas, levels, (), True)
    _validate_chain(chain)
    return chain


def _validate_chain(chain):
    """Composing the separating reflections must map A to A - lambda."""
    rs = chain.rs
    p = base_point(rs)
    for j in range(1, len(chain) + 1):
        # crossing the separating wall reflects the tracked point
        p = chain.hyperplane(j).reflect_point(rs, p)
    shifted = tuple(c + Fraction(x) for c, x in zip(p, chain.lam_fund))
    if not _in_fundamental_alcove(rs, shifted):
        raise AssertionError("chain reflections do not reach A - lambda")


def chain_reflections(chain: LambdaChain, J):
    """For sorted J = (j_1 < ... < j_t) return the data of the
    chain-indexed reflection operators.

    Returns a dict with:
      rhat_Jlt   callable on fine weights: r^_{J<} = r^_{h_j1} ... r^_{h_jt}
      rtilde_Jgt callable on fine weights: r~_{J>} = r~_{h_jt} ... r~_{h_j1}
      n_J        #{j in J : beta_j < 0}
    """
    rs = chain.rs
    hs = [chain.hyperplane(j) for j in J]
    hps = [chain.reversed_hyperplane(len(chain) + 1 - j) for j in J]
    n_J = sum(1 for j in J if not chain.betas[j - 1].positive)

    def rhat(fine):
        out = fine
        for h in reversed(hs):
            out = h.reflect_weight(rs, out)
        return out

    def rtilde(fine):
        out = fine
        for h in hps:
            out = h.reflect_weight(rs, out)
        return out

    return {"rhat_Jlt": rhat, "rtilde_Jgt": rtilde, "n_J": n_J}


def descent_subsets(chain: LambdaChain, w, ascending):
    """All (u, J) with J a sorted tuple of chain positions along which w
    descends: scanning the positions in the given direction, each
    position j in J right-multiplies by r_{h_j} and lowers the length;
    u is the element reached."""
    W = chain.rs.weyl()
    l = len(chain)
    refl = [None] + [W.reflection(h.root) for h in chain.hyperplanes()]
    positions = list(range(1, l + 1)) if ascending else list(range(l, 0, -1))
    out = []

    def dfs(pos_idx, cur, J):
        if pos_idx == len(positions):
            out.append((cur, tuple(sorted(J))))
            return
        dfs(pos_idx + 1, cur, J)
        j = positions[pos_idx]
        nxt = W.mul(cur, refl[j])
        if W.length[nxt] < W.length[cur]:
            dfs(pos_idx + 1, nxt, J + [j])

    dfs(0, w, [])
    return out
