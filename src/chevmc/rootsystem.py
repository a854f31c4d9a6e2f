"""Root systems, Weyl groups and Bruhat order, all exact.

Weights are handled in fundamental-weight coordinates.  To keep every
exponential that the operator calculus produces inside a single integer
lattice, weights are stored scaled by h = <rho, theta^vee> + 1 (the
"fine" lattice): the integral weight sum(c_i varpi_i) has fine
coordinates (h*c_1, ..., h*c_r).

Weyl-group elements are integers of one store per root system
(`RootSystem.weyl()`), made when a computation first reaches them, so a
query about one w works on E7 and E8 too; the first read of the whole
group (the Bruhat order, cosets, any all-w computation) completes the
store, which refuses groups above WEYL_CAP elements.
"""

from __future__ import annotations

import re
from array import array
from functools import cached_property
from operator import mul

from .charring import MAX_RANK, _BIAS, _weight, pack_columns


_WEYL_ORDER = {
    "A": lambda n: _fact(n + 1),
    "B": lambda n: (1 << n) * _fact(n),
    "C": lambda n: (1 << n) * _fact(n),
    "D": lambda n: (1 << (n - 1)) * _fact(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


# the largest group a WeylGroup completes (E6 and F4 fit)
WEYL_CAP = 100000


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def cartan_matrix(family, rank):
    """cartan[i][j] = <alpha_j, alpha_i^vee>."""
    if rank < 1:
        raise ValueError("rank must be at least 1, got %d" % rank)
    A = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def link(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if family == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif family in ("B", "C"):
        if rank < 2:
            raise ValueError("%s requires rank >= 2" % family)
        for i in range(rank - 2):
            link(i, i + 1)
        if family == "B":
            # alpha_rank short: <alpha_{r-1}, alpha_r^vee> = -2
            link(rank - 2, rank - 1, -1, -2)
        else:
            link(rank - 2, rank - 1, -2, -1)
    elif family == "D":
        if rank < 3:
            raise ValueError("D requires rank >= 3")
        for i in range(rank - 3):
            link(i, i + 1)
        link(rank - 3, rank - 2)
        link(rank - 3, rank - 1)
    elif family == "G":
        if rank != 2:
            raise ValueError("G requires rank 2")
        # alpha_1 short: <alpha_2, alpha_1^vee> = -3
        link(0, 1, -3, -1)
    elif family == "F":
        if rank != 4:
            raise ValueError("F requires rank 4")
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E requires rank 6, 7 or 8")
        # Bourbaki numbering: node 2 attached to node 4.
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            link(a - 1, b - 1)
        link(2 - 1, 4 - 1)
    else:
        raise ValueError("unknown family %r" % family)
    return tuple(tuple(row) for row in A)


class Root:
    """A root with its simple-root, simple-coroot and fundamental
    coordinates."""

    __slots__ = ("simple", "coroot", "fund", "index", "positive")

    def __init__(self, simple, coroot, fund):
        self.simple = simple    # coords in the simple-root basis
        self.coroot = coroot    # coords of alpha^vee in the simple corootbasis
        self.fund = fund        # coords in the fundamental-weight basis
        self.index = None       # position among positive roots (if positive)
        self.positive = all(c >= 0 for c in simple)

    def height(self):
        return sum(self.simple)

    def coheight(self):
        return sum(self.coroot)


class RootSystem:
    """Finite crystallographic root system of a given family and rank."""

    def __init__(self, family, rank):
        family = family.upper()
        # the packed ring holds weights of at most MAX_RANK coordinates
        if rank > MAX_RANK:
            raise ValueError("rank %d above the supported bound %d"
                             % (rank, MAX_RANK))
        self.family = family
        self.rank = rank
        self.cartan = cartan_matrix(family, rank)
        self.weyl_order = _WEYL_ORDER[family](rank)
        self._build_roots()
        # Coxeter number: <rho, theta^vee> + 1 with theta^vee the highest coroot
        self.h = 1 + max(t.coheight() for t in self.positive_roots)
        self._weyl = None
        # reduced lambda-chains by weight, kept by alcove.chain_lex_height,
        # and Whittaker functions by (weight, w), by specialfn.whittaker
        self.lex_chains, self.whittakers = {}, {}

    # -- roots --------------------------------------------------------
    def _build_roots(self):
        r = self.rank
        A = self.cartan
        seen = {}
        todo = []
        for i in range(r):
            simple = tuple(1 if j == i else 0 for j in range(r))
            coroot = simple
            fund = tuple(A[j][i] for j in range(r))
            rt = Root(simple, coroot, fund)
            seen[simple] = rt
            todo.append(rt)
        # alpha_1..alpha_r in index order (positive_roots lists the
        # height-1 roots by their simple coordinates, so reversed)
        self.simple_roots = tuple(todo)
        while todo:
            rt = todo.pop()
            for i in range(r):
                # <alpha, alpha_i^vee> from fundamental coords
                m = rt.fund[i]
                simple = tuple(
                    c - m * (j == i) for j, c in enumerate(rt.simple)
                )
                if simple in seen:
                    continue
                # s_i(alpha^vee) = alpha^vee - <alpha_i, alpha^vee> alpha_i^vee
                mi = sum(d * A[k][i] for k, d in enumerate(rt.coroot))
                coroot = tuple(
                    d - mi * (j == i) for j, d in enumerate(rt.coroot)
                )
                # fund(s_i alpha) = fund(alpha) - <alpha, alpha_i^vee> fund(alpha_i)
                fund = tuple(
                    f - m * g
                    for f, g in zip(rt.fund, self.simple_roots[i].fund)
                )
                new = Root(simple, coroot, fund)
                seen[simple] = new
                todo.append(new)
        roots = sorted(seen.values(), key=lambda t: (t.height(), t.simple))
        self.roots = roots
        self.positive_roots = [t for t in roots if t.positive]
        for idx, t in enumerate(self.positive_roots):
            t.index = idx
        self._by_simple = {t.simple: t for t in roots}

    def root_by_simple(self, simple):
        return self._by_simple[tuple(simple)]

    def n_positive(self):
        return len(self.positive_roots)

    def horizontal_roots(self, parabolic):
        """Positive roots outside the Levi of P: the tangent weights of G/P."""
        return [
            a for a in self.positive_roots
            if any(a.simple[i] for i in range(self.rank) if i not in parabolic)
        ]

    # -- weights ------------------------------------------------------
    def weight(self, fund_coords):
        """Fine-lattice tuple of an integral weight given in fundamental
        coordinates."""
        if len(fund_coords) != self.rank:
            raise ValueError("expected %d coordinates" % self.rank)
        return tuple(self.h * c for c in fund_coords)

    def weight_user(self, fine):
        """Back to fundamental coordinates; raises when not integral."""
        out = []
        for c in fine:
            if c % self.h:
                raise ValueError("weight %r is not integral" % (fine,))
            out.append(c // self.h)
        return tuple(out)

    def rho(self):
        return self.weight((1,) * self.rank)

    def pair_coroot(self, fine, root):
        """<mu, alpha^vee> * h for a fine-lattice mu (exact integer)."""
        return sum(d * c for d, c in zip(root.coroot, fine))

    def pairing(self, fund_coords, root):
        """<mu, alpha^vee> for mu in fundamental coordinates."""
        return sum(d * c for d, c in zip(root.coroot, fund_coords))

    def affine_reflect(self, fine, root, level):
        """s_{alpha,level}(mu) = s_alpha(mu) + level*alpha, fine coords."""
        m = self.pair_coroot(fine, root)
        return tuple(
            c - m * f + level * self.h * f for c, f in zip(fine, root.fund)
        )

    def weyl(self):
        """The element store, made on first use and kept: only the
        elements a computation reaches are made, until something reads
        the whole group."""
        if self._weyl is None:
            self._weyl = WeylGroup(self)
        return self._weyl

    def __repr__(self):
        return "RootSystem(%s%d)" % (self.family, self.rank)


def _mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def _identity(r):
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


_WORD = re.compile(r"(?:s[0-9]+)+")


def parse_word(text, rank, affine=False):
    """The 0-based generators of a word like 's1s2s1' over s1..s_rank,
    spaces allowed; 'e', 'id', '1' and the empty word are the identity.
    If `affine`, s0 is allowed too, as -1.  Anything else raises
    ValueError."""
    s = text.strip().replace(" ", "")
    if s in ("e", "id", "1", ""):
        return ()
    if not _WORD.fullmatch(s):
        raise ValueError("bad Weyl word %r" % text)
    word = tuple(int(k) - 1 for k in s[1:].split("s"))
    lo = -1 if affine else 0
    if not all(lo <= i < rank for i in word):
        raise ValueError("bad generator in %r" % text)
    return word


class WeylGroup:
    """The Weyl group of a root system, each element made when a
    computation first reaches it.

    Elements are integers in the order they are made, 0 the identity,
    with `mats` (the matrix on fundamental coordinates) and `length`;
    w(rho) names w (Casselman, Machine calculations in Weyl groups,
    1994).  A right step w s_i (`step`) changes one column of w's matrix
    and is kept; `mul(a, b)` walks b's canonical word, the lex-least
    reduced word (`word`), through those steps, and `w0` is made along
    the canonical word of -rho.  Two tables filled on first use give the
    chain routes their moves: signed root images (`images`, keyed by
    `root_keys`) and products w s_beta (`mul_refl`).  The first read of
    `n` or `order` (the elements by length, then canonical word), as by
    the Bruhat order and the cosets, completes the store level by level,
    refusing groups above WEYL_CAP; a fresh store completes to 0..n-1 in
    that order.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        r = rs.rank
        # alpha_i in fundamental coordinates, as its nonzero entries
        # (j, <alpha_i, alpha_j^vee>)
        self._alphas = [[(j, rs.cartan[j][i]) for j in range(r)
                         if rs.cartan[j][i]] for i in range(r)]
        # roots by signed index, alpha_a at a and -alpha_a at npos + a
        self.npos = n = rs.n_positive()
        self._funds = [a.fund for a in rs.positive_roots]
        self._funds += [tuple(-c for c in f) for f in self._funds]
        self._ids = pack_columns(_identity(r))
        self.root_keys = [self.key(f) for f in self._funds]
        self._signed = {k: b for b, k in enumerate(self.root_keys)}
        # s_i(alpha_a) = +-alpha_p, p = _perms[i][a], - only at alpha_i
        self._perms = [[self._signed[k - f[i] * self.root_keys[ai.index]] % n
                        for f, k in zip(self._funds, self.root_keys[:n])]
                       for i, ai in enumerate(rs.simple_roots)]
        self.mats, self.length, self.words, self.right = [], [], [], []
        self._rhos, self._by_rho, self._images, self._products = [], {}, [], []
        self._inv, self._leq_mask = {}, None
        self._make(_identity(r), self.key((1,) * r), 0, ())

    def _make(self, mat, rho, length, word):
        v = len(self.mats)
        self._by_rho[rho] = v
        self.mats.append(mat)
        self._rhos.append(rho)
        self.length.append(length)
        self.words.append(word)
        self.right.append([None] * self.rs.rank)
        self._images.append(None)
        self._products.append(None)
        return v

    def _step(self, w, i):
        """w s_i, made if new: (m s_i)[a][i] = m[a][i] - d_a with
        d = w(alpha_i), so w s_i (rho) = w(rho) - d, and l(w s_i) =
        l(w) + 1 when d is a positive root."""
        alpha = self._alphas[i]
        m = self.mats[w]
        d = [sum([row[j] * c for j, c in alpha]) for row in m]
        kd = self.key(d)
        rho = self._rhos[w] - kd
        v = self._by_rho.get(rho)
        if v is None:
            up = self._signed[kd] < self.npos
            v = self._make(tuple(row[:i] + (row[i] - x,) + row[i + 1:]
                                 if x else row for row, x in zip(m, d)),
                           rho, self.length[w] + (1 if up else -1), None)
        self.right[w][i] = v
        self.right[v][i] = w
        return v

    def _canonical(self, rho):
        """The lex-least reduced word of the w with packed w(rho) = rho:
        its first letter is the least left descent i of w, the first
        negative coordinate, and the rest is the word of s_i w."""
        r = self.rs.rank
        mu = list(_weight(_BIAS[r] + rho, r))
        word = []
        while True:
            i = next((i for i, c in enumerate(mu) if c < 0), None)
            if i is None:
                return tuple(word)
            word.append(i)
            c = mu[i]
            for j, a in self._alphas[i]:
                mu[j] -= c * a

    @cached_property
    def order(self):
        """Every element by length, then canonical word, the rest of the
        store made on first read (ValueError above WEYL_CAP): an element
        met first gets the word of the element it was reached from plus
        the step's letter."""
        rs = self.rs
        if rs.weyl_order > WEYL_CAP:
            raise ValueError(
                "exhaustive mode for %s%d needs %d Weyl elements, above the "
                "cap %d" % (rs.family, rs.rank, rs.weyl_order, WEYL_CAP))
        length, words, right = self.length, self.words, self.right
        met = bytearray(rs.weyl_order)
        met[0] = 1
        level = [0]
        # level by level, each in the order of canonical words: the first
        # w s_i (i ascending) to reach an element spells its canonical word
        while level:
            nxt = []
            for w in level:
                lw = length[w]
                for i, v in enumerate(right[w]):
                    if v is None:
                        v = self._step(w, i)
                    if not met[v] and length[v] > lw:
                        met[v] = 1
                        words[v] = words[w] + (i,)
                        nxt.append(v)
            level = nxt
        if len(self.mats) != rs.weyl_order:
            raise AssertionError("enumerated %d elements, expected %d"
                                 % (len(self.mats), rs.weyl_order))
        return self.ordered(range(len(self.mats)))

    @cached_property
    def n(self):
        """The order of the group; the first read completes the store."""
        return len(self.order)

    @cached_property
    def w0(self):
        """The longest element, w0(rho) = -rho, made along its canonical
        word: l(w0) + 1 elements at most, the store not completed."""
        return self.from_word(self._canonical(-self._rhos[0]))

    def ordered(self, xs):
        """The elements xs in the order of (length, canonical word)."""
        return sorted(xs, key=lambda x: (self.length[x], self.word(x)))

    # -- basic operations ---------------------------------------------
    def word(self, w):
        """The canonical word of w, spelled on first use."""
        word = self.words[w]
        if word is None:
            word = self.words[w] = self._canonical(self._rhos[w])
        return word

    def step(self, w, i):
        """w s_i, made on first use."""
        v = self.right[w][i]
        return self._step(w, i) if v is None else v

    def mul(self, a, b):
        """a b: b's canonical word walked from a through right steps."""
        right = self.right
        for i in self.words[b] or self.word(b):
            v = right[a][i]
            a = self._step(a, i) if v is None else v
        return a

    def from_word(self, word):
        w = 0
        for i in word:
            w = self.step(w, i)
        return w

    def inv(self, w):
        """w^-1, kept once made."""
        v = self._inv.get(w)
        if v is None:
            v = self._inv[w] = self.from_word(reversed(self.word(w)))
        return v

    def act(self, w, fine):
        """w(mu) on fine-lattice coordinates."""
        return _mat_vec(self.mats[w], fine)

    def key(self, fine):
        """The packed key offset of the fine weight mu."""
        return sum(map(mul, fine, self._ids))

    def act_key(self, w, fine):
        """The packed key offset of w(mu); adding charring's bias gives
        the key of e^{w(mu)}."""
        return self.key(self.act(w, fine))

    def images(self, w):
        """Entry a is the signed index of w(alpha_a), >= npos iff l(w
        s_alpha_a) < l(w); on first use permuted from a right neighbour's,
        w(alpha_a) = w s_i (s_i alpha_a), else from the packed action.
        The permutation is the cheap route (filling every image of D5 or
        F4 in `leq_masks` takes a quarter of the time it takes packed)."""
        n, images = self.npos, self._images
        if images[w] is None:
            for i, v in enumerate(self.right[w]):
                if v is not None and images[v] is not None:
                    img = array("H", [images[v][p] for p in self._perms[i]])
                    a = self.rs.simple_roots[i].index
                    img[a] = (img[a] + n) % (2 * n)
                    break
            else:
                cols = pack_columns(self.mats[w])
                img = array("H", [self._signed[sum(map(mul, f, cols))]
                                  for f in self._funds[:n]])
            images[w] = img
        return images[w]

    def mul_refl(self, w, a):
        """w s_beta, beta = alpha_a, kept once made: w(rho) less <rho,
        beta^vee> w(beta) names it, its matrix is w's less w(beta) beta^vee."""
        row = self._products[w]
        if row is None:
            row = self._products[w] = array("i", [-1]) * self.npos
        v = row[a]
        if v < 0:
            beta = self.rs.positive_roots[a]
            b = self.images(w)[a]
            rho = self._rhos[w] - beta.coheight() * self.root_keys[b]
            v = self._by_rho.get(rho)
            if v is None:
                word = self._canonical(rho)
                v = self._make(tuple(
                    tuple(m - f * d for m, d in zip(line, beta.coroot))
                    for line, f in zip(self.mats[w], self._funds[b])),
                    rho, len(word), word)
            row[a] = v
        return v

    def word_str(self, w):
        ww = self.word(w)
        return "e" if not ww else "".join("s%d" % (i + 1) for i in ww)

    def from_word_str(self, s):
        """Parse words like 's1s2s1' or 'e' (1-based generators)."""
        return self.from_word(parse_word(s, self.rs.rank))

    # -- Bruhat order -------------------------------------------------
    def leq_masks(self):
        """leq_masks()[w] is a bitmask of {u : u <= w}, the union over
        the w s_beta one shorter.  By length: with i w's last letter and
        x = w s_i, w s_beta = x s_{s_i beta} s_i fills w's products."""
        if self._leq_mask is None:
            masks = [1] + [0] * (self.n - 1)
            n, length, right, rows = (self.npos, self.length, self.right,
                                      self._products)
            for w in self.order[1:]:
                i = self.words[w][-1]
                x, perm = right[w][i], self._perms[i]
                xrow, ai = rows[x], self.rs.simple_roots[i].index
                row = rows[w] = rows[w] or array("i", [-1]) * n
                m, lw = 1 << w, length[w] - 1
                for a, b in enumerate(self.images(w)):
                    if b >= n:
                        v = row[a]
                        if v < 0:
                            v = row[a] = (x if a == ai else
                                          right[xrow[perm[a]]][i])
                        if length[v] == lw:
                            m |= masks[v]
                masks[w] = m
            self._leq_mask = masks
        return self._leq_mask

    def leq(self, u, w):
        return bool(self.leq_masks()[w] >> u & 1)

    # -- cosets -------------------------------------------------------
    def min_coset_rep(self, w, parabolic):
        """Minimal representative of w W_P, parabolic a set of simple
        indices."""
        changed = True
        while changed:
            changed = False
            for i in parabolic:
                v = self.step(w, i)
                if self.length[v] < self.length[w]:
                    w = v
                    changed = True
        return w

    def min_coset_reps(self, parabolic):
        return self.ordered({self.min_coset_rep(w, parabolic)
                             for w in range(self.n)})

    def parabolic_elements(self, parabolic):
        """All elements of W_P."""
        out = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                for i in parabolic:
                    v = self.step(w, i)
                    if v not in out:
                        out.add(v)
                        nxt.append(v)
            frontier = nxt
        return self.ordered(out)
