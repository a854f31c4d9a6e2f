"""Root systems, Weyl groups and Bruhat order, all exact.

Weights are handled in fundamental-weight coordinates.  To keep every
exponential that the operator calculus produces inside a single integer
lattice, weights are stored scaled by h = <rho, theta^vee> + 1 (the
"fine" lattice): the integral weight sum(c_i varpi_i) has fine
coordinates (h*c_1, ..., h*c_r).

Weyl-group elements are indexed integers inside a WeylGroup; the
canonical word of an element is its lexicographically least reduced
word, and element 0 is the identity.
"""

from __future__ import annotations


_WEYL_ORDER = {
    "A": lambda n: _fact(n + 1),
    "B": lambda n: (1 << n) * _fact(n),
    "C": lambda n: (1 << n) * _fact(n),
    "D": lambda n: (1 << (n - 1)) * _fact(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


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

    def __init__(self, family, rank, element_cap=100000):
        family = family.upper()
        self.family = family
        self.rank = rank
        self.cartan = cartan_matrix(family, rank)
        order = _WEYL_ORDER[family](rank)
        if family in ("E", "F") and order > element_cap:
            raise ValueError(
                "exhaustive mode for %s%d needs %d Weyl elements, above the "
                "cap %d" % (family, rank, order, element_cap)
            )
        if family in ("A", "B", "C", "D") and rank > 5:
            raise ValueError("rank %d above the supported bound 5" % rank)
        self.weyl_order = order
        self._build_roots()
        # Coxeter number: <rho, theta^vee> + 1 with theta^vee the highest coroot
        self.h = 1 + max(t.coheight() for t in self.positive_roots)
        self._weyl = None

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
                fund = tuple(
                    sum(A[j][k] * simple[k] for k in range(r)) for j in range(r)
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
        self.highest_root = self.positive_roots[-1]
        assert all(
            self.highest_root.simple[i] >= t.simple[i]
            for t in self.positive_roots
            for i in range(r)
        ), "highest root is not dominant in the root order"

    def root_by_simple(self, simple):
        return self._by_simple[tuple(simple)]

    def positive_root(self, idx):
        return self.positive_roots[idx]

    def n_positive(self):
        return len(self.positive_roots)

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

    def reflect(self, fine, root):
        """s_alpha(mu) on the fine lattice."""
        m = self.pair_coroot(fine, root)
        return tuple(c - m * f for c, f in zip(fine, root.fund))

    def affine_reflect(self, fine, root, level):
        """s_{alpha,level}(mu) = s_alpha(mu) + level*alpha, fine coords."""
        m = self.pair_coroot(fine, root)
        return tuple(
            c - m * f + level * self.h * f for c, f in zip(fine, root.fund)
        )

    def weyl(self):
        if self._weyl is None:
            self._weyl = WeylGroup(self)
        return self._weyl

    def __repr__(self):
        return "RootSystem(%s%d)" % (self.family, self.rank)


def _mat_vec(a, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


class WeylGroup:
    """Exhaustive Weyl group with canonical (lex-least reduced) words.

    Elements are integers 0..N-1 in order of (length, canonical word);
    element 0 is the identity.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        r = rs.rank
        # (m s_i) differs from m only in column i:
        # (m s_i)[a][i] = m[a][i] - sum_j m[a][j] * cartan[j][i].
        cols = [
            [(j, rs.cartan[j][i]) for j in range(r) if rs.cartan[j][i]]
            for i in range(r)
        ]
        ident = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
        mats = [ident]
        words = [()]
        index = {ident: 0}
        right = [[None] * r]
        level = [0]
        while level:
            nxt = []
            for w in level:
                m = mats[w]
                rw = right[w]
                for i in range(r):
                    if rw[i] is not None:
                        continue  # w s_i was met earlier as v with v s_i = w
                    rows = []
                    for row in m:
                        d = sum(row[j] * c for j, c in cols[i])
                        rows.append(
                            row[:i] + (row[i] - d,) + row[i + 1:] if d else row
                        )
                    child = tuple(rows)
                    v = index.get(child)
                    if v is None:
                        v = len(mats)
                        index[child] = v
                        mats.append(child)
                        words.append(words[w] + (i,))
                        right.append([None] * r)
                        nxt.append(v)
                    rw[i] = v
                    right[v][i] = w
            level = nxt
        if len(mats) != rs.weyl_order:
            raise AssertionError(
                "enumerated %d elements, expected %d" % (len(mats), rs.weyl_order)
            )
        self.mats = mats
        self.words = words
        self.index = index
        self.n = len(mats)
        self.length = [len(w) for w in words]
        self.w0 = max(range(self.n), key=lambda i: self.length[i])
        # right multiplication by simple generators
        self.right = [tuple(row) for row in right]
        self.inv = [self.from_word(reversed(word)) for word in words]
        self._leq_mask = None
        self._refl_cache = {}

    # -- basic operations ---------------------------------------------
    def word(self, w):
        return self.words[w]

    def act(self, w, fine):
        """w(mu) on fine-lattice coordinates."""
        return _mat_vec(self.mats[w], fine)

    def mul(self, a, b):
        out = a
        for i in self.words[b]:
            out = self.right[out][i]
        return out

    def from_word(self, word):
        out = 0
        for i in word:
            out = self.right[out][i]
        return out

    def is_reduced(self, word):
        return self.length[self.from_word(word)] == len(word)

    def reflection(self, root):
        """Index of s_alpha for a (positive) root."""
        key = root.simple
        if key not in self._refl_cache:
            fine = tuple(self.rs.h * c for c in root.fund)
            # build the matrix of s_alpha on fundamental coordinates
            r = self.rs.rank
            mat = tuple(
                tuple(
                    (1 if j == k else 0) - root.fund[j] * root.coroot[k]
                    for k in range(r)
                )
                for j in range(r)
            )
            self._refl_cache[key] = self.index[mat]
        return self._refl_cache[key]

    def descends_right(self, w, i):
        return self.length[self.right[w][i]] < self.length[w]

    # -- Bruhat order -------------------------------------------------
    def leq_masks(self):
        """leq_masks()[w] is a bitmask of {u : u <= w}."""
        if self._leq_mask is None:
            masks = [0] * self.n
            order = sorted(range(self.n), key=lambda i: self.length[i])
            refls = [self.reflection(t) for t in self.rs.positive_roots]
            for w in order:
                m = 1 << w
                lw = self.length[w]
                for s in refls:
                    v = self.mul(w, s)
                    if self.length[v] == lw - 1:
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
                if self.descends_right(w, i):
                    w = self.right[w][i]
                    changed = True
        return w

    def min_coset_reps(self, parabolic):
        return sorted(
            {self.min_coset_rep(w, parabolic) for w in range(self.n)},
            key=lambda w: (self.length[w], self.words[w]),
        )

    def parabolic_elements(self, parabolic):
        """All elements of W_P."""
        out = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                for i in parabolic:
                    v = self.right[w][i]
                    if v not in out:
                        out.add(v)
                        nxt.append(v)
            frontier = nxt
        return sorted(out, key=lambda w: (self.length[w], self.words[w]))

    def stabilizer_parabolic(self, fine):
        """Simple indices i with <mu, alpha_i^vee> = 0."""
        return [i for i in range(self.rs.rank) if fine[i] == 0]

    def word_str(self, w):
        ww = self.words[w]
        return "e" if not ww else "".join("s%d" % (i + 1) for i in ww)

    def from_word_str(self, s):
        """Parse words like 's1s2s1' or 'e' (1-based generators)."""
        s = s.strip()
        if s in ("e", "id", "1", ""):
            return 0
        parts = s.replace(" ", "").split("s")
        word = []
        for p in parts:
            if not p:
                continue
            word.append(int(p) - 1)
        if any(i < 0 or i >= self.rs.rank for i in word):
            raise ValueError("bad generator in %r" % s)
        return self.from_word(word)
