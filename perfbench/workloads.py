"""The three workloads of the chevmc benchmark.

A run is a sequence of rounds drawn from the seed.  A round is a fixed
template of slots, and the seed picks each slot's inputs from a pool of
inputs of like cost (weights of one lambda-chain length, a stratified
sample of Weyl elements, argvs of one kind).  So every seed gives the
same shape of work.

Every item is a single call into the library: one Chevalley table, one
oracle expansion or one `cli.run`.  A workload provides

    setup(mods)                  the context the items run against;
    plan(ctx, rng)               the item specs of the round;
    prepare(ctx, specs)          set-up work that depends on the round;
    new_round(ctx)               state reset before each round;
    run(ctx, spec)               one item;
    digest(ctx, spec, result)    its canonical digest, or raises;
    check(ctx, records)          cross-checks that need several items
                                 or extra library calls;
    universe(ctx)                (key, group) of every reference group the
                                 pools reach, so each item has a reference;
    reference_group(ctx, group)  the digests of one group, in element order.

The reference digests live in reference.json and are rebuilt with
make_reference.py.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import tempfile


def digest(text, n=8):
    return hashlib.sha256(text.encode()).hexdigest()[:n]


def lam_str(lam):
    return ",".join(str(c) for c in lam)


def make_rs(mods, label):
    return mods["rootsystem"].RootSystem(label[0], int(label[1:]))


def canonical_order(W):
    """Elements by (length, word): an order that does not depend on how
    the Weyl group numbers its elements."""
    return sorted(range(W.n), key=lambda x: (W.length[x], W.word_str(x)))


def stratified(n, k, rng):
    """k positions out of range(n), one drawn from each of k equal
    buckets, so each sample spans all lengths."""
    if k >= n:
        return list(range(n))
    return [rng.randrange(i * n // k, (i + 1) * n // k) for i in range(k)]


def chain_length(rs, lam):
    return sum(abs(rs.pairing(lam, a)) for a in rs.positive_roots)


def weight_pool(rs, length, size):
    """`size` weights in [-1, 2]^rank whose lambda-chain has `length`
    steps, evenly spaced in sorted order."""
    cands = sorted(
        lam for lam in itertools.product(range(-1, 3), repeat=rs.rank)
        if any(lam) and chain_length(rs, lam) == length
    )
    step = max(1, len(cands) // size)
    return cands[::step][:size]


def render_k(mods, rs, table):
    return mods["chevalley"].render_table(rs, table)


def render_csm(rs, table):
    W = rs.weyl()
    return "\n".join(
        "c1[u=%s] = %s" % (W.word_str(u), table[u].render())
        for u in sorted(table, key=lambda x: (W.length[x], W.word_str(x)))
    )


class Context:
    """What the items of one pass share: modules, root systems and their
    canonical element orders."""

    def __init__(self, mods, labels):
        self.mods = mods
        self.rs = {}
        self.order = {}
        for label in labels:
            rs = make_rs(mods, label)
            W = rs.weyl()
            W.leq_masks()
            self.rs[label] = rs
            self.order[label] = canonical_order(W)


# -- tables -------------------------------------------------------------

class Tables:
    """All-w Chevalley tables through `chevalley_table`.

    Every round takes every weight of each slot's pool and a stratified
    sample of Weyl elements for each, drawn from the seed.  For each
    sampled w the items are chain +lambda, chain -lambda and operator
    +lambda, and on a stratified part of them bridge +lambda too."""

    name = "tables"
    ROUND_S = 5.0       # nominal length of a round on a 2-core Xeon
    # (type, lambda-chain length of the pool, pool size, elements
    # sampled per weight, of which also run the bridge route)
    SLOTS = (
        ("A3", 10, 4, 12, 6),
        ("B3", 10, 4, 12, 2),
        ("C3", 9, 4, 12, 2),
        ("A4", 10, 2, 12, 0),
        ("B4", 10, 2, 12, 0),
        ("D4", 10, 2, 12, 0),
    )
    F4 = ("F4", (1, 0, 0, 0), 24)   # elements sampled at the weight w1
    ROUTES = {
        "chain+": (1, "chain"),
        "chain-": (-1, "chain"),
        "operator+": (1, "operator"),
        "bridge+": (1, "bridge"),
    }
    LABELS = ("A3", "B3", "C3", "A4", "B4", "D4", "F4")

    def __init__(self):
        self._pools = None

    def pools(self, ctx):
        if self._pools is None:
            self._pools = {
                label: weight_pool(ctx.rs[label], length, size)
                for label, length, size, _, _ in self.SLOTS
            }
            self._pools[self.F4[0]] = [self.F4[1]]
        return self._pools

    def slots(self):
        """(type, sample per weight, bridged per weight) of every slot."""
        return [(s[0], s[3], s[4]) for s in self.SLOTS] + [
            (self.F4[0], self.F4[2], 0)]

    def setup(self, mods):
        return Context(mods, self.LABELS)

    def prepare(self, ctx, specs):
        pass

    def new_round(self, ctx):
        pass

    def plan(self, ctx, rng):
        pools = self.pools(ctx)
        specs = []
        for label, sample, bridge in self.slots():
            n = len(ctx.order[label])
            for lam in pools[label]:
                ws = stratified(n, sample, rng)
                bridged = {ws[i] for i in stratified(len(ws), bridge, rng)}
                for pos in ws:
                    for route in ("chain+", "chain-", "operator+", "bridge+"):
                        if route != "bridge+" or pos in bridged:
                            specs.append((label, lam, pos, route))
        return specs

    def run(self, ctx, spec):
        label, lam, pos, route = spec
        sign, method = self.ROUTES[route]
        rs = ctx.rs[label]
        return ctx.mods["chevalley"].chevalley_table(
            rs, lam, ctx.order[label][pos], sign=sign, method=method)

    def digest(self, ctx, spec, result):
        return digest(render_k(ctx.mods, ctx.rs[spec[0]], result))

    @staticmethod
    def group(spec):
        label, lam, pos, route = spec
        return "%s|%s|%s" % (label, lam_str(lam), route), pos

    def check(self, ctx, records):
        """Routes computed for the same (type, lambda, w) must agree."""
        cells = {}
        for rec in records:
            label, lam, pos, route = rec["spec"]
            if route != "chain-" and rec["digest"] is not None:
                cells.setdefault((label, lam, pos), []).append(rec)
        for recs in cells.values():
            if len({r["digest"] for r in recs}) > 1:
                for r in recs:
                    r["errors"].append("routes disagree")

    def universe(self, ctx):
        pools = self.pools(ctx)
        for label, _, bridge in self.slots():
            for lam in pools[label]:
                routes = ("chain+", "chain-", "operator+")
                for route in routes + (("bridge+",) if bridge else ()):
                    group = (label, lam, route)
                    yield self.group((label, lam, 0, route))[0], group

    def reference_group(self, ctx, group):
        label, lam, route = group
        return "".join(
            self.digest(ctx, (label, lam, pos, route),
                        self.run(ctx, (label, lam, pos, route)))
            for pos in range(len(ctx.order[label]))
        )


# -- oracle -------------------------------------------------------------

class Oracle:
    """Localization expansions, each group on a fresh oracle so that it
    pays for its MC classes or its dual basis.

    A round expands for every w: K-theory groups on B3 at w1 and at -w1
    and on A3 at a pair of weights exchanged by the diagram automorphism,
    each pair in an order drawn from the seed, and one CSM group on A3 at
    w1 or w3 (also exchanged by it)."""

    name = "oracle"
    ROUND_S = 24.0
    K_B3 = (("B3", (1, 0, 0)), ("B3", (-1, 0, 0)))
    K_A3 = (("A3", (1, 1, 0)), ("A3", (0, 1, 1)))
    CSM = (("A3", (1, 0, 0)), ("A3", (0, 0, 1)))
    LABELS = ("A3", "B3")

    def groups(self, rng):
        groups = [("K",) + g for g in rng.sample(self.K_B3, 2)]
        groups += [("K",) + g for g in rng.sample(self.K_A3, 2)]
        groups.append(("CSM",) + rng.choice(self.CSM))
        return [g + (i,) for i, g in enumerate(groups)]

    def new_round(self, ctx):
        pass

    def plan(self, ctx, rng):
        specs = []
        for kind, label, lam, gid in self.groups(rng):
            n = len(ctx.order[label])
            for pos in range(n):
                specs.append((kind, label, lam, pos, gid, pos == n - 1))
        return specs

    def setup(self, mods):
        ctx = Context(mods, self.LABELS)
        ctx.oracles = {}
        return ctx

    def prepare(self, ctx, specs):
        """Construct the oracles of the first round; later rounds
        construct theirs in their first item."""
        for kind, label, _, _, gid, _ in specs:
            if gid not in ctx.oracles:
                ctx.oracles[gid] = self._new(ctx, kind, label)

    @staticmethod
    def _new(ctx, kind, label):
        if kind == "K":
            return ctx.mods["oracle"].KOracle(ctx.rs[label])
        return ctx.mods["csm"].CohOracle(ctx.rs[label])

    def run(self, ctx, spec):
        kind, label, lam, pos, gid, last = spec
        o = ctx.oracles.get(gid)
        if o is None:
            o = ctx.oracles[gid] = self._new(ctx, kind, label)
        if last:
            del ctx.oracles[gid]
        w = ctx.order[label][pos]
        if kind == "K":
            return o.expand_product(lam, w)
        return o.expand_chern_product(lam, w)

    def digest(self, ctx, spec, result):
        kind, label = spec[0], spec[1]
        rs = ctx.rs[label]
        if kind == "K":
            return digest(render_k(ctx.mods, rs, result))
        return digest(render_csm(rs, result))

    @staticmethod
    def group(spec):
        kind, label, lam, pos = spec[:4]
        return "%s|%s|%s" % (kind, label, lam_str(lam)), pos

    def closed_form(self, ctx, kind, label, lam, pos):
        """The formula the oracle must reproduce: the chain table for K,
        the closed CSM Chevalley formula for CSM."""
        rs = ctx.rs[label]
        w = ctx.order[label][pos]
        if kind == "K":
            table = ctx.mods["chevalley"].chevalley_table(rs, lam, w, sign=1)
            return digest(render_k(ctx.mods, rs, table))
        return digest(render_csm(rs, ctx.mods["csm"].csm_chevalley(rs, lam, w)))

    def check(self, ctx, records):
        for rec in records:
            if rec["digest"] is None:
                continue
            kind, label, lam, pos = rec["spec"][:4]
            if self.closed_form(ctx, kind, label, lam, pos) != rec["digest"]:
                rec["errors"].append("oracle differs from the formula")

    def universe(self, ctx):
        groups = [("K",) + g for g in self.K_B3 + self.K_A3]
        groups += [("CSM",) + g for g in self.CSM]
        for group in groups:
            yield self.group(group + (0,))[0], group

    def reference_group(self, ctx, group):
        kind, label, lam = group
        n = len(ctx.order[label])
        gid = ("reference",)
        out = []
        for pos in range(n):
            spec = (kind, label, lam, pos, gid, pos == n - 1)
            out.append(self.digest(ctx, spec, self.run(ctx, spec)))
        return "".join(out)


# -- cli ----------------------------------------------------------------

def _lam(lam):
    return "--lambda=" + lam_str(lam)


def _argvs(template, lams, words=("",)):
    return tuple(
        template.format(lam=_lam(lam), w=w) for lam in lams for w in words
    )


def _sigma(word, rank):
    """The word under the diagram automorphism of A_rank, s_i <-> s_(r+1-i)."""
    return "".join("s%d" % (rank + 1 - int(i)) for i in word.split("s")[1:])


def _pairs(template, rank, pairs):
    """Argvs for (lambda, word) and their images under the A_rank diagram
    automorphism, which cost the same."""
    out = []
    for lam, w in pairs:
        out.append(template.format(lam=_lam(lam), w=w))
        out.append(template.format(lam=_lam(tuple(reversed(lam))),
                                   w=_sigma(w, rank)))
    return tuple(out)


D5_WORDS = ("s1s2s3", "s2s3s4s5", "s5s3s2s1", "s4s3s2s1")


class Cli:
    """A seeded sequence of in-process `cli.run` invocations.

    Each slot's pool holds argvs of like cost, mostly pairs exchanged by a
    diagram automorphism, so that the seed changes the inputs but not the
    shape of the round.  `rep_*` slots repeat an argv drawn earlier in the
    round from the named slots, so that they read the cache the first
    occurrence wrote; the cache is fresh for every round."""

    name = "cli"
    ROUND_S = 8.0
    POOLS = {
        # D5 at the two spin weights; the Weyl group build dominates
        "d5": _argvs("chevalley --type D5 {lam} --w {w} --format json",
                     [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)], D5_WORDS),
        "a5": _pairs("chevalley --type A5 {lam} --w {w} --format json", 5,
                     [((1, 0, 0, 0, 0), "s1s2s3s4s5"),
                      ((0, 1, 0, 0, 0), "s2s3s2"),
                      ((1, 0, 0, 0, 1), "s1s3s5"),
                      ((0, 1, 0, 1, 0), "s2s4s3")]),
        "f4": _argvs("chevalley --type F4 {lam} --w {w} --format json",
                     [(1, 0, 0, 0), (0, 0, 0, 1)],
                     ("s1s2s3s4", "s4s3s2s1", "s2s3s2s1", "s3s2s3s4")),
        "r3big": tuple(
            "chevalley --type %s %s --w all --sign %s --format json"
            % (t, _lam(lam), sign)
            for t in ("B3", "C3")
            for lam in [(1, 1, 1), (-1, -1, -1)] for sign in "+-"
        ),
        "oracle": _pairs("oracle --type A3 {lam} --w {w} --format json", 3,
                         [((1, 0, 0), "s1s2s3"), ((1, 0, 0), "s2s1")]),
        "csm": _pairs("csm --type A3 {lam} --w {w} --format json", 3,
                      [((1, 0, 0), "s1s2s3"), ((1, 1, 0), "s2s1s3s2")]),
        "hecke": _pairs("hecke-coeffs --type A2 {lam} --w {w} --format json",
                        2, [((2, 1), "s2s1"), ((1, 0), "s1s2")]),
        "chain": _argvs("chain --type B3 {lam}",
                        [(2, 1, 1), (1, 0, 1), (0, 1, 1), (-1, 1, 0)]),
        "hl": _pairs("hl --type A3 {lam}", 3, [((1, 1, 0), "")]),
        "hl_chain": _pairs(
            "hl --type A3 {lam} --method chain_restricted --format json", 3,
            [((1, 1, 0), "")]),
        "whittaker": _pairs("whittaker --type A2 {lam} --w all --format json",
                            2, [((-2, -1), "")]),
        "stab": _pairs("stab --type A2 {lam} --format json", 2,
                       [((2, 1), "")]),
        "verify": ("verify --suite all --type A2 --format json",),
        "searchpos": ("search-positivity --type A3 --format json",),
    }
    REPEATS = {
        "rep_d5": ("d5",),
        "rep_r3big": ("r3big",),
    }
    # The median and the tail must fall inside groups of like cost, not
    # on a gap between two, where the seed's draws would move them by a
    # third.  Per round, 16 invocations take under 9 ms (chain, hecke,
    # csm), 9 take 9-11 ms (whittaker, stab) and hold the median, and 5
    # take over a second (d5 and its two repeats, verify, r3big); at 3
    # rounds the tail is p90, 12.6 invocations from the top, inside
    # those 15.
    TEMPLATE = (
        "d5", "oracle", "a5", "csm", "r3big", "hecke", "f4", "chain",
        "hl", "rep_d5", "whittaker", "oracle", "stab", "chain",
        "rep_r3big", "csm", "hecke", "rep_d5", "chain", "hl_chain",
        "verify", "searchpos", "hecke", "oracle", "csm", "stab",
        "whittaker", "chain", "hl_chain", "hecke", "csm", "whittaker",
        "searchpos", "stab", "chain", "whittaker", "hecke", "hl_chain",
        "csm", "stab", "chain", "stab",
    )

    def __init__(self):
        self._decks = {}
        self._seen = {}

    def _draw(self, rng, slot):
        """Draw without replacement from the slot's pool, reshuffling
        when it runs out."""
        deck = self._decks.get(slot)
        if not deck:
            deck = list(self.POOLS[slot])
            rng.shuffle(deck)
            self._decks[slot] = deck
        argv = deck.pop()
        self._seen.setdefault(slot, []).append(argv)
        return argv

    def plan(self, ctx, rng):
        self._decks, self._seen = {}, {}
        specs = []
        for slot in self.TEMPLATE:
            if slot in self.REPEATS:
                earlier = [a for s in self.REPEATS[slot]
                           for a in self._seen.get(s, ())]
                specs.append((slot, rng.choice(earlier)))
            else:
                specs.append((slot, self._draw(rng, slot)))
        return specs

    def setup(self, mods):
        ctx = Context(mods, ())
        # set-up is the imports and one parser, as before a first call;
        # each invocation still builds its own parser inside the item
        ctx.parser = mods["cli"].build_parser()
        ctx.cache_dir = None
        ctx.validator = None
        ctx.validated = {}
        return ctx

    def prepare(self, ctx, specs):
        pass

    def new_round(self, ctx):
        """A fresh cache for each round, so that its repeats read what its
        first occurrences wrote."""
        ctx.cache_dir = tempfile.mkdtemp(dir=ctx.scratch)

    def run(self, ctx, spec):
        argv = spec[1].split()
        if argv[0] == "chevalley" and ctx.cache_dir:
            argv += ["--cache-dir", ctx.cache_dir]
        out = io.StringIO()
        rc = ctx.mods["cli"].run(argv, out=out)
        return rc, out.getvalue()

    def digest(self, ctx, spec, result):
        rc, text = result
        if rc != 0:
            raise RuntimeError("exit code %d" % rc)
        if "--format json" not in spec[1]:
            return digest(text, 16)
        key = hashlib.sha256(text.encode()).digest()
        if key not in ctx.validated:
            doc = json.loads(text)
            errors = sorted(e.message for e in schema_validator(ctx).iter_errors(doc))
            if errors:
                raise RuntimeError("schema: %s" % errors[0])
            doc.pop("version", None)
            ctx.validated[key] = digest(
                json.dumps(doc, sort_keys=True, separators=(",", ":")), 16)
        return ctx.validated[key]

    @staticmethod
    def group(spec):
        return spec[1], None

    def check(self, ctx, records):
        """A repeat must print what its first occurrence printed."""
        first = {}
        for rec in records:
            if rec["digest"] is None:
                continue
            argv = rec["spec"][1]
            if first.setdefault(argv, rec["digest"]) != rec["digest"]:
                rec["errors"].append("cached result differs")

    def universe(self, ctx):
        for slot in sorted(self.POOLS):
            for argv in self.POOLS[slot]:
                yield argv, (slot, argv)

    def reference_group(self, ctx, group):
        return self.digest(ctx, group, self.run(ctx, group))


def schema_validator(ctx):
    """The Draft 2020-12 validator of the package's schema.json, built on
    first use so that set-up does not pay for it."""
    if ctx.validator is None:
        import jsonschema
        path = os.path.join(os.path.dirname(ctx.mods["cli"].__file__),
                            "schema.json")
        with open(path) as fh:
            ctx.validator = jsonschema.Draft202012Validator(json.load(fh))
    return ctx.validator


WORKLOADS = {w.name: w for w in (Tables, Oracle, Cli)}
