"""Command-line interface.

Subcommands: chevalley, hecke-coeffs, chain, oracle, stab, whittaker,
hl, csm, verify, search-positivity.  Exit codes: 0 success, 1 failed
verification, 2 parse/usage error or an input the library rejects.  All
weights are given in fundamental-weight coordinates; type-A output can
additionally be displayed in the epsilon coordinates of the standard
torus.

`run` parses the shared options once, in the order --type, --lambda,
--w (on the element store; a one-word command refuses 'all'), before a
command reads the whole Weyl group, so of two faults the first in that
order is reported.  A command hands `_emit` its document's fields and
its text as a callable, and only the printed format is built.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import cache, partial
from itertools import groupby

from . import __version__
from .charring import FIELD, GA, MASK, _HALF, _weight, exp_mono
from .rootsystem import RootSystem, parse_word
from .alcove import chain_lex_height, chain_from_word
from .chevalley import (
    chevalley_tables, render_table, shift_matrix, transition_direct,
)
from .cache import cache_key, cache_get, cache_put, default_cache_dir
from .verify import SUITES, run_suite


class CliError(Exception):
    pass


def _parse_type(label):
    label = label.strip()
    if len(label) < 2 or not label[0].isalpha():
        raise CliError("bad root-system label %r; expected like A2" % label)
    family = label[0].upper()
    try:
        rank = int(label[1:])
    except ValueError:
        raise CliError("bad rank in %r" % label)
    try:
        return RootSystem(family, rank)
    except (ValueError, KeyError) as exc:
        raise CliError(str(exc))


def _parse_lambda(text, rank):
    try:
        lam = tuple(int(c) for c in text.replace(" ", "").split(","))
    except ValueError:
        raise CliError("bad weight %r; expected comma-separated integers" % text)
    if len(lam) != rank:
        raise CliError("weight %r has %d coordinates, expected %d"
                       % (text, len(lam), rank))
    return lam


def _parse_w(W, text):
    """The element of a word, or None for 'all'."""
    if text.strip().lower() == "all":
        return None
    try:
        return W.from_word_str(text.replace("*", ""))
    except ValueError:
        raise CliError("bad Weyl word %r" % text)


def _parse_word(rank, text):
    """Chain letters from an affine word like s0s2s1 over generators
    0..rank, in the grammar of Weyl words, where s0 is the affine
    reflection (letter -1)."""
    try:
        return parse_word(text, rank, affine=True)
    except ValueError:
        raise CliError("bad affine word %r" % text)


def _parse_sign(text):
    if text in ("+", "+1", "plus"):
        return 1
    if text in ("-", "-1", "minus"):
        return -1
    raise CliError("bad sign %r; use + or -" % text)


# -- emitters ----------------------------------------------------------

def _table_json(W, table):
    return [
        {
            "u": W.word_str(u),
            "value": table[u],
        }
        for u in W.ordered(table)
    ]


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(v, pad="\n", memo=None):
    """json.dumps(v, sort_keys=True, indent=1), byte for byte, with one
    join per container and the C string encoder (on Python < 3.13,
    `indent` turns off json's C encoder).  `pad` is the newline and
    indent of v's own line.  A `GA` is written as the list
    [{"coeff": {"<v exponent>": int}, "weight": [...]}], weights
    ascending, straight from its packed keys (`_ga_json`), with the
    fragments of one weight or one coefficient at one pad kept in
    `memo` (a fresh dict if None), which the whole document shares.  A
    value not special-cased here goes through json.dumps and has its
    lines indented to `pad`, which is exact since a JSON string never
    holds a raw newline."""
    t = type(v)
    if t is str:
        return _encode_str(v)
    if t is int:
        return int.__repr__(v)
    if memo is None:
        memo = {}
    # int members, most of a table's leaves, are written inline
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = pad + " "
        return "[%s%s%s]" % (inner, ("," + inner).join(
            [int.__repr__(x) if type(x) is int else _dumps(x, inner, memo)
             for x in v]), pad)
    if t is dict and all(type(k) is str for k in v):
        if not v:
            return "{}"
        inner = pad + " "
        return "{%s%s%s}" % (inner, ("," + inner).join(
            [_encode_str(k) + ": "
             + (int.__repr__(x) if type(x) is int
                else _dumps(x, inner, memo))
             for k, x in sorted(v.items())]), pad)
    if t is GA:
        return _ga_json(v, pad, memo)
    return json.dumps(v, sort_keys=True, indent=1).replace("\n", pad)


def _ga_json(g, pad, memo):
    """The `_dumps` text of a GA at `pad`: its sorted keys grouped by
    weight fields (k >> FIELD), one {"coeff", "weight"} object a group.
    A group is two fragments, its comma, brace and "coeff" dict up to
    the "weight" key, then its weight list and closing brace; each is
    formatted once per pad and kept in `memo`, since a table repeats
    few distinct coefficients and weights over many groups."""
    c = g.c
    if not c:
        return "[]"
    i1 = pad + " "
    i2 = i1 + " "
    i3 = i2 + " "
    # at one pad, ints (k >> FIELD) key the weight fragments and tuples
    # of (v field, int) pairs the coefficient fragments
    frags = memo.setdefault(pad, {})
    keys = sorted(c)
    rank = g.rank()
    parts = []
    for wk, group in groupby(keys, FIELD.__rrshift__):
        vc = tuple([(k & MASK, c[k]) for k in group])
        text = frags.get(vc)
        if text is None:
            # the v exponents in the string order of sort_keys
            items = sorted([(str(vk - _HALF), x) for vk, x in vc])
            text = frags[vc] = ',%s{%s"coeff": {%s%s%s},%s"weight": ' % (
                i1, i2, i3, ("," + i3).join(['"%s": %d' % kx for kx in items]),
                i2, i2)
        parts.append(text)
        text = frags.get(wk)
        if text is None:
            text = frags[wk] = "%s%s}" % (
                _dumps(list(_weight(wk << FIELD, rank)), i2), i1)
        parts.append(text)
    parts[0] = parts[0][1:]  # no comma before the first group
    return "[%s%s]" % ("".join(parts), pad)


def _emit(args, out, text, **fields):
    """Print, in the format of `args`, either the JSON document of the
    command (its header, the parsed lambda and single w, and `fields`)
    or the string `text()`: only the printed one is built."""
    if args.format != "json":
        out.write(text() + "\n")
        return
    rs = args.rs
    doc = {
        "command": args.command,
        "version": __version__,
        "type": "%s%d" % (rs.family, rs.rank),
        "rank": rs.rank,
        "lattice_scale": rs.h,
    }
    if "lam" in args:
        doc["lam"] = list(args.lam)
    if "one_word" in args:
        doc["w"] = rs.weyl().word_str(args.w)
    doc.update(fields)
    out.write(_dumps(doc) + "\n")


def _latex_weight(h, fine):
    """The LaTeX monomial e^{a\\varpi_1+...} of a fine weight, each
    coordinate divided by h; "1" for the weight 0."""
    parts = []
    for i, c in enumerate(fine):
        if not c:
            continue
        cs = c // h if c % h == 0 else "%d/%d" % (c, h)
        if cs == 1:
            parts.append("\\varpi_%d" % (i + 1))
        elif cs == -1:
            parts.append("-\\varpi_%d" % (i + 1))
        else:
            parts.append("%s\\varpi_%d" % (cs, i + 1))
    return "e^{%s}" % "+".join(parts).replace("+-", "-") if parts else "1"


def _latex_table(W, table):
    """The table as LaTeX: the `*` rendering with each `*` a space, as
    the LaTeX monomials contain none."""
    mono = partial(_latex_weight, W.rs.h)
    lines = ["\\begin{aligned}"]
    for u in W.ordered(table):
        word = W.word_str(u).replace("s", "s_")
        text = table[u].render(mono).replace("*", " ")
        lines.append("C_{%s} &= %s \\\\" % (word, text))
    lines.append("\\end{aligned}")
    return "\n".join(lines)


def _epsilon_weight(rs, fine):
    """The type-A monomial x^(...) of a fine weight in the epsilon
    coordinates of GL_{r+1}: the partial sums of its fundamental
    coordinates from the right, the last one 0."""
    fund = rs.weight_user(fine)
    return "x^(%s)" % ",".join(str(sum(fund[j:]))
                               for j in range(rs.rank + 1))


# -- subcommand bodies -------------------------------------------------

def _cmd_chevalley(args, out):
    rs, lam = args.rs, args.lam
    sign = _parse_sign(args.sign)
    # --epsilon is refused outside type A, except by LaTeX, which ignores it
    if args.epsilon and args.format != "latex" and rs.family != "A":
        raise CliError("epsilon coordinates exist only in type A")
    # 'all' reads the whole group, and only on a miss
    W = rs.weyl()
    cache_dir = args.cache_dir or default_cache_dir()
    key = cache_key(
        "chevalley", rs.family, rs.rank, lam,
        "all" if args.w is None else W.word_str(args.w), args.method,
        extra={"sign": sign, "word": args.word, "format": args.format,
               # only the text format prints epsilon coordinates
               "epsilon": args.epsilon and args.format == "text"},
    )
    # a hit is the output of the miss that wrote it, and computes nothing;
    # only a valid --word ever wrote one
    text = cache_get(cache_dir, key)
    if text is None:
        ws = W.order if args.w is None else [args.w]
        chain = None
        if args.word is not None:
            chain = chain_from_word(rs, lam, _parse_word(rs.rank, args.word))
        tables = chevalley_tables(rs, lam, ws, sign=sign, method=args.method,
                                  chain=chain)
        rows = [(W.word_str(wv), tables.pop(wv)) for wv in ws]
        mono = partial(_epsilon_weight, rs) if args.epsilon else None

        def block(word, table):
            if args.format == "latex":
                return "%% w = %s\n%s" % (word, _latex_table(W, table))
            return "w = %s\n%s" % (word, render_table(rs, table, mono))

        buf = io.StringIO()
        _emit(args, buf, lambda: "\n\n".join([block(*r) for r in rows]),
              sign=sign, method=args.method,
              tables=[{"w": word, "entries": _table_json(W, t)}
                      for word, t in rows])
        text = buf.getvalue()
        try:
            cache_put(cache_dir, key, text)
        except OSError as exc:
            raise CliError("cannot write the cache: %s" % exc)
    out.write(text)
    return 0


def _cmd_hecke(args, out):
    rs = args.rs
    W = rs.weyl()
    table = transition_direct(rs, args.w, args.lam)
    rows = [(W.word_str(u), rs.weight_user(mu), c)
            for u in W.ordered(table) for mu, c in table[u].terms()]
    _emit(args, out,
          lambda: "\n".join("c[u=%s, mu=%s] = %s" % (u, mu, c.render(var="q"))
                            for u, mu, c in rows),
          entries=[{"u": u, "mu": list(mu), "coeff": c.to_json()}
                   for u, mu, c in rows])
    return 0


def _cmd_chain(args, out):
    rs, lam = args.rs, args.lam
    if args.word is not None:
        chain = chain_from_word(rs, lam, _parse_word(rs.rank, args.word))
    else:
        chain = chain_lex_height(rs, lam)
    _emit(args, out, chain.render, reduced=chain.reduced,
          steps=chain.to_json())
    return 0


def _cmd_oracle(args, out):
    from .oracle import KOracle
    rs = args.rs
    W = rs.weyl()
    table = KOracle(rs).expand_product(args.lam, args.w)
    _emit(args, out, lambda: render_table(rs, table), method="solve",
          entries=_table_json(W, table))
    return 0


def _cmd_stab(args, out):
    rs = args.rs
    W = rs.weyl()
    S = shift_matrix(rs, args.lam)
    rows = [(W.word_str(wv), S[wv])
            for wv in (W.order if args.w is None else [args.w])]
    _emit(args, out,
          lambda: "\n\n".join("stab-shift row w = %s\n%s"
                               % (word, render_table(rs, table))
                               for word, table in rows),
          tables=[{"w": word, "entries": _table_json(W, table)}
                  for word, table in rows])
    return 0


def _cmd_whittaker(args, out):
    from .specialfn import whittaker
    rs = args.rs
    W = rs.weyl()
    values = [(W.word_str(wv), whittaker(rs, args.lam, wv))
              for wv in (W.order if args.w is None else [args.w])]
    _emit(args, out,
          lambda: "\n".join("W[%s] = %s" % (word, g.render(exp_mono(rs.h)))
                            for word, g in values),
          values=[{"w": word, "value": g} for word, g in values])
    return 0


def _cmd_hl(args, out):
    from .specialfn import (
        hall_littlewood, render_x, schur_expansion, render_schur,
    )
    rs, lam = args.rs, args.lam
    if not all(c >= 0 for c in lam):
        raise CliError("Hall-Littlewood needs a dominant weight")
    g = hall_littlewood(rs, lam, method=args.method)
    # |lambda| as a partition has sum(i * c_i) boxes
    degree = sum((i + 1) * c for i, c in enumerate(lam))

    def text():
        if rs.family == "A" and args.basis == "schur":
            return render_schur(rs, schur_expansion(rs, g), degree)
        if rs.family == "A":
            return render_x(rs, g, degree)
        return g.render(exp_mono(rs.h), var="t")

    _emit(args, out, text, method=args.method, value=g)
    return 0


def _cmd_csm(args, out):
    from .csm import csm_chevalley
    rs = args.rs
    W = rs.weyl()
    table = csm_chevalley(rs, args.lam, args.w)
    us = W.ordered(table)
    entries = [{"u": W.word_str(u),
                "value": [{"exponents": list(k), "coeff": str(x)}
                          for k, x in table[u].terms()]}
               for u in us]
    _emit(args, out,
          lambda: "\n".join("c1[u=%s] = %s" % (W.word_str(u),
                                               table[u].render())
                            for u in us),
          entries=entries)
    return 0


def _cmd_verify(args, out):
    rs = args.rs
    results = run_suite(
        args.suite, rs.family, rs.rank,
        max_weight=args.max_weight, jobs=args.jobs,
    )
    failed = sum(d is not None for _, d in results)

    def text():
        lines = ["PASS %s" % cid if d is None else "FAIL %s: %s" % (cid, d)
                 for cid, d in results]
        lines.append("%d/%d cases passed"
                     % (len(results) - failed, len(results)))
        return "\n".join(lines)

    _emit(args, out, text, suite=args.suite,
          results=[{"case": cid, "ok": d is None, "detail": d}
                   for cid, d in results])
    return 1 if failed else 0


def _minuscule_weights(rs):
    out = []
    for i in range(rs.rank):
        fund = tuple(1 if j == i else 0 for j in range(rs.rank))
        if all(rs.pairing(fund, a) <= 1 for a in rs.positive_roots):
            out.append(fund)
    return out


def _cmd_search_positivity(args, out):
    """Scan minuscule weights for sign violations in the +lambda expansion
    coefficients.  For minuscule lambda each coefficient is a single
    exponential times a polynomial in y; empirically these polynomials are
    sign-coherent in small rank, but counterexamples exist in large enough
    rank, so this command reports findings and never asserts positivity."""
    rs = args.rs
    W = rs.weyl()
    findings = []
    checked = 0
    for lam in _minuscule_weights(rs):
        tables = chevalley_tables(rs, lam, W.order)
        for w in W.order:
            table = tables.pop(w)
            for u in W.ordered(table):
                for k, x in table[u].terms():
                    checked += 1
                    coeffs = x.y_coeffs().values()
                    if min(coeffs) < 0 < max(coeffs):
                        findings.append({
                            "lambda": list(lam),
                            "w": W.word_str(w),
                            "u": W.word_str(u),
                            "weight": list(k),
                            "coeff": x.to_json(),
                        })

    def text():
        lines = ["scanned %d terms over %d minuscule weight(s)"
                 % (checked, len(_minuscule_weights(rs)))]
        if findings:
            lines.append("mixed-sign coefficients found: %d" % len(findings))
            for f in findings[:20]:
                lines.append("  lambda=%s w=%s u=%s"
                             % (f["lambda"], f["w"], f["u"]))
        else:
            lines.append("no sign violations in this range (not a proof)")
        return "\n".join(lines)

    _emit(args, out, text, findings=findings, scanned=checked)
    return 0


# -- parser ------------------------------------------------------------

@cache
def build_parser():
    """The parser, built once per process: it depends on no input, and
    parse_args keeps no state in it between calls."""
    p = argparse.ArgumentParser(
        prog="chevmc",
        description="Exact Chevalley coefficients for motivic Chern "
                    "classes of Schubert cells.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_lambda=True, w=None, formats=("text", "json")):
        """`w` is None (no --w), "all" (a word or 'all', the default) or
        "one" (a required single word; `run` refuses 'all')."""
        sp.add_argument("--type", required=True, help="root system, e.g. A2")
        if need_lambda:
            sp.add_argument("--lambda", dest="lam", required=True,
                            help="weight in fundamental coordinates, e.g. 2,1")
        if w == "all":
            sp.add_argument("--w", default="all",
                            help="Weyl word like s2*s1, or 'all'")
        elif w == "one":
            sp.add_argument("--w", required=True, help="Weyl word like s2*s1")
            sp.set_defaults(one_word=True)
        sp.add_argument("--format", choices=formats, default="text")

    sp = sub.add_parser("chevalley", help="Chevalley coefficient table")
    # only the Chevalley table has a LaTeX renderer
    common(sp, w="all", formats=("text", "json", "latex"))
    sp.add_argument("--sign", default="+", help="+ for L_lambda, - for L_-lambda")
    sp.add_argument("--method", choices=("chain", "operator", "bridge"),
                    default="chain")
    sp.add_argument("--word", default=None,
                    help="affine word for the chain (letters 0..r)")
    sp.add_argument("--epsilon", action="store_true",
                    help="type-A display in epsilon coordinates")
    sp.add_argument("--cache-dir", default=None)
    sp.set_defaults(func=_cmd_chevalley)

    sp = sub.add_parser("hecke-coeffs", help="affine Hecke transition table")
    common(sp, w="one")
    sp.set_defaults(func=_cmd_hecke)

    sp = sub.add_parser("chain", help="print a lambda-chain")
    common(sp)
    sp.add_argument("--word", default=None)
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("oracle", help="localization-oracle expansion")
    common(sp, w="one")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("stab", help="stable-basis shift matrix")
    common(sp, w="all")
    sp.set_defaults(func=_cmd_stab)

    sp = sub.add_parser("whittaker", help="Iwahori-Whittaker functions")
    common(sp, w="all")
    sp.set_defaults(func=_cmd_whittaker)

    sp = sub.add_parser("hl", help="Hall-Littlewood polynomial")
    common(sp)
    sp.add_argument("--method",
                    choices=("closed", "chain_restricted", "chain_opposite"),
                    default="closed")
    sp.add_argument("--basis", choices=("schur", "monomial"),
                    default="schur",
                    help="type-A text rendering basis")
    sp.set_defaults(func=_cmd_hl)

    sp = sub.add_parser("csm", help="cohomological Chevalley table")
    common(sp, w="one")
    sp.set_defaults(func=_cmd_csm)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=SUITES)
    sp.add_argument("--type", required=True)
    sp.add_argument("--max-weight", type=int, default=2)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("search-positivity",
                        help="scan minuscule weights for sign violations")
    sp.add_argument("--type", required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_search_positivity)

    return p


def run(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        rs = args.rs = _parse_type(args.type)
        if "lam" in args:
            args.lam = _parse_lambda(args.lam, rs.rank)
        if "w" in args:
            args.w = _parse_w(rs.weyl(), args.w)
            if args.w is None and "one_word" in args:
                raise CliError("%s needs a single Weyl word" % args.command)
        return args.func(args, out)
    except (CliError, ValueError) as exc:
        # a library ValueError is a rejected input, not a crash
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
