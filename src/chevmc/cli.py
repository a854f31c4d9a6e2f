"""Command-line interface.

Subcommands: chevalley, hecke-coeffs, chain, oracle, stab, whittaker,
hl, csm, verify, search-positivity.  Exit codes: 0 success, 1 failed
verification, 2 parse/usage error or an input the library rejects.  All
weights are given in fundamental-weight coordinates; type-A output can
additionally be displayed in the epsilon coordinates of the standard
torus.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .charring import GA
from .rootsystem import RootSystem
from .alcove import chain_lex_height, chain_from_word
from .chevalley import chevalley_table, render_table
from .cache import cache_key, cache_get, cache_put, default_cache_dir
from .verify import run_suite

SCHEMA_FILE = os.path.join(os.path.dirname(__file__), "schema.json")


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
    text = text.strip().replace("*", "")
    if text.lower() == "all":
        return None
    try:
        return W.from_word_str(text)
    except (ValueError, KeyError):
        raise CliError("bad Weyl word %r" % text)


def _parse_word(rank, text):
    """Chain letters from an affine word like s0s2s1 over generators
    0..rank, where 0 is the affine reflection."""
    try:
        gens = [int(p) for p in text.replace("s", " ").split()]
    except ValueError:
        raise CliError("bad affine word %r" % text)
    if any(not 0 <= g <= rank for g in gens):
        raise CliError("affine word %r has letters outside 0..%d"
                       % (text, rank))
    return [g - 1 if g else -1 for g in gens]


def _parse_sign(text):
    if text in ("+", "+1", "plus"):
        return 1
    if text in ("-", "-1", "minus"):
        return -1
    raise CliError("bad sign %r; use + or -" % text)


# -- emitters ----------------------------------------------------------

def _table_json(rs, table):
    W = rs.weyl()
    return [
        {
            "u": W.word_str(u),
            "value": table[u].to_json(),
        }
        for u in sorted(table, key=lambda x: (W.length[x], W.words[x]))
    ]


def _cached_table(W, doc):
    """The table stored by `_table_json`, or None for a miss or an entry
    of another shape."""
    if not isinstance(doc, list):
        return None
    try:
        return {W.from_word_str(d["u"]): GA.from_json(d["value"])
                for d in doc}
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _doc(command, rs, **fields):
    doc = {
        "command": command,
        "version": __version__,
        "type": "%s%d" % (rs.family, rs.rank),
        "rank": rs.rank,
        "lattice_scale": rs.h,
    }
    doc.update(fields)
    return doc


def _emit(doc, text, fmt, out):
    if fmt == "json":
        out.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    else:
        out.write(text + "\n")


def _latex_scalar(x, var):
    s = x.render(var=var)
    return s.replace("*", " ").replace("y^", "y^")


def _latex_weight(rs, fine):
    parts = []
    for i, c in enumerate(fine):
        if not c:
            continue
        if c % rs.h == 0:
            cs = c // rs.h
        else:
            cs = "%d/%d" % (c, rs.h)
        if cs == 1:
            parts.append("\\varpi_%d" % (i + 1))
        elif cs == -1:
            parts.append("-\\varpi_%d" % (i + 1))
        else:
            parts.append("%s\\varpi_%d" % (cs, i + 1))
    return "+".join(parts).replace("+-", "-") or "0"


def _latex_ga(rs, g, var):
    if not g:
        return "0"
    parts = []
    for k in sorted(g.c, reverse=True):
        x = g.c[k]
        mono = "e^{%s}" % _latex_weight(rs, k) if any(k) else "1"
        cs = _latex_scalar(x, var)
        if cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        elif len(x.c) == 1:
            parts.append("%s %s" % (cs, mono))
        else:
            parts.append("(%s) %s" % (cs, mono))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _latex_table(rs, table, var="y"):
    W = rs.weyl()
    lines = ["\\begin{aligned}"]
    for u in sorted(table, key=lambda x: (W.length[x], W.words[x])):
        word = W.word_str(u).replace("s", "s_") if u else "e"
        lines.append(
            "C_{%s} &= %s \\\\" % (word, _latex_ga(rs, table[u], var))
        )
    lines.append("\\end{aligned}")
    return "\n".join(lines)


def _epsilon_render(rs, table):
    """Type-A display in epsilon coordinates of GL_{r+1}."""
    if rs.family != "A":
        raise CliError("epsilon coordinates exist only in type A")
    W = rs.weyl()
    n = rs.rank + 1
    lines = []
    for u in sorted(table, key=lambda x: (W.length[x], W.words[x])):
        parts = []
        g = table[u]
        for k in sorted(g.c, reverse=True):
            fund = [c / rs.h for c in k]
            partial = [sum(fund[j:]) for j in range(rs.rank)] + [0.0]
            eps = ",".join(
                str(int(c)) if float(c).is_integer() else str(c)
                for c in partial
            )
            parts.append("%s*x^(%s)" % (g.c[k].render(), eps))
        lines.append("C[u=%s] = %s" % (W.word_str(u), " + ".join(parts) or "0"))
    return "\n".join(lines)


# -- subcommand bodies -------------------------------------------------

def _cmd_chevalley(args, out):
    rs = _parse_type(args.type)
    W = rs.weyl()
    lam = _parse_lambda(args.lam, rs.rank)
    w = _parse_w(W, args.w)
    sign = _parse_sign(args.sign)
    ws = range(W.n) if w is None else [w]
    chain = None
    if args.word:
        chain = chain_from_word(rs, lam, _parse_word(rs.rank, args.word),
                                require_reduced=False)
    cache_dir = args.cache_dir or default_cache_dir()
    blocks = []
    docs = []
    for wv in ws:
        key = cache_key(
            "chevalley", rs.family, rs.rank, lam, W.word_str(wv),
            args.method, extra={"sign": sign, "word": args.word},
        )
        table = _cached_table(W, cache_get(cache_dir, key))
        if table is None:
            table = chevalley_table(
                rs, lam, wv, sign=sign, method=args.method, chain=chain
            )
            cache_put(cache_dir, key, _table_json(rs, table))
        docs.append({"w": W.word_str(wv), "entries": _table_json(rs, table)})
        if args.format == "latex":
            blocks.append("%% w = %s\n%s" % (W.word_str(wv),
                                             _latex_table(rs, table)))
        elif args.epsilon:
            blocks.append("w = %s\n%s" % (W.word_str(wv),
                                          _epsilon_render(rs, table)))
        else:
            blocks.append("w = %s\n%s" % (W.word_str(wv),
                                          render_table(rs, table)))
    doc = _doc("chevalley", rs, lam=list(lam), sign=sign,
               method=args.method, tables=docs)
    _emit(doc, "\n\n".join(blocks), args.format, out)
    return 0


def _cmd_hecke(args, out):
    from .hecke import HeckeAlgebra
    rs = _parse_type(args.type)
    W = rs.weyl()
    lam = _parse_lambda(args.lam, rs.rank)
    w = _parse_w(W, args.w)
    if w is None:
        raise CliError("hecke-coeffs needs a single Weyl word")
    halg = HeckeAlgebra(rs)
    table = halg.transition_direct(w, lam)
    entries = [
        {
            "u": W.word_str(u),
            "mu": list(rs.weight_user(mu)),
            "coeff": c.to_json(),
        }
        for (u, mu), c in sorted(table.items())
    ]
    doc = _doc("hecke-coeffs", rs, lam=list(lam), w=W.word_str(w),
               entries=entries)
    _emit(doc, halg.render_transition(table), args.format, out)
    return 0


def _cmd_chain(args, out):
    rs = _parse_type(args.type)
    lam = _parse_lambda(args.lam, rs.rank)
    if args.word:
        chain = chain_from_word(rs, lam, _parse_word(rs.rank, args.word),
                                require_reduced=False)
    else:
        chain = chain_lex_height(rs, lam)
    doc = _doc("chain", rs, lam=list(lam), reduced=chain.reduced,
               steps=chain.to_json())
    _emit(doc, chain.render(), args.format, out)
    return 0


def _cmd_oracle(args, out):
    from .oracle import KOracle
    rs = _parse_type(args.type)
    W = rs.weyl()
    lam = _parse_lambda(args.lam, rs.rank)
    w = _parse_w(W, args.w)
    if w is None:
        raise CliError("oracle needs a single Weyl word")
    o = KOracle(rs)
    table = o.expand_product(lam, w, method=args.method)
    doc = _doc("oracle", rs, lam=list(lam), w=W.word_str(w),
               method=args.method, entries=_table_json(rs, table))
    _emit(doc, render_table(rs, table), args.format, out)
    return 0


def _cmd_stab(args, out):
    from .oracle import KOracle, StableBasis
    rs = _parse_type(args.type)
    W = rs.weyl()
    lam = _parse_lambda(args.lam, rs.rank)
    w = _parse_w(W, args.w)
    sb = StableBasis(KOracle(rs))
    S = sb.shift_matrix(lam)
    rows = range(W.n) if w is None else [w]
    blocks = []
    docs = []
    for wv in rows:
        table = S[wv]
        docs.append({"w": W.word_str(wv), "entries": _table_json(rs, table)})
        blocks.append("stab-shift row w = %s\n%s"
                      % (W.word_str(wv),
                         render_table(rs, table)))
    doc = _doc("stab", rs, lam=list(lam), tables=docs)
    _emit(doc, "\n\n".join(blocks), args.format, out)
    return 0


def _cmd_whittaker(args, out):
    from .specialfn import whittaker
    rs = _parse_type(args.type)
    W = rs.weyl()
    lam = _parse_lambda(args.lam, rs.rank)
    w = _parse_w(W, args.w)
    ws = range(W.n) if w is None else [w]
    names = ["w%d" % (i + 1) for i in range(rs.rank)]
    lines = []
    docs = []
    for wv in ws:
        g = whittaker(rs, lam, wv)
        docs.append({"w": W.word_str(wv), "value": g.to_json()})
        lines.append("W[%s] = %s"
                     % (W.word_str(wv),
                        g.render(names=names, scale=rs.h)))
    doc = _doc("whittaker", rs, lam=list(lam), values=docs)
    _emit(doc, "\n".join(lines), args.format, out)
    return 0


def _cmd_hl(args, out):
    from .specialfn import (
        hall_littlewood, render_x, schur_expansion, render_schur,
    )
    rs = _parse_type(args.type)
    lam = _parse_lambda(args.lam, rs.rank)
    if not all(c >= 0 for c in lam):
        raise CliError("Hall-Littlewood needs a dominant weight")
    g = hall_littlewood(rs, lam, method=args.method)
    # |lambda| as a partition has sum(i * c_i) boxes
    degree = sum((i + 1) * c for i, c in enumerate(lam))
    if rs.family == "A" and args.basis == "schur":
        text = render_schur(rs, schur_expansion(rs, g), degree)
    elif rs.family == "A":
        text = render_x(rs, g, degree)
    else:
        names = ["w%d" % (i + 1) for i in range(rs.rank)]
        text = g.render(names=names, scale=rs.h, var="t")
    doc = _doc("hl", rs, lam=list(lam), method=args.method,
               value=g.to_json())
    _emit(doc, text, args.format, out)
    return 0


def _cmd_csm(args, out):
    from .csm import csm_chevalley
    rs = _parse_type(args.type)
    W = rs.weyl()
    lam = _parse_lambda(args.lam, rs.rank)
    w = _parse_w(W, args.w)
    if w is None:
        raise CliError("csm needs a single Weyl word")
    table = csm_chevalley(rs, lam, w)
    entries = [
        {
            "u": W.word_str(u),
            "value": [
                {"exponents": list(k), "coeff": str(table[u].c[k])}
                for k in sorted(table[u].c)
            ],
        }
        for u in sorted(table, key=lambda x: (W.length[x], W.words[x]))
    ]
    lines = [
        "c1[u=%s] = %s" % (W.word_str(u), table[u].render())
        for u in sorted(table, key=lambda x: (W.length[x], W.words[x]))
    ]
    doc = _doc("csm", rs, lam=list(lam), w=W.word_str(w), entries=entries)
    _emit(doc, "\n".join(lines), args.format, out)
    return 0


def _cmd_verify(args, out):
    rs = _parse_type(args.type)
    results = run_suite(
        args.suite, rs.family, rs.rank,
        max_weight=args.max_weight, jobs=args.jobs,
    )
    failed = 0
    lines = []
    for case_id, detail in results:
        if detail is None:
            lines.append("PASS %s" % case_id)
        else:
            failed += 1
            lines.append("FAIL %s: %s" % (case_id, detail))
    lines.append("%d/%d cases passed" % (len(results) - failed, len(results)))
    doc = _doc("verify", rs, suite=args.suite,
               results=[
                   {"case": cid, "ok": d is None, "detail": d}
                   for cid, d in results
               ])
    _emit(doc, "\n".join(lines), args.format, out)
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
    rs = _parse_type(args.type)
    W = rs.weyl()
    findings = []
    checked = 0
    for lam in _minuscule_weights(rs):
        for w in range(W.n):
            table = chevalley_table(rs, lam, w, sign=1)
            for u, g in table.items():
                for k, x in g.c.items():
                    checked += 1
                    coeffs = x.y_coeffs()
                    if any(c < 0 for c in coeffs.values()) and any(
                        c > 0 for c in coeffs.values()
                    ):
                        findings.append({
                            "lambda": list(lam),
                            "w": W.word_str(w),
                            "u": W.word_str(u),
                            "weight": list(k),
                            "coeff": x.to_json(),
                        })
    lines = ["scanned %d terms over %d minuscule weight(s)"
             % (checked, len(_minuscule_weights(rs)))]
    if findings:
        lines.append("mixed-sign coefficients found: %d" % len(findings))
        for f in findings[:20]:
            lines.append("  lambda=%s w=%s u=%s" % (f["lambda"], f["w"], f["u"]))
    else:
        lines.append("no sign violations in this range (not a proof)")
    doc = _doc("search-positivity", rs, findings=findings, scanned=checked)
    _emit(doc, "\n".join(lines), args.format, out)
    return 0


# -- parser ------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="chevmc",
        description="Exact Chevalley coefficients for motivic Chern "
                    "classes of Schubert cells.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_lambda=True, need_w=False, formats=("text", "json")):
        sp.add_argument("--type", required=True, help="root system, e.g. A2")
        if need_lambda:
            sp.add_argument("--lambda", dest="lam", required=True,
                            help="weight in fundamental coordinates, e.g. 2,1")
        if need_w:
            sp.add_argument("--w", default="all",
                            help="Weyl word like s2*s1, or 'all'")
        sp.add_argument("--format", choices=formats, default="text")

    sp = sub.add_parser("chevalley", help="Chevalley coefficient table")
    # only the Chevalley table has a LaTeX renderer
    common(sp, need_w=True, formats=("text", "json", "latex"))
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
    common(sp, need_w=True)
    sp.set_defaults(func=_cmd_hecke)

    sp = sub.add_parser("chain", help="print a lambda-chain")
    common(sp)
    sp.add_argument("--word", default=None)
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("oracle", help="localization-oracle expansion")
    common(sp, need_w=True)
    sp.add_argument("--method", choices=("solve", "pairing"), default="solve")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("stab", help="stable-basis shift matrix")
    common(sp, need_w=True)
    sp.set_defaults(func=_cmd_stab)

    sp = sub.add_parser("whittaker", help="Iwahori-Whittaker functions")
    common(sp, need_w=True)
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
    common(sp, need_w=True)
    sp.set_defaults(func=_cmd_csm)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True,
                    choices=("dualities", "oracle", "methods", "stable",
                             "hl", "whittaker", "csm", "positivity", "all"))
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args, out)
    except (CliError, ValueError) as exc:
        # a library ValueError is a rejected input, not a crash
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
