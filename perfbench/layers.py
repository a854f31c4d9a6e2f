"""The per-layer view of a traced run: which library names are wrapped,
under which layer, and how the tracer's totals become the per-layer
metrics of BENCHMARK.json.

Layers are the modules of `src/chevmc`.  A name missing from the current
code is skipped, and its metrics read 0.
"""

from __future__ import annotations

import os

LAYERS = (
    "params", "charring", "rootsystem", "alcove", "chevalley", "hecke",
    "oracle", "csm", "specialfn", "verify", "cache", "cli",
)

SPECIALFN_PUBLIC = (
    "whittaker", "whittaker_chevalley", "big_r", "big_h", "hall_littlewood",
    "hl_terms", "schur_expansion", "render_x", "render_schur",
    "casselman_shalika_sides", "whittaker_r_sides",
)


# -- hooks that count work from a call's result ------------------------

def _weyl_elements(tr, result, args):
    tr.counts["rootsystem.elements"] += getattr(args[0], "n", 0)


def _terms(tr, result, args):
    tr.counts["chevalley.terms"] += len(result)


def _monomials(tr, result, args):
    tr.counts["chevalley.monomials"] += sum(
        len(getattr(g, "c", ())) for g in result.values()
    )


def _exact_div(tr, result, args):
    if result is None:
        tr.counts["charring.exact_div_failed"] += 1


def _expansion(tr, result, args):
    tr.counts["oracle.expansions"] += 1


def _cache_get(tr, result, args):
    tr.counts["cache.hits" if result is not None else "cache.misses"] += 1


def _cache_put(tr, result, args):
    directory, key = args[0], args[1]
    if directory:
        path = os.path.join(directory, key + ".json")
        if os.path.exists(path):
            tr.counts["cache.bytes_written"] += os.path.getsize(path)


def install(tr, patches, mods):
    """Wrap the public names of every layer; `mods` maps module short
    names to imported modules."""
    def fn(module, attr, make):
        if module in mods:
            patches.function(mods[module], attr, make)

    def meth(module, cls, attr, make):
        klass = getattr(mods.get(module), cls, None)
        if klass is not None:
            patches.method(klass, attr, make)

    meth("params", "Scalar", "__mul__", tr.counter("params.scalar_mul"))
    meth("charring", "GA", "__mul__", tr.timer("charring.ga_mul", "charring"))
    meth("charring", "GA", "exact_div",
         tr.timer("charring.exact_div", "charring", after=_exact_div))
    for attr in ("__add__", "__mul__", "inverse"):
        meth("charring", "Frac", attr, tr.counter("charring.frac_ops"))

    meth("rootsystem", "RootSystem", "__init__",
         tr.span("rootsystem.RootSystem", "rootsystem"))
    meth("rootsystem", "WeylGroup", "__init__",
         tr.span("rootsystem.WeylGroup", "rootsystem", after=_weyl_elements))
    meth("rootsystem", "WeylGroup", "leq_masks",
         tr.span("rootsystem.leq_masks", "rootsystem"))
    meth("rootsystem", "WeylGroup", "mul", tr.counter("rootsystem.mul"))

    fn("alcove", "chain_lex_height", tr.span("alcove.chain_lex_height", "alcove"))
    fn("alcove", "chain_from_word", tr.span("alcove.chain_from_word", "alcove"))
    fn("alcove", "chain_reflections", tr.timer("alcove.chain_reflections", "alcove"))

    fn("chevalley", "chevalley_table", tr.span("chevalley.table", "chevalley"))
    fn("chevalley", "chevalley_chain",
       tr.span("chevalley.chain", "chevalley", after=_monomials))
    fn("chevalley", "chevalley_terms",
       tr.span("chevalley.terms", "chevalley", after=_terms))
    fn("chevalley", "chevalley_operator", tr.span("chevalley.operator", "chevalley"))
    fn("chevalley", "chevalley_bridge", tr.span("chevalley.bridge", "chevalley"))

    meth("hecke", "HeckeAlgebra", "__init__", tr.span("hecke.init", "hecke"))
    meth("hecke", "HeckeAlgebra", "transition_direct",
         tr.span("hecke.transition_direct", "hecke"))
    meth("hecke", "HeckeAlgebra", "transition_chain",
         tr.span("hecke.transition_chain", "hecke"))
    meth("hecke", "HeckeAlgebra", "mul", tr.counter("hecke.mul"))

    meth("oracle", "KOracle", "__init__", tr.span("oracle.init", "oracle"))
    meth("oracle", "KOracle", "mc", tr.span("oracle.mc", "oracle", recursive=True))
    meth("oracle", "KOracle", "expand_product",
         tr.span("oracle.expand", "oracle", after=_expansion))

    meth("csm", "CohOracle", "__init__", tr.span("csm.init", "csm"))
    meth("csm", "CohOracle", "csm", tr.span("csm.classes", "csm", recursive=True))
    meth("csm", "CohOracle", "_solve_sm", tr.span("csm.dual_basis", "csm"))
    meth("csm", "CohOracle", "expand_chern_product", tr.span("csm.expand", "csm"))
    fn("csm", "csm_chevalley", tr.span("csm.closed", "csm"))

    for name in SPECIALFN_PUBLIC:
        fn("specialfn", name, tr.span("specialfn." + name, "specialfn"))

    verify = mods.get("verify")
    if verify is not None:
        fn("verify", "run_suite", tr.span("verify.run_suite", "verify"))
        for attr in sorted(vars(verify)):
            if attr.startswith("case_"):
                fn("verify", attr, tr.span("verify." + attr, "verify"))

    fn("cache", "cache_key", tr.span("cache.key", "cache"))
    fn("cache", "cache_get", tr.span("cache.get", "cache", after=_cache_get))
    fn("cache", "cache_put", tr.span("cache.put", "cache", after=_cache_put))

    fn("cli", "run", tr.span("cli.run", "cli"))


# -- metrics -----------------------------------------------------------

def _ratio(a, b):
    return a / b if b else 0.0


def metrics(tr):
    """{name: (value, unit)} of every per-layer metric from the tracer."""
    c = tr.count
    inc = tr.incl
    hits, misses = c("cache.hits"), c("cache.misses")
    out = {
        "rootsystem.build_s": (inc["rootsystem.RootSystem"]
                               + inc["rootsystem.WeylGroup"], "s"),
        "rootsystem.elements": (c("rootsystem.elements"), "count"),
        "rootsystem.leq_masks_s": (inc["rootsystem.leq_masks"], "s"),
        "rootsystem.mul_calls": (c("rootsystem.mul"), "count"),
        "alcove.chain_s": (inc["alcove.chain_lex_height"]
                           + inc["alcove.chain_from_word"], "s"),
        "alcove.chain_reflections_calls": (tr.calls["alcove.chain_reflections"],
                                           "count"),
        "alcove.chain_reflections_s": (inc["alcove.chain_reflections"], "s"),
        "chevalley.chain_s": (inc["chevalley.chain"], "s"),
        "chevalley.operator_s": (inc["chevalley.operator"], "s"),
        "chevalley.terms": (c("chevalley.terms"), "count"),
        "chevalley.monomials": (c("chevalley.monomials"), "count"),
        "chevalley.term_yield": (_ratio(c("chevalley.monomials"),
                                        c("chevalley.terms")), "ratio"),
        "hecke.transition_s": (inc["hecke.transition_direct"]
                               + inc["hecke.transition_chain"], "s"),
        "hecke.mul_calls": (c("hecke.mul"), "count"),
        "params.scalar_mul_calls": (c("params.scalar_mul"), "count"),
        "charring.ga_mul_calls": (tr.calls["charring.ga_mul"], "count"),
        "charring.ga_mul_s": (inc["charring.ga_mul"], "s"),
        "charring.frac_ops": (c("charring.frac_ops"), "count"),
        "charring.exact_div_calls": (tr.calls["charring.exact_div"], "count"),
        "charring.exact_div_failed": (c("charring.exact_div_failed"), "count"),
        "oracle.init_s": (inc["oracle.init"], "s"),
        "oracle.mc_s": (inc["oracle.mc"], "s"),
        "oracle.expand_s": (inc["oracle.expand"], "s"),
        "oracle.expansions": (c("oracle.expansions"), "count"),
        "csm.classes_s": (inc["csm.classes"], "s"),
        "csm.dual_basis_s": (inc["csm.dual_basis"], "s"),
        "csm.expand_s": (inc["csm.expand"], "s"),
        "csm.closed_s": (inc["csm.closed"], "s"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "cache.key_s": (inc["cache.key"], "s"),
        "cache.get_s": (inc["cache.get"], "s"),
        "cache.put_s": (inc["cache.put"], "s"),
        "cache.bytes_written": (c("cache.bytes_written"), "bytes"),
        "cli.invocations": (tr.calls["cli.run"], "count"),
        "cli.self_s": (tr.layer_self["cli"], "s"),
        "specialfn.s": (tr.layer_incl["specialfn"], "s"),
        "verify.case_s": (sum(v for k, v in inc.items()
                              if k.startswith("verify.case_")), "s"),
    }
    for layer in LAYERS + ("bench",):
        if layer not in ("params", "cli"):
            out[layer + ".self_s"] = (tr.layer_self[layer], "s")
    return out


def source_lines(src_dir):
    """{<module>.lines: (count, "lines")} for each module of the package,
    plus their total.  The package's __init__ is reported as init.lines."""
    out = {}
    total = 0
    names = set(LAYERS) | {"init"}
    found = {}
    for entry in sorted(os.listdir(src_dir)):
        if entry.endswith(".py"):
            with open(os.path.join(src_dir, entry), "rb") as fh:
                n = sum(1 for _ in fh)
            stem = entry[:-3]
            found["init" if stem == "__init__" else stem] = n
            total += n
    for name in sorted(names):
        out[name + ".lines"] = (found.get(name, 0), "lines")
    out["total.lines"] = (total, "lines")
    return out
