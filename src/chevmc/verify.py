"""Named verification suites over the identities the library implements.

Each suite expands to a list of independent cases; a case is a
top-level function plus JSON-simple arguments so suites can fan out
across a process pool.  Cases return None on success and a short
failure description otherwise.

Within one `run_suite` call, the cases of one (family, rank) share one
RootSystem (and so one Weyl group), one KOracle, one CohOracle, one
memo of chain tables and the outcome of the lambda-independent stable
checks (`_shared`).  The memo fills the tables of every w of a
(lambda, sign) at once, in one chevalley_tables call, on the first
case that asks for one of them.
The sharing ends when the call returns; in a pool it lasts as long as
each worker.  A case called on its own builds everything itself.
"""

from __future__ import annotations

import itertools
import os
from multiprocessing import Pool

from .charring import GA, Scalar
from .rootsystem import RootSystem
from .alcove import chain_lex_height
from .chevalley import (
    chevalley_tables, chevalley_terms, duality_check, shift_matrix,
    wall_cross_path,
)
from .oracle import KOracle

# what the cases of the running suite share, by key; None outside
# run_suite and before a pool worker's first case
_shared = None


def _share(key, build):
    """build(), or what it built for `key` earlier in this suite run."""
    if _shared is None:
        return build()
    if key not in _shared:
        _shared[key] = build()
    return _shared[key]


def _root_system(family, rank):
    return _share(("rs", family, rank), lambda: RootSystem(family, rank))


def _k_oracle(rs):
    return _share(("k", rs.family, rs.rank), lambda: KOracle(rs))


def _tables(rs):
    """The memo of chain tables of rs, shared by the suite's cases."""
    return _share(("tables", rs.family, rs.rank), lambda: _table_fn(rs))


def _table_fn(rs):
    """chevalley_table(rs, lam_fund, w, sign) by the chain route,
    memoised: the first call for a (lam_fund, sign) fills the tables of
    every w at once.  Callers only read the tables."""
    W = rs.weyl()
    tables = {}

    def fn(w, lam_fund, sign):
        key = (lam_fund, sign)
        if key not in tables:
            tables[key] = chevalley_tables(rs, lam_fund, range(W.n), sign)
        return tables[key][w]
    return fn


def _lams_pm_fund_rho(rank):
    out = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        out.append(e)
        out.append(tuple(-c for c in e))
    out.append((1,) * rank)
    out.append((-1,) * rank)
    return list(dict.fromkeys(out))  # in rank 1, rho is varpi_1


# -- case functions ----------------------------------------------------

def case_duality(family, rank, kind, lam):
    rs = _root_system(family, rank)
    W = rs.weyl()
    fn = _tables(rs)
    for w in range(W.n):
        for u in range(W.n):
            lhs, rhs = duality_check(rs, tuple(lam), w, u, kind, fn)
            if lhs != rhs:
                return "duality %s fails at u=%s w=%s lambda=%s" % (
                    kind, W.word_str(u), W.word_str(w), lam,
                )
    return None


def case_oracle_equivalence(family, rank, lam):
    rs = _root_system(family, rank)
    W = rs.weyl()
    o = _k_oracle(rs)
    fn = _tables(rs)
    for w in range(W.n):
        a = fn(w, tuple(lam), 1)
        b = o.expand_product(tuple(lam), w)
        for u in set(a) | set(b):
            if a.get(u, GA()) != b.get(u, GA()):
                return "oracle mismatch at u=%s w=%s lambda=%s" % (
                    W.word_str(u), W.word_str(w), lam,
                )
    return None


def case_methods_agree(family, rank, lam):
    rs = _root_system(family, rank)
    W = rs.weyl()
    fn = _tables(rs)
    b, c = (chevalley_tables(rs, tuple(lam), range(W.n), method=m)
            for m in ("bridge", "operator"))
    for w in range(W.n):
        a = fn(w, tuple(lam), 1)
        for u in set(a) | set(b[w]) | set(c[w]):
            ga, gb, gc = (t.get(u, GA()) for t in (a, b[w], c[w]))
            if not (ga == gb == gc):
                return "method mismatch at u=%s w=%s lambda=%s" % (
                    W.word_str(u), W.word_str(w), lam,
                )
    return None


def _stab_checks(rs):
    """The lambda-independent part of case_stable: stab support in
    Bruhat order and T_i on every stab.  None or the failure."""
    W = rs.weyl()
    o = _k_oracle(rs)
    for w in range(W.n):
        for v in o.stab(w):
            if not W.leq(w, v):
                return "stab support fails at w=%s" % W.word_str(w)
    for i in range(rs.rank):
        for w in range(W.n):
            lhs, rhs = o.hecke_T_on_stab(i, w)
            if not o.classes_equal(lhs, rhs):
                return "Hecke action on stab fails at i=%d w=%s" % (
                    i + 1, W.word_str(w),
                )
    return None


def case_stable(family, rank, lam):
    rs = _root_system(family, rank)
    detail = _share(("stab", family, rank), lambda: _stab_checks(rs))
    if detail:
        return detail
    W = rs.weyl()
    S = shift_matrix(rs, tuple(lam))
    M = wall_cross_path(rs, tuple(lam))
    for w in range(W.n):
        for z in range(W.n):
            acc = GA.dot((c, S[x][z]) for x, c in M[w].items() if z in S[x])
            want = GA.const(1 if w == z else 0, rank)
            if acc != want:
                return "wall-crossing composition fails at (%s, %s)" % (
                    W.word_str(w), W.word_str(z),
                )
    return None


def case_hl(family, rank, lam):
    from .specialfn import hall_littlewood, big_h
    rs = _root_system(family, rank)
    closed = hall_littlewood(rs, tuple(lam), "closed")
    for method in ("chain_restricted", "chain_opposite"):
        if closed != hall_littlewood(rs, tuple(lam), method):
            return "HL method %s disagrees at lambda=%s" % (method, lam)
    if closed != big_h(rs, tuple(-c for c in lam)).star():
        return "HL bridge through H_{-lambda} fails at lambda=%s" % (lam,)
    return None


def case_whittaker(family, rank, lam):
    from .specialfn import (
        whittaker, whittaker_chevalley,
        casselman_shalika_sides, whittaker_r_sides,
    )
    rs = _root_system(family, rank)
    W = rs.weyl()
    for w in range(W.n):
        if whittaker(rs, tuple(lam), w) != whittaker_chevalley(
            rs, tuple(lam), w
        ):
            return "Whittaker methods disagree at w=%s lambda=%s" % (
                W.word_str(w), lam,
            )
    a, b = casselman_shalika_sides(rs, tuple(lam))
    if a != b:
        return "Casselman-Shalika fails at lambda=%s" % (lam,)
    a, b = whittaker_r_sides(rs, tuple(lam))
    if a != b:
        return "Whittaker R-function identity fails at lambda=%s" % (lam,)
    return None


def case_csm(family, rank, lam):
    """csm_chevalley against the localization expansion and, as the
    commutation lemma's right-hand side, against T_w x_lambda."""
    from .csm import CohOracle, CohPoly, csm_chevalley, t_w_times_x
    rs = _root_system(family, rank)
    W = rs.weyl()
    o = _share(("coh", family, rank), lambda: CohOracle(rs))
    lam = tuple(lam)
    for w in range(W.n):
        a = csm_chevalley(rs, lam, w)
        b = o.expand_chern_product(lam, w)
        for u in set(a) | set(b):
            if a.get(u, CohPoly()) != b.get(u, CohPoly()):
                return "CSM Chevalley mismatch at u=%s w=%s lambda=%s" % (
                    W.word_str(u), W.word_str(w), lam,
                )
        if t_w_times_x(rs, w, lam) != a:
            return "degenerate commutation fails at w=%s lambda=%s" % (
                W.word_str(w), lam,
            )
    return None


def case_positivity(family, rank, lam):
    """Each +lambda term is e^mu q^a (q-1)^b with b = |J| and 2a = l(w) -
    l(u) - b, a >= 0 an integer, and the terms sum to the Chevalley table."""
    rs = _root_system(family, rank)
    W = rs.weyl()
    if not all(c >= 0 for c in lam):
        return "lambda %s is not dominant" % (lam,)
    lam = tuple(lam)
    chain = chain_lex_height(rs, lam)
    fn = _tables(rs)
    qm1 = Scalar.q(1) - Scalar.one()
    for w in range(W.n):
        acc = {}
        for u, b, mu, coeff in chevalley_terms(chain, w, +1):
            a, odd = divmod(W.length[w] - W.length[u] - b, 2)
            if a < 0 or odd or coeff != Scalar.q(a) * qm1 ** b:
                return "term q^%d (q-1)^%d out of shape at u=%s w=%s" % (
                    a, b, W.word_str(u), W.word_str(w),
                )
            acc[u] = acc.get(u, GA()) + GA.term(mu, coeff)
        table = fn(w, lam, 1)  # the table of the same chain
        if {u: g for u, g in acc.items() if g} != table:
            return "positivity terms miss the table at w=%s lambda=%s" % (
                W.word_str(w), lam,
            )
    return None


_CASE_FUNCS = {
    "duality": case_duality,
    "oracle": case_oracle_equivalence,
    "methods": case_methods_agree,
    "stable": case_stable,
    "hl": case_hl,
    "whittaker": case_whittaker,
    "csm": case_csm,
    "positivity": case_positivity,
}


def _lams_box(rank, max_weight):
    return [
        lam
        for lam in itertools.product(
            range(-max_weight, max_weight + 1), repeat=rank
        )
        if any(lam)
    ]


def _dominant_lams(rank, max_weight):
    return [
        lam
        for lam in itertools.product(range(0, max_weight + 1), repeat=rank)
        if any(lam)
    ]


SUITES = ("dualities", "oracle", "methods", "stable", "hl", "whittaker",
          "csm", "positivity", "all")


def suite_cases(suite, family, rank, max_weight=2):
    """List of (case_id, func_name, args) for a named suite; 'all' runs
    every suite in the order of SUITES.  A suite with no cases, or an
    'all' one of whose suites has none, is refused (ValueError)."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    # every suite needs the whole group: refused here above WEYL_CAP
    _root_system(family, rank).weyl().order
    pm = _lams_pm_fund_rho(rank)
    dominant = _dominant_lams(rank, max_weight)
    kinds = ("serre", "star", "dynkin", "star_dynkin", "palindromic")
    parts = {
        "dualities": [("duality", kind, lam) for kind in kinds for lam in pm],
        "oracle": [("oracle", lam) for lam in _lams_box(rank, max_weight)],
        "methods": [("methods", lam) for lam in pm],
        "stable": [("stable", lam) for lam in dominant[:3]],
        "hl": [("hl", lam) for lam in dominant],
        "whittaker": [("whittaker", lam) for lam in pm
                      if all(c <= 0 for c in lam)],
        "csm": [("csm", lam) for lam in pm if all(c >= 0 for c in lam)],
        "positivity": [("positivity", lam) for lam in dominant],
    }
    names = SUITES[:-1] if suite == "all" else (suite,)
    for name in names:
        if not parts[name]:
            raise ValueError("suite %r has no cases for %s%d at --max-weight %d"
                             % (name, family, rank, max_weight))
    cases = []
    for name in names:
        for func, *rest in parts[name]:
            args = (family, rank, *rest)
            cases.append(("%s(%s)" % (func, ",".join(map(str, args))), func,
                          args))
    return cases


def _run_one(item):
    case_id, func, args = item
    try:
        detail = _CASE_FUNCS[func](*args)
    except Exception as exc:  # surfaced as a failure, not a crash
        detail = "exception: %r" % (exc,)
    return case_id, detail


def _run_in_worker(item):
    """_run_one in a pool worker, which shares state between its cases
    for as long as it lives: a forked worker starts from a copy of the
    parent's memo, any other from an empty one."""
    global _shared
    if _shared is None:
        _shared = {}
    return _run_one(item)


def pool_size(jobs):
    """Worker processes for `jobs`, at most one per CPU; jobs below 1
    are refused (ValueError)."""
    if jobs < 1:
        raise ValueError("--jobs %d: need at least 1" % jobs)
    return min(jobs, os.cpu_count() or 1)


def run_suite(suite, family, rank, max_weight=2, jobs=1):
    """Run a suite; returns a list of (case_id, failure_or_None)."""
    global _shared
    _shared = {}
    try:
        cases = suite_cases(suite, family, rank, max_weight)
        jobs = pool_size(jobs)
        if jobs > 1:
            with Pool(jobs) as pool:
                return pool.map(_run_in_worker, cases)
        return [_run_one(c) for c in cases]
    finally:
        _shared = None
