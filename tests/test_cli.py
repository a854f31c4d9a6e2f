"""Command-line interface: exit codes, output formats, schema, caching."""

import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import weakref
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from chevmc import __version__
from chevmc.cli import _dumps, build_parser, run
from chevmc.cache import cache_key, cache_get, cache_put
from chevmc.charring import GA, LIMIT, Scalar
from chevmc.oracle import KOracle
from chevmc.rootsystem import RootSystem
from chevmc.verify import run_suite, suite_cases
import chevmc
from conftest import ref_to_json, v_minus_lambda


def _run(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def _schema():
    import importlib.resources as res

    with res.files("chevmc").joinpath("schema.json").open() as fh:
        return json.load(fh)


def test_chevalley_text():
    code, text = _run(
        ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "s2s1"]
    )
    assert code == 0
    assert "C[u=s2s1]" in text and "e^{" in text


def test_chevalley_negative_lambda():
    code, text = _run(
        ["chevalley", "--type", "A2", "--lambda=-2,-1", "--w", "s2s1"]
    )
    assert code == 0
    assert "C[u=s2s1]" in text


def test_chevalley_latex():
    code, text = _run(
        ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "s2s1",
         "--format", "latex"]
    )
    assert code == 0
    assert r"\begin{aligned}" in text and r"\varpi_1" in text
    # a constant term is its coefficient alone, with no trailing "1"
    code, text = _run(
        ["chevalley", "--type", "A2", "--lambda", "1,1", "--w", "s1s2",
         "--format", "latex"]
    )
    assert code == 0
    assert r"C_{s_2} &= (-y -1) e^{2\varpi_1-\varpi_2} + (-y -1) \\" in text


def test_chevalley_epsilon_type_a_only():
    code, _ = _run(
        ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1",
         "--epsilon"]
    )
    assert code == 0
    code, _ = _run(
        ["chevalley", "--type", "B2", "--lambda", "1,0", "--w", "s1",
         "--epsilon"]
    )
    assert code == 2


def test_chevalley_epsilon_terms():
    # multi-term coefficients are parenthesised and unit ones dropped,
    # as in the default rendering
    code, text = _run(
        ["chevalley", "--type", "A2", "--lambda", "1,1", "--w", "s1s2",
         "--epsilon"]
    )
    assert code == 0
    lines = text.splitlines()
    assert "C[u=s2] = (-y -1)*x^(1,-1,0) + (-y -1)*x^(0,0,0)" in lines
    assert "C[u=s1s2] = x^(-1,1,0)" in lines


def test_json_output_matches_schema():
    schema = _schema()
    for argv in (
        ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "all",
         "--format", "json"],
        ["oracle", "--type", "A2", "--lambda", "1,1", "--w", "s1s2",
         "--format", "json"],
        ["hecke-coeffs", "--type", "A2", "--lambda", "1,0", "--w", "s1",
         "--format", "json"],
        ["chain", "--type", "A2", "--lambda", "2,1", "--format", "json"],
    ):
        code, text = _run(argv)
        assert code == 0, argv
        doc = json.loads(text)
        jsonschema.validate(doc, schema)


def test_output_is_deterministic():
    argv = ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "all",
            "--format", "json"]
    _, a = _run(argv)
    _, b = _run(argv)
    assert a == b


def test_oracle_matches_chevalley():
    _, a = _run(["chevalley", "--type", "A2", "--lambda", "1,1",
                 "--w", "s1s2", "--format", "json"])
    _, b = _run(["oracle", "--type", "A2", "--lambda", "1,1",
                 "--w", "s1s2", "--format", "json"])
    da, db = json.loads(a), json.loads(b)
    assert da["tables"][0]["entries"] == db["entries"]


def test_hl_schur_output():
    code, text = _run(["hl", "--type", "A2", "--lambda", "0,2"])
    assert code == 0
    assert "s22 - t*s211" in text


def test_hl_monomial_basis():
    code, text = _run(
        ["hl", "--type", "A2", "--lambda", "1,0", "--basis", "monomial"]
    )
    assert code == 0
    assert "x1" in text and "x2" in text and "x3" in text


def test_hl_json_renders_no_text(monkeypatch, tmp_path):
    # a JSON document is built alone: with every text renderer made to
    # fail, one --format json argv of each subcommand (a chevalley cache
    # miss among them) exits 0 and prints its pinned bytes
    import chevmc.chevalley as chevalley
    import chevmc.cli as cli
    import chevmc.specialfn as specialfn
    from chevmc.alcove import LambdaChain

    def refuse(*args, **kwargs):
        raise AssertionError("text rendered for --format json")

    for name in ("schur_expansion", "render_schur", "render_x"):
        monkeypatch.setattr(specialfn, name, refuse)
    for owner, name in ((chevalley, "render_table"), (cli, "render_table"),
                        (GA, "render"), (Scalar, "render"),
                        (LambdaChain, "render")):
        monkeypatch.setattr(owner, name, refuse)
    golden = dict(_GOLDEN)
    for argv, digest in (
        ("chevalley --type A2 --lambda 2,1 --w all --format json --cache-dir "
         + str(tmp_path), golden["chevalley --type A2 --lambda 2,1 --w all "
                                 "--format json"]),
        *((argv, golden[argv]) for argv in (
            "hecke-coeffs --type B2 --lambda 0,1 --w s2s1 --format json",
            "chain --type B3 --lambda 1,0,0 --format json",
            "oracle --type B2 --lambda 1,0 --w s2 --format json",
            "stab --type A2 --lambda 1,1 --format json",
            "whittaker --type B2 --lambda=-1,0 --w s1 --format json",
            "hl --type A3 --lambda 0,1,0 --format json",
            "csm --type B3 --lambda 1,0,1 --w s1s2s3 --format json",
            "search-positivity --type A2 --format json")),
        ("hl --type A2 --lambda 0,2 --format json",
         "5fad03f018833aebda9f7af690490a5dada3bb67d1c084c458585c91bcf58416"),
        ("verify --suite methods --type A2 --max-weight 1 --format json",
         "51d71bb0a149c3bbe8603ca8d9408a52b2722b023b7f9be0b7d9ee115c898595"),
    ):
        code, text = _run(argv.split())
        assert code == 0, argv
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


# SHA-256 of `hl --format json` for both chain formulas on ranks 2-4
_HL_CHAIN = {
    ("G2", "2,1", "chain_restricted"):
        "9dbc1fdf29ae7caaac2a9b40cc111ff37221ddefdf26648d64a67452ccbf47e6",
    ("G2", "2,1", "chain_opposite"):
        "a03a04339bd478de87d63f85203821817bb99f67e07773f25edc61d20aa279a9",
    ("B3", "1,1,0", "chain_restricted"):
        "b468f3b1daa63bf1508d25fb0278c3f90096104cb42dff166f77755fdbedafaa",
    ("B3", "1,1,0", "chain_opposite"):
        "9184b29dcbe93aed60c35846059fee7409502eb8c6d544ccfe14ab581983eefa",
    ("C3", "1,1,1", "chain_restricted"):
        "817ac71ec337340709641f233f35cb69a517b25e0149fcdc2f0e4da7dbba4013",
    ("C3", "1,1,1", "chain_opposite"):
        "2e418d0fe8357e11debd09da2f842aab3672692d41578023149bca7e3cc29b9d",
    ("D4", "1,0,1,1", "chain_restricted"):
        "2cea922f7784fb3d3dd22f15c0bea7e15df8cd63a2dd3d5732e4969d72a916d4",
    ("D4", "1,0,1,1", "chain_opposite"):
        "d3737e6449f007037cbd32e96cc2a4fb34a9912b050be5447fd58b51ea34247e",
}


def test_hl_chain_json_digests():
    for (typ, lam, method), digest in _HL_CHAIN.items():
        code, text = _run(["hl", "--type", typ, "--lambda", lam,
                           "--method", method, "--format", "json"])
        assert code == 0, (typ, method)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (
            typ, method)


def test_hl_chain_range_errors(capsys):
    # lambda is range-checked as given, ahead of the chain sum: the
    # error names the exponent of lambda, also at 4096, where -lambda
    # would still pack
    for n in (5000, 4096):
        for method in ("chain_restricted", "chain_opposite"):
            capsys.readouterr()
            argv = ["hl", "--type", "A1", "--lambda", str(n), "--method",
                    method]
            assert _run(argv) == (2, ""), (n, method)
            assert capsys.readouterr().err == (
                "error: exponent %d out of range [-8192, 8192)\n" % (2 * n)
            ), (n, method)


def test_hl_rejects_non_dominant():
    code, _ = _run(["hl", "--type", "A2", "--lambda=-1,0"])
    assert code == 2


def test_whittaker_runs():
    code, text = _run(
        ["whittaker", "--type", "A2", "--lambda=-1,-1", "--w", "all"]
    )
    assert code == 0 and text.strip()


def test_stab_runs():
    code, text = _run(["stab", "--type", "A2", "--lambda", "2,1"])
    assert code == 0 and "stab-shift row" in text


def test_csm_runs():
    code, text = _run(["csm", "--type", "A2", "--lambda", "1,1",
                       "--w", "s1s2"])
    assert code == 0 and text.strip()


def test_verify_pass_and_json():
    code, text = _run(["verify", "--suite", "methods", "--type", "A2",
                       "--max-weight", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["results"] and all(r["ok"] for r in doc["results"])


def test_verify_empty_suite_names_max_weight(capsys):
    # a known suite whose weights all fall outside --max-weight has no
    # cases: that is bad input (exit 2), not an unknown suite
    for suite in ("oracle", "stable", "positivity", "hl"):
        for mw in ("0", "-1"):
            capsys.readouterr()
            code, text = _run(["verify", "--suite", suite, "--type", "A2",
                               "--max-weight", mw])
            err = capsys.readouterr().err
            assert code == 2 and not text, (suite, mw)
            assert "--max-weight %s" % mw in err, (suite, mw, err)
            assert "unknown suite" not in err, (suite, mw, err)
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suite_cases("nope", "A", 2, 0)


def test_verify_all_with_an_empty_suite_exits_2(capsys):
    # at these values the oracle, stable, hl and positivity suites have
    # no cases; 'all' must refuse them, not run the others and pass
    for mw in ("0", "-1"):
        capsys.readouterr()
        code, text = _run(["verify", "--suite", "all", "--type", "A2",
                           "--max-weight", mw])
        err = capsys.readouterr().err
        assert code == 2 and not text, mw
        assert "suite 'oracle'" in err and "--max-weight %s" % mw in err, err


def test_verify_jobs_below_1_exits_2(capsys):
    for jobs in ("0", "-1"):
        capsys.readouterr()
        code, text = _run(["verify", "--suite", "methods", "--type", "A2",
                           "--jobs", jobs])
        err = capsys.readouterr().err
        assert code == 2 and not text, jobs
        assert err.startswith("error: ") and "--jobs %s" % jobs in err, err


def test_verify_case_ids_unique():
    # in rank 1, rho = varpi_1, so the +-varpi_i, +-rho weight list
    # repeats itself unless deduplicated; A2 keeps its order
    cases = suite_cases("all", "A", 1, 1)
    ids = [cid for cid, _, _ in cases]
    assert len(ids) == len(set(ids)) == 19
    assert [c[0] for c in suite_cases("methods", "A", 2)] == [
        "methods(A,2,%s)" % (lam,) for lam in
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    ]
    for label in ("A1", "B2"):
        ids = [cid for cid, _, _ in suite_cases("all", label[0],
                                                int(label[1]))]
        assert len(ids) == len(set(ids)), label


def test_search_positivity_small_types_clean():
    # negative coefficients first occur in much larger rank; A2 and B2
    # scans report nothing but must actually scan terms
    for label in ("A2", "B2"):
        code, text = _run(["search-positivity", "--type", label,
                           "--format", "json"])
        assert code == 0, label
        doc = json.loads(text)
        assert doc["scanned"] > 0 and not doc["findings"], label


def test_search_positivity_reports_findings(monkeypatch):
    # one mixed-sign y-coefficient among the scanned tables is reported,
    # in text and in a JSON document that validates against the schema
    import chevmc.cli as cli_mod

    real = cli_mod.chevalley_tables

    def tables(rs, lam, ws, *args, **kwargs):
        out = real(rs, lam, ws, *args, **kwargs)
        if lam == (1, 0):
            out[0] = {0: GA.term((0, 0), Scalar.y(1) - Scalar.one())}
        return out

    monkeypatch.setattr(cli_mod, "chevalley_tables", tables)
    code, text = _run(["search-positivity", "--type", "A2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[1:] == ["mixed-sign coefficients found: 1",
                         "  lambda=[1, 0] w=e u=e"]
    code, text = _run(["search-positivity", "--type", "A2",
                       "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    jsonschema.validate(doc, _schema())
    assert doc["findings"] == [{
        "lambda": [1, 0], "w": "e", "u": "e", "weight": [0, 0],
        "coeff": (Scalar.y(1) - Scalar.one()).to_json()}]


def test_bad_args_exit_2(capsys):
    assert _run(["chevalley", "--type", "Z9", "--lambda", "1,0",
                 "--w", "s1"])[0] == 2
    assert _run(["chevalley", "--type", "A2", "--lambda", "1",
                 "--w", "s1"])[0] == 2
    assert _run(["chevalley", "--type", "A2", "--lambda", "1,0",
                 "--w", "sQ"])[0] == 2
    # LaTeX is rendered by `chevalley` alone; the others reject it
    assert _run(["oracle", "--type", "A2", "--lambda", "1,0", "--w", "s1",
                 "--format", "latex"])[0] == 2
    # oracle, csm and hecke-coeffs take one word: --w is required, its
    # help offers no 'all', and an explicit 'all' is rejected
    for command in ("oracle", "csm", "hecke-coeffs"):
        capsys.readouterr()
        assert _run([command, "--type", "A2", "--lambda", "1,0"])[0] == 2
        assert "required: --w" in capsys.readouterr().err, command
        assert _run([command, "--help"])[0] == 0
        assert "'all'" not in capsys.readouterr().out, command
        assert _run([command, "--type", "A2", "--lambda", "1,0",
                     "--w", "all"])[0] == 2
    # inputs the library rejects: an error line, not a traceback
    for argv in (
        ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1",
         "--method", "operator", "--sign", "-"],
        ["whittaker", "--type", "A2", "--lambda", "1,1", "--w", "s1"],
        ["chain", "--type", "A2", "--lambda", "1,0", "--word", "s0s5"],
        ["chain", "--type", "A0", "--lambda", "1"],
        # s0 reflects in H_{theta~,1}; this one-letter word misses A - lambda
        ["chevalley", "--type", "C2", "--lambda=-1,0", "--w", "s1",
         "--word", "s0"],
        # an explicit empty word is a word, and it misses A - lambda too
        ["chain", "--type", "A2", "--lambda", "1,0", "--word", ""],
        ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1",
         "--word", ""],
        # a weight outside the packed range: refused before the operator
        # route takes a step, with the exponent named
        ["chevalley", "--type", "A1", "--lambda=5000", "--w", "s1",
         "--method", "operator"],
        ["chevalley", "--type", "A2", "--lambda=3000,3000", "--w", "s1",
         "--method", "operator"],
        # malformed Weyl words
        *(["chevalley", "--type", "A2", "--lambda=1,0", "--w", bad]
          for bad in ("s", "1s2", "ss1", "s1s", "s3", "s0")),
        # malformed affine words, each around the valid word s0s2s0
        *([command, "--type", "C2", "--lambda=-1,0", "--word", bad] + rest
          for command, rest in (("chain", []), ("chevalley", ["--w", "s1"]))
          for bad in ("s0s2s0s", "ss0s2s0", "s0ss2s0", "0 2 0", "s0s3")),
        # a rank that is not a number
        ["chain", "--type", "Ax", "--lambda", "1"],
        # E7 where the whole group is needed: above the element cap
        *([command, "--type", "E7", "--lambda=0,0,0,0,0,0,1"] + rest
          for command, rest in (
              ("chevalley", ["--w", "all"]),
              ("oracle", ["--w", "s1"]), ("stab", []), ("whittaker", []))),
        *(["verify", "--suite", suite, "--type", "E7"]
          for suite in ("all", "methods")),
        ["search-positivity", "--type", "E7"],
    ):
        capsys.readouterr()
        assert _run(argv)[0] == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
        assert len(err.splitlines()) == 1, argv
        if "E7" in argv:
            assert "above the cap 100000" in err, argv
        if argv[3:4] in (["--lambda=5000"], ["--lambda=3000,3000"]):
            assert err == "error: exponent %d out of range [-8192, 8192)\n" % (
                {"A1": 10000, "A2": 9000}[argv[2]]), argv
    # two faults: the first in the order --type, --lambda, --w is the
    # one reported, ahead of the cap of the whole E7 group
    for argv, line in (
        ("oracle --type E7 --lambda=1 --w s1",
         "weight '1' has 1 coordinates, expected 7"),
        ("whittaker --type E7 --lambda=0,0,0,0,0,0,-1 --w sQ",
         "bad Weyl word 'sQ'"),
        ("oracle --type E7 --lambda=0,0,0,0,0,0,1 --w all",
         "oracle needs a single Weyl word"),
    ):
        capsys.readouterr()
        assert _run(argv.split()) == (2, ""), argv
        assert capsys.readouterr().err == "error: %s\n" % line, argv


def _refuse(*args, **kwargs):
    raise AssertionError("not expected on this path")


def test_single_word_builds_no_weyl_group(no_completion):
    # one word on any route, and hecke-coeffs, makes only the Weyl
    # elements its walk reaches: with the group's completion made to
    # fail, both signs, an explicit affine word and every format still
    # exit 0
    lam = (0, 0, 0, 1, 0)
    word = "".join("s%d" % (i + 1)  # letter -1 is s0
                   for i in v_minus_lambda(RootSystem("D", 5), lam))
    base = ["chevalley", "--type", "D5", "--lambda=0,0,0,1,0",
            "--w", "s2s3s4s5"]
    for extra in ([], ["--method", "operator"], ["--sign", "-"],
                  ["--method", "bridge"],
                  ["--method", "bridge", "--sign", "-"],
                  ["--word", word], ["--word", word, "--sign", "-"]):
        for fmt in ("text", "json", "latex"):
            code, text = _run(base + extra + ["--format", fmt])
            assert code == 0 and "s2s3s4s5" in text, (extra, fmt)
    assert _run(base + ["--word", word]) == _run(base)
    code, text = _run(["hecke-coeffs"] + base[1:] + ["--format", "json"])
    assert code == 0 and json.loads(text)["w"] == "s2s3s4s5"


def test_e7_word_on_the_bridge():
    # the bridge and hecke-coeffs take one E7 word, whose group is above
    # the cap; the bridge prints the chain's tables
    base = ["--type", "E7", "--lambda=0,0,0,0,0,0,1", "--w", "s5s6s7",
            "--format", "json"]
    tables = []
    for method in ("chain", "bridge"):
        code, text = _run(["chevalley"] + base + ["--method", method])
        assert code == 0, method
        tables.append(json.loads(text)["tables"])
    assert len(tables[0][0]["entries"]) == 4 and tables[0] == tables[1]
    code, text = _run(["hecke-coeffs"] + base)
    assert code == 0 and json.loads(text)["entries"]


def test_csm_and_one_word_whittaker_above_the_cap(no_completion):
    # csm and a one-word whittaker read only the elements their walks
    # reach: on E7 and E8, with the group's completion made to fail, both
    # print non-empty JSON
    for rank in (7, 8):
        top = ",".join("1" if j == rank else "0" for j in range(1, rank + 1))
        for argv in (
            ["csm", "--type", "E%d" % rank, "--lambda=" + top, "--w", "s1"],
            ["csm", "--type", "E%d" % rank, "--lambda=" + top,
             "--w", "s%d" % rank],
            ["whittaker", "--type", "E%d" % rank,
             "--lambda=" + top.replace("1", "-1"), "--w", "s1s3s4"],
        ):
            code, text = _run(argv + ["--format", "json"])
            assert code == 0, argv
            doc = json.loads(text)
            assert doc.get("entries") or doc["values"][0]["value"], argv


def test_e8_single_word():
    # the E8 group is above the cap; one word runs, and the three routes
    # print the same tables
    base = ["chevalley", "--type", "E8", "--lambda=0,0,0,0,0,0,0,1",
            "--w", "s8s7s6s5s4s3s2s1", "--format", "json"]
    tables = []
    for method in ("chain", "operator", "bridge"):
        code, text = _run(base + ["--method", method])
        assert code == 0, method
        tables.append(json.loads(text)["tables"])
    assert tables[0] == tables[1] == tables[2]
    assert tables[0][0]["w"] == "s8s7s6s5s4s2s3s1"  # canonical: s2 < s3
    assert _run(["chain", "--type", "E8",
                 "--lambda=0,0,0,0,0,0,0,1"])[0] == 0


def _fund(rank, i):
    return "--lambda=" + ",".join("1" if j == i else "0"
                                  for j in range(1, rank + 1))


@pytest.mark.parametrize("argv", [
    ["--type", "A6", "--lambda=1,1,1,1,1,1", "--w", "s1s2s3"],
    ["--type", "A7", _fund(7, 1), "--w", "s7s6s5s4s3s2s1"],
    ["--type", "B7", _fund(7, 7), "--w", "s7s6s5s4"],
    ["--type", "D8", _fund(8, 2), "--w", "s2s3s4s5s6s7s8"],
    ["--type", "C10", _fund(10, 10), "--w", "s10s9s8s7"],
    ["--type", "A15", _fund(15, 8), "--w", "s8s7s6s5s4s3s2s1"],
], ids=lambda argv: argv[1])
def test_ranks_above_5_agree_across_routes(argv):
    # every family reaches rank 15 on one word; the chain and operator
    # routes print the same tables there
    tables = []
    for method in ("chain", "operator"):
        code, text = _run(["chevalley"] + argv
                          + ["--method", method, "--format", "json"])
        assert code == 0, method
        tables.append(json.loads(text)["tables"])
    assert tables[0] and tables[0] == tables[1]


def test_rank_above_15_exits_2(capsys):
    # the packed ring holds at most 15 weight coordinates: every route
    # refuses A16 with one error line, none crashes
    for method in ("chain", "operator", "bridge"):
        capsys.readouterr()
        assert _run(["chevalley", "--type", "A16", _fund(16, 1), "--w", "s1",
                     "--method", method])[0] == 2, method
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), method


def test_chain_word_matches_default_table():
    # s0 s2 s0 is a reduced word for v_{-lambda} in C2 at lambda = -w1,
    # with or without spaces between its letters
    argv = ["chevalley", "--type", "C2", "--lambda=-1,0", "--w", "s1"]
    code, default = _run(argv)
    assert code == 0
    assert _run(argv + ["--word", "s0s2s0"]) == (0, default)
    assert _run(argv + ["--word", "s0 s2 s0"]) == (0, default)
    assert "C[u=e] = (y +1)*e^{w1-1*w2}" in default.splitlines()


def test_empty_word_at_lambda_zero():
    # the empty word maps A to A - 0: on every route and sign it gives
    # the identity table, as the lex chain does
    base = ["chevalley", "--type", "A2", "--lambda=0,0", "--w", "s1"]
    for rest in ([], ["--method", "operator", "--sign", "-"],
                 ["--method", "bridge", "--sign", "-"]):
        code, default = _run(base + rest)
        assert code == 0 and "C[u=s1] = 1" in default.splitlines(), rest
        assert _run(base + rest + ["--word", ""]) == (0, default), rest
    argv = ["chain", "--type", "A2", "--lambda=0,0", "--format", "json"]
    assert _run(argv + ["--word", ""]) == _run(argv)


def test_long_chain_is_no_recursion(capsys):
    # a 1000-step lambda-chain: the subset search keeps its open branches
    # on its own stack, so the chain route runs and agrees with the
    # operator route, and the Hall-Littlewood chain formula with the
    # closed one
    argv = ["chevalley", "--type", "A1", "--lambda", "1000", "--w", "s1"]
    code, text = _run(argv)
    assert code == 0
    assert _run(argv + ["--method", "operator"]) == (0, text)
    hl = ["hl", "--type", "A1", "--lambda", "1000", "--method"]
    code, text = _run(hl + ["closed"])
    assert code == 0
    assert _run(hl + ["chain_restricted"]) == (0, text)
    # fine exponent 2 * 5000 lies outside the packed range [-8192, 8192)
    capsys.readouterr()
    assert _run(["chevalley", "--type", "A1", "--lambda", "5000",
                 "--w", "s1"])[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_hecke_coeffs_exponent_range(capsys):
    # on A1 the fine exponents of lambda = 4095 reach 8190, inside the
    # packed range [-8192, 8192); those of lambda = 4096 reach 8192
    argv = ["--type", "A1", "--w", "s1", "--lambda"]
    code, text = _run(["hecke-coeffs"] + argv + ["4095"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "be6210366908b52a0c406e22bf188c132a369597f218b496fd3a0faf3504d365")
    for command in (["hecke-coeffs"], ["chevalley", "--method", "bridge"]):
        capsys.readouterr()
        assert _run(command + argv + ["4096"])[0] == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_oracle_exponent_range(capsys):
    # on A1 the oracle's values and remainders stay in the packed range
    # [-8192, 8192) at lambda = +-4093 and leave it at +-4094; the
    # solve on slice parts prints the bytes of the full-class solve
    argv = ["oracle", "--type", "A1", "--w", "s1"]
    digests = {
        4093: "bc71aa1527473fe6c5600f2af8d4fdd35161e6dc1c3510cf3be5222045ebccde",
        -4093: "6623b26b1345e62f89bcff2f607503f6c8003993405eb4cf56a765b5cdad82c4",
    }
    for lam, digest in digests.items():
        code, text = _run(argv + ["--lambda=%d" % lam])
        assert code == 0, lam
        assert hashlib.sha256(text.encode()).hexdigest() == digest, lam
    for lam in (4094, -4094):
        capsys.readouterr()
        assert _run(argv + ["--lambda=%d" % lam]) == (2, ""), lam
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), lam
    # a weight outside the packed range is refused before any shift,
    # with the exponent named
    for lam in (9000, -9000):
        capsys.readouterr()
        assert _run(argv + ["--lambda=%d" % lam]) == (2, ""), lam
        assert capsys.readouterr().err == (
            "error: exponent %d out of range [-8192, 8192)\n" % (2 * lam)), lam


def test_cache_round_trip(tmp_path):
    argv = ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "s2s1",
            "--format", "json", "--cache-dir", str(tmp_path)]
    code, a = _run(argv)
    assert code == 0
    files = list(tmp_path.iterdir())
    assert files, "expected a cache entry to be written"
    code, b = _run(argv)
    assert code == 0 and a == b


def test_cache_key_includes_version(tmp_path, monkeypatch):
    key = cache_key("chevalley", "A", 2, (2, 1), (1, 0), "chain", None)
    payload = "w = s1\nC[u=e] = (-y -1)*e^{w1}\n"
    cache_put(str(tmp_path), key, payload)
    assert cache_get(str(tmp_path), key) == payload
    # the entry is the digest line, then the text's UTF-8 bytes
    body = payload.encode()
    entry, = tmp_path.iterdir()
    assert entry.read_bytes() == (
        hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
    import chevmc.cache as cache_mod

    monkeypatch.setattr(cache_mod, "__version__", __version__ + ".dev0")
    stale = cache_key("chevalley", "A", 2, (2, 1), (1, 0), "chain", None)
    assert stale != key
    assert cache_get(str(tmp_path), stale) is None


@pytest.mark.parametrize("umask, mode", [
    (0o022, 0o644), (0o002, 0o664), (0o077, 0o600)])
def test_cache_entry_has_the_umask_mode(tmp_path, umask, mode):
    """An entry gets the mode of an ordinary file under the umask, not
    mkstemp's 0600, so other users of a shared directory can read it;
    the umask itself is left as it was."""
    old = os.umask(umask)
    try:
        cache_put(str(tmp_path), "k", "w = s1\n")
        assert os.umask(umask) == umask
    finally:
        os.umask(old)
    entry, = tmp_path.iterdir()
    assert entry.name == "k.json"
    assert entry.stat().st_mode & 0o777 == mode


def test_cache_corrupted_entry_recomputed(tmp_path):
    argv = ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1",
            "--format", "json", "--cache-dir", str(tmp_path)]
    code, a = _run(argv)
    assert code == 0
    path, = tmp_path.iterdir()
    stored = path.read_bytes()
    path.write_text("{ not json")
    code, b = _run(argv)
    assert code == 0 and a == b
    assert path.read_bytes() == stored


def _sha(body):
    return hashlib.sha256(body).hexdigest().encode()


@pytest.mark.parametrize("entry", [
    "{}", '[{"x": 1}]', '[{"u": 3}]', '[{"u": "s1", "value": "v"}]',
    '"text"', '{"text": "w = s1"}', '{"sha256": "0", "text": 3}',
    '{"sha256": "0", "text": "\\ud800"}',  # not encodable as UTF-8
    # raw-layout entries built from the stored digest line and body
    pytest.param(lambda digest, body: b"", id="empty"),
    pytest.param(lambda digest, body: digest, id="digest-only"),
    pytest.param(lambda digest, body: digest + body, id="no-newline"),
    pytest.param(lambda digest, body: _sha(b"w = s1") + b"\n" + body,
                 id="another-digest"),
    pytest.param(lambda digest, body: _sha(body + b"\xe9") + b"\n" + body
                 + b"\xe9", id="not-utf8"),
    pytest.param(lambda digest, body: json.dumps(
        {"sha256": digest.decode(), "text": body.decode()}).encode(),
        id="old-layout"),
])
def test_cache_misshaped_entry_recomputed(tmp_path, entry):
    argv = ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1",
            "--format", "json", "--cache-dir", str(tmp_path)]
    code, a = _run(argv)
    assert code == 0
    path, = tmp_path.iterdir()
    stored = path.read_bytes()
    if callable(entry):
        digest, _, body = stored.partition(b"\n")
        path.write_bytes(entry(digest, body))
    else:
        path.write_text(entry)
    assert path.read_bytes() != stored
    code, b = _run(argv)
    assert code == 0 and a == b
    # the recomputed table replaced the bad entry
    assert path.read_bytes() == stored
    code, c = _run(argv)
    assert code == 0 and a == c


def _edit_text(path, edit):
    """Apply `edit` to the stored text of the cache entry at `path`: the
    body after the digest line; the digest line stays as it was."""
    digest, newline, body = path.read_bytes().partition(b"\n")
    assert newline
    path.write_bytes(digest + newline + edit(body.decode()).encode())


def _edit_entries(mutate):
    """A text edit that applies `mutate` to the entries of the first
    table of a stored JSON document and writes the document back as
    `chevalley` would."""
    def edit(text):
        doc = json.loads(text)
        mutate(doc["tables"][0]["entries"])
        return _dumps(doc) + "\n"
    return edit


def _set_zero_coeff(doc):
    doc[0]["value"][0]["coeff"]["7"] = 0


def _swap_entries(doc):
    doc[0], doc[1] = doc[1], doc[0]


def _extra_entry_key(doc):
    doc[0]["extra"] = 1


def _extra_term_key(doc):
    doc[0]["value"][0]["extra"] = 1


def _duplicate_entry(doc):
    doc.append(doc[-1])


def _swap_terms(doc):
    value = doc[0]["value"]
    value[0], value[1] = value[1], value[0]


def _padded_exponent(doc):
    coeff = doc[0]["value"][0]["coeff"]
    coeff["00"] = coeff.pop("0")


def _word_not_normal(doc):
    doc[-1]["u"] += "s1s1"  # the same element, not in normal form


@pytest.mark.parametrize("mutate", [
    _set_zero_coeff, _swap_entries, _extra_entry_key, _extra_term_key,
    _duplicate_entry, _swap_terms, _padded_exponent, _word_not_normal,
])
def test_cache_non_canonical_entry_recomputed(tmp_path, mutate):
    # a hit prints the stored text as it is, so a text that still parses
    # but no longer matches its digest must be a miss
    argv = ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "s2s1",
            "--format", "json", "--cache-dir", str(tmp_path)]
    code, a = _run(argv)
    assert code == 0
    path, = tmp_path.iterdir()
    stored = path.read_bytes()
    _edit_text(path, _edit_entries(mutate))
    assert path.read_bytes() != stored
    code, b = _run(argv)
    assert code == 0 and a == b
    assert path.read_bytes() == stored


def _term(weight, coeff):
    return {"weight": weight, "coeff": coeff}


# rank-2 `ref_to_json` lists with one fault each; `_dumps` writes none
BAD_GA_JSON = [
    [_term([0, 1], {"0": 1, "2": 0})],  # a zero coefficient
    [_term([0, 1], {})],  # no coefficient
    [_term([1, 0], {"0": 1}), _term([0, 1], {"0": 1})],  # not ascending
    [_term([0, 1], {"0": 1}), _term([0, 1], {"2": 1})],  # twice
    [_term([0], {"0": 1}), _term([0, 1], {"0": 1})],  # two lengths
    [dict(_term([0, 1], {"0": 1}), extra=1)],  # an extra key
    [_term([0, 1], {"+1": 1})],  # an exponent not written as str(int)
    [_term([0, 1], {"0": 1.0})],
    [_term([0, 1], {"0": True})],
    [_term([0, 1.0], {"0": 1})],
    [_term([0, LIMIT], {"0": 1})],  # out of range
    [_term([0, 1], {str(LIMIT): 1})],
    [{"weight": [0, 1]}],
]


def _set_last_value(items):
    """A text edit that puts `items` in place of the last entry's value:
    the JSON value in a JSON document, the text after the last " = " in
    a text output."""
    def edit(text):
        if text.startswith("{"):
            return _edit_entries(
                lambda doc: doc[-1].update(value=items))(text)
        return text.rsplit(" = ", 1)[0] + " = " + json.dumps(items)
    return edit


@pytest.mark.parametrize("items", BAD_GA_JSON)
def test_cache_bad_value_recomputed(tmp_path, items):
    argv = ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "s2s1"]
    for fmt in ("json", "text"):
        cache = tmp_path / fmt
        run = argv + ["--format", fmt, "--cache-dir", str(cache)]
        code, miss = _run(run)
        assert code == 0
        path, = cache.iterdir()
        stored = path.read_bytes()
        _edit_text(path, _set_last_value(items))
        assert _run(run) == (0, miss), fmt
        assert path.read_bytes() == stored


@pytest.mark.parametrize("cut", [0, -1])
def test_cache_truncated_entry_recomputed(tmp_path, cut):
    # a stored text that is empty (cut 0) or lost its last line (cut -1)
    # is a miss in either format
    argv = ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "s2s1"]
    for fmt in ("text", "json"):
        cache = tmp_path / fmt
        run = argv + ["--format", fmt, "--cache-dir", str(cache)]
        code, miss = _run(run)
        assert code == 0
        path, = cache.iterdir()
        stored = path.read_bytes()
        _edit_text(path, lambda text: "".join(
            text.splitlines(keepends=True)[:cut]))
        assert _run(run) == (0, miss), fmt
        assert path.read_bytes() == stored


@pytest.mark.parametrize("fmt,old,new", [
    ("json", '"0": 1', '"0": 7'),
    ("text", "+1)", "+7)"),
    ("latex", "+1)", "+7)"),
], ids=["json", "text", "latex"])
def test_cache_changed_coefficient_recomputed(tmp_path, fmt, old, new):
    # one coefficient changed in a well-formed stored table is caught by
    # the digest: the run prints the miss's bytes and rewrites the entry
    argv = ["chevalley", "--type", "A2", "--lambda", "2,1", "--w", "s2s1",
            "--format", fmt, "--cache-dir", str(tmp_path)]
    code, miss = _run(argv)
    assert code == 0 and old in miss
    path, = tmp_path.iterdir()
    stored = path.read_bytes()
    _edit_text(path, lambda text: text.replace(old, new, 1))
    assert _run(argv) == (0, miss)
    assert path.read_bytes() == stored


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_cache_epsilon_shares_the_entry(tmp_path, monkeypatch, fmt):
    # only the text format prints epsilon coordinates, so a JSON or LaTeX
    # run with --epsilon reads the entry the plain run wrote, and prints
    # its bytes without computing a table
    argv = ["chevalley", "--type", "A2", "--lambda=2,1", "--w", "s1s2",
            "--format", fmt, "--cache-dir", str(tmp_path)]
    code, miss = _run(argv)
    assert code == 0
    with monkeypatch.context() as m:
        m.setattr("chevmc.cli.chevalley_tables", _refuse)
        assert _run(argv + ["--epsilon"]) == (0, miss)
    assert len(list(tmp_path.iterdir())) == 1


def _entry(printed):
    """The bytes of the cache entry of a run that printed `printed`."""
    return _sha(printed.encode()) + b"\n" + printed.encode()


def test_cache_one_entry_per_run(tmp_path, monkeypatch):
    # an all-w run writes one entry, the printed output after its digest,
    # and its hit computes nothing; a one-word run after it is a miss of
    # its own that prints the miss bytes and adds one entry; a deleted
    # entry is recomputed
    base = ["chevalley", "--type", "B3", "--lambda=1,1,1"]
    for fmt in ("json", "text", "latex"):
        cache = tmp_path / fmt
        argv = base + ["--w", "all", "--format", fmt, "--cache-dir",
                       str(cache)]
        code, miss = _run(argv)
        assert code == 0, fmt
        entry, = cache.iterdir()
        assert entry.read_bytes() == _entry(miss), fmt
        with monkeypatch.context() as m:
            m.setattr("chevmc.cli.chevalley_tables", _refuse)
            assert _run(argv) == (0, miss), fmt
        one = base + ["--w", "s2s1s3", "--format", fmt, "--cache-dir"]
        code, one_miss = _run(one + [str(tmp_path / (fmt + "-miss"))])
        assert code == 0 and one_miss != miss, fmt
        assert _run(one + [str(cache)]) == (0, one_miss), fmt
        assert len(list(cache.iterdir())) == 2, fmt
        entry.unlink()
        assert _run(argv) == (0, miss), fmt
        assert entry.read_bytes() == _entry(miss), fmt
        assert len(list(cache.iterdir())) == 2, fmt


def test_all_w_range_error_matches_single_word(capsys):
    # lambda = 4096 on A1 leaves the packed range: the all-w pass and the
    # single-word walk refuse it with one message
    errs = []
    for w in ("all", "s1"):
        capsys.readouterr()
        assert _run(["chevalley", "--type", "A1", "--lambda=4096",
                     "--w", w]) == (2, ""), w
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == (
        "error: exponent 8192 out of range [-8192, 8192)\n")


# the all-w tables that dominate the cli benchmark, run twice with one
# cache: a miss that writes the entry, then a hit that prints it
_BIG_ARGVS = [
    "chevalley --type B3 --lambda=1,1,1 --w all --sign + --format json",
    "chevalley --type C3 --lambda=-1,-1,-1 --w all --sign - --format json",
]


@pytest.fixture(scope="module", params=_BIG_ARGVS)
def big_runs(request, tmp_path_factory):
    argv = request.param.split() + [
        "--cache-dir", str(tmp_path_factory.mktemp("cache"))]
    return [_run(argv) for _ in range(2)]


def test_cache_hit_prints_miss_bytes(big_runs):
    (code1, miss), (code2, hit) = big_runs
    assert code1 == code2 == 0
    assert miss == hit


def test_writer_on_big_tables(big_runs):
    text = big_runs[0][1]
    doc = json.loads(text)
    assert _dumps(doc) + "\n" == text
    assert _dumps(doc) == json.dumps(doc, sort_keys=True, indent=1)


_json_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.text(alphabet=st.sampled_from('"\\\n\t\x00\x1f/é€😀')),
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=30,
)


@given(_json_values)
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=1)


@functools.cache
def _gas(rank):
    """GA elements of one rank: each weight coordinate near 0 (so that
    weights and coefficients repeat across terms) or anywhere in range,
    v exponents in -20..20, whose strings sort as "-1" < "-10" < "-2".
    A weight takes two draws, not one strategy per coordinate: which
    coordinates are anywhere (bits), and three bytes per coordinate, the
    first read as a coordinate near 0 and the next two as one anywhere,
    each as (-1)^d ceil(d/2) of a digit d (0, -1, 1, -2, ...), except
    that one in 16 of the latter is an end of the range."""
    def zigzag(d):
        return -(d + 1 >> 1) if d & 1 else d >> 1

    def anywhere(v):
        if v >> 12 == 15:
            return LIMIT - 1 if v & 1 else -LIMIT
        return zigzag(v % (2 * LIMIT))

    def weight(drawn):
        far, b = drawn
        return tuple(
            anywhere(b[3 * i + 1] << 8 | b[3 * i + 2])
            if far >> i & 1 else zigzag(b[3 * i] % 5)
            for i in range(rank))

    weights = st.tuples(st.integers(0, 2 ** rank - 1),
                        st.binary(min_size=3 * rank, max_size=3 * rank)
                        ).map(weight)
    scalar = st.dictionaries(
        st.integers(-20, 20),
        st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)),
        max_size=6).map(Scalar)
    return st.lists(st.tuples(weights, scalar), max_size=8).map(GA)


def _ref_doc(v):
    """`v` with every GA replaced by its reference encoding."""
    if type(v) is GA:
        return ref_to_json(v)
    if type(v) is dict:
        return {k: _ref_doc(x) for k, x in v.items()}
    if type(v) is list:
        return [_ref_doc(x) for x in v]
    return v


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_writer_writes_ga_as_reference(data):
    # `_dumps` writes a GA from its packed keys, with one memo shared
    # across two ranks and two pads, as json.dumps writes its reference
    # encoding at that pad
    ranks = data.draw(st.lists(st.integers(1, 15), min_size=2, max_size=2,
                               unique=True), label="ranks")
    pads = data.draw(st.lists(st.sampled_from(["\n", "\n ", "\n  ", "\n   "]),
                              min_size=2, max_size=2, unique=True),
                     label="pads")
    gs = [data.draw(_gas(r), label="g") for r in ranks for _ in range(2)]
    gs.append(GA({(0,) * ranks[0]: Scalar({-1: 1, -10: 2, -2: 3, 10: 4})}))
    memo = {}
    for pad in pads:
        for g in gs:
            want = json.dumps(ref_to_json(g), sort_keys=True, indent=1)
            assert _dumps(g, pad, memo) == want.replace("\n", pad)
    doc = {"w": "s1", "value": gs[0],
           "tables": [{"entries": [{"u": "e", "value": g} for g in gs]}]}
    assert _dumps(doc, "\n", memo) == json.dumps(
        _ref_doc(doc), sort_keys=True, indent=1)


def test_cache_not_writable_exits_2(tmp_path, capsys):
    argv = ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1"]
    # a regular file where the cache directory should be
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _run(argv + ["--cache-dir", str(blocker)])[0] == 2
    # a directory where the entry should be: unreadable, then unwritable
    cache = tmp_path / "cache"
    assert _run(argv + ["--cache-dir", str(cache)])[0] == 0
    entry, = cache.iterdir()
    entry.unlink()
    entry.mkdir()
    assert _run(argv + ["--cache-dir", str(cache)])[0] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(e.startswith("error: cannot write the cache") for e in err)


def test_cache_key_includes_source(monkeypatch):
    import chevmc.cache as cache_mod

    key = cache_key("chevalley", "A", 2, (2, 1), (1, 0), "chain", None)
    monkeypatch.setattr(cache_mod, "source_digest", lambda: "edited")
    assert cache_key("chevalley", "A", 2, (2, 1), (1, 0), "chain",
                     None) != key


def test_verify_jobs_clamped_to_cpu_count(monkeypatch):
    import chevmc.verify as verify_mod

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify_mod, "Pool", FakePool)
    assert verify_mod.pool_size(10 ** 6) == 2
    assert verify_mod.pool_size(1) == 1
    results = verify_mod.run_suite("positivity", "A", 2, max_weight=1,
                                   jobs=10 ** 6)
    assert sizes == [2]
    assert results and all(d is None for _, d in results)


def test_verify_pool_matches_serial():
    import chevmc.verify as verify_mod

    serial = verify_mod.run_suite("all", "A", 2, max_weight=1)
    assert serial and all(d is None for _, d in serial)
    assert verify_mod.run_suite("all", "A", 2, max_weight=1,
                                jobs=2) == serial


def _perturbed(real):
    """chevalley_tables with 1 added to every table's diagonal entry."""
    def tables(rs, *args, **kwargs):
        one = GA.const(1, rs.rank)
        return {w: {**t, w: t[w] + one}
                for w, t in real(rs, *args, **kwargs).items()}
    return tables


def test_verify_tables_do_not_outlive_the_suite(monkeypatch):
    # tables memoised by a clean run must not answer for a later run
    import chevmc.verify as verify_mod

    results = verify_mod.run_suite("oracle", "A", 2, max_weight=1)
    assert results and all(d is None for _, d in results)
    monkeypatch.setattr(verify_mod, "chevalley_tables",
                        _perturbed(verify_mod.chevalley_tables))
    results = verify_mod.run_suite("oracle", "A", 2, max_weight=1)
    assert any(d is not None for _, d in results)


def _one_coefficient_off(real):
    """chevalley_tables with 1 added to one coefficient: C^e_{e,lambda}
    of the chain route at +lambda."""
    def tables(rs, lam_fund, ws, sign=1, method="chain", chain=None):
        out = real(rs, lam_fund, ws, sign, method, chain)
        if method == "chain" and sign > 0 and 0 in out:
            out[0] = {**out[0], 0: out[0][0] + GA.const(1, rs.rank)}
        return out
    return tables


def test_verify_reports_a_changed_coefficient(monkeypatch):
    # with one chain coefficient off, each case that reads it returns its
    # failure text, a case that raises is reported as an exception, and
    # `chevmc verify` exits 1 with "ok": false results in its JSON
    import chevmc.verify as verify_mod

    real_terms = verify_mod.chevalley_terms
    monkeypatch.setattr(verify_mod, "chevalley_tables",
                        _one_coefficient_off(verify_mod.chevalley_tables))
    lam = (1, 0)
    where = "at u=e w=e lambda=(1, 0)"
    assert verify_mod.case_methods_agree("A", 2, lam) == (
        "method mismatch " + where)
    assert verify_mod.case_oracle_equivalence("A", 2, lam) == (
        "oracle mismatch " + where)
    assert verify_mod.case_duality("A", 2, "serre", lam) == (
        "duality serre fails " + where)
    assert verify_mod.case_positivity("A", 2, lam) == (
        "positivity terms miss the table at w=e lambda=(1, 0)")
    # a term whose coefficient has the wrong sign is out of shape
    monkeypatch.setattr(verify_mod, "chevalley_terms", lambda *a: [
        (u, t, mu, -c) for u, t, mu, c in real_terms(*a)])
    assert verify_mod.case_positivity("A", 2, lam) == (
        "term q^0 (q-1)^0 out of shape at u=e w=e")

    def boom(*args, **kwargs):
        raise ArithmeticError("no tables")

    with monkeypatch.context() as m:
        m.setattr(verify_mod, "chevalley_tables", boom)
        assert verify_mod._run_one(("case", "methods", ("A", 2, lam))) == (
            "case", "exception: ArithmeticError('no tables')")
    code, text = _run(["verify", "--suite", "methods", "--type", "A2",
                       "--format", "json"])
    assert code == 1
    doc = json.loads(text)
    jsonschema.validate(doc, _schema())
    assert doc["results"] and not any(r["ok"] for r in doc["results"])
    assert doc["results"][0] == {"case": "methods(A,2,(1, 0))", "ok": False,
                                 "detail": "method mismatch " + where}
    assert _run(["verify", "--suite", "methods", "--type", "A2"]) == (
        1, "".join("FAIL %s: %s\n" % (r["case"], r["detail"])
                   for r in doc["results"]) + "0/6 cases passed\n")


def _bumped(table, u, rank):
    """A CSM table with 1 added to its coefficient at u."""
    from chevmc.csm import CohPoly
    return {**table, u: table.get(u, CohPoly()) + CohPoly.const(1, rank)}


def _other_side_off(real):
    """An identity's two sides with 1 added to the second."""
    def sides(rs, lam_fund):
        a, b = real(rs, lam_fund)
        return a, b + GA.const(1, rs.rank)
    return sides


def test_verify_reports_each_failure_of_the_other_suites(monkeypatch):
    # one value perturbed per check of the stable, hl, whittaker and csm
    # suites: each case returns that check's text, and `chevmc verify`
    # exits 1 with schema-valid "ok": false results
    import chevmc.csm as csm
    import chevmc.specialfn as specialfn
    import chevmc.verify as verify_mod

    stab, wall_cross_path = KOracle.stab, verify_mod.wall_cross_path
    hall_littlewood, big_h = specialfn.hall_littlewood, specialfn.big_h
    whittaker_chevalley = specialfn.whittaker_chevalley
    expand = csm.CohOracle.expand_chern_product
    t_w_times_x = csm.t_w_times_x

    def one_wall_off(rs, lam_fund):
        m = wall_cross_path(rs, lam_fund)
        m[0] = {**m[0], 0: m[0].get(0, GA()) + GA.const(1, rs.rank)}
        return m

    checks = [
        ("stable", (1, 0), KOracle, "stab",
         lambda self, w: {**stab(self, w), 0: None} if w else stab(self, w),
         "stab support fails at w=s1"),
        ("stable", (1, 0), verify_mod, "wall_cross_path", one_wall_off,
         "wall-crossing composition fails at (e, e)"),
        ("hl", (1, 0), specialfn, "hall_littlewood",
         lambda rs, lam, method="closed": hall_littlewood(rs, lam, method) + (
             GA.const(1, rs.rank) if method == "chain_opposite" else GA()),
         "HL method chain_opposite disagrees at lambda=(1, 0)"),
        ("hl", (1, 0), specialfn, "big_h",
         lambda rs, lam: big_h(rs, lam) + GA.const(1, rs.rank),
         "HL bridge through H_{-lambda} fails at lambda=(1, 0)"),
        ("whittaker", (-1, 0), specialfn, "whittaker_chevalley",
         lambda rs, lam, w: whittaker_chevalley(rs, lam, w)
         + GA.const(1, rs.rank),
         "Whittaker methods disagree at w=e lambda=(-1, 0)"),
        ("whittaker", (-1, 0), specialfn, "casselman_shalika_sides",
         _other_side_off(specialfn.casselman_shalika_sides),
         "Casselman-Shalika fails at lambda=(-1, 0)"),
        ("whittaker", (-1, 0), specialfn, "whittaker_r_sides",
         _other_side_off(specialfn.whittaker_r_sides),
         "Whittaker R-function identity fails at lambda=(-1, 0)"),
        ("csm", (1, 0), csm.CohOracle, "expand_chern_product",
         lambda self, lam, w: _bumped(expand(self, lam, w), w,
                                      self.rs.rank),
         "CSM Chevalley mismatch at u=e w=e lambda=(1, 0)"),
        ("csm", (1, 0), csm, "t_w_times_x",
         lambda rs, w, lam: _bumped(t_w_times_x(rs, w, lam), w, rs.rank),
         "degenerate commutation fails at w=e lambda=(1, 0)"),
    ]
    for suite, lam, owner, name, perturbed, detail in checks:
        with monkeypatch.context() as m:
            m.setattr(owner, name, perturbed)
            assert verify_mod._CASE_FUNCS[suite]("A", 2, lam) == detail, name
            code, text = _run(["verify", "--suite", suite, "--type", "A2",
                               "--max-weight", "1", "--format", "json"])
            assert code == 1, name
            doc = json.loads(text)
            jsonschema.validate(doc, _schema())
            assert doc["results"] and not any(
                r["ok"] for r in doc["results"]), name


def test_verify_holds_nothing_after_return(monkeypatch):
    import chevmc.verify as verify_mod

    built = []
    real = verify_mod.RootSystem

    def root_system(family, rank):
        rs = real(family, rank)
        built.append((weakref.ref(rs), weakref.ref(rs.weyl())))
        return rs

    monkeypatch.setattr(verify_mod, "RootSystem", root_system)
    results = verify_mod.run_suite("all", "A", 2, max_weight=1)
    assert results and all(d is None for _, d in results)
    # one root system for the whole suite, and none kept once it returns
    assert len(built) == 1
    assert verify_mod._shared is None
    gc.collect()
    assert all(r() is None for pair in built for r in pair)
    # a case called on its own shares nothing either
    assert verify_mod.case_duality("A", 2, "serre", (1, 0)) is None
    assert len(built) == 2 and verify_mod._shared is None


def test_verify_stable_checks_once_per_suite(monkeypatch):
    # stab support and T_i on every stab do not depend on lambda: they
    # run once per suite, and when they fail every stable case fails
    calls = []

    def unequal(self, a, b):
        calls.append(1)
        return False

    monkeypatch.setattr(KOracle, "classes_equal", unequal)
    results = run_suite("stable", "A", 2)
    assert [d for _, d in results] == [
        "Hecke action on stab fails at i=1 w=e"] * 3
    assert len(calls) == 1


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_one_parser_serves_every_call(capsys):
    # a failed parse and --version leave the shared parser as it was
    argv, digest = _GOLDEN[0]
    assert _run(["chevalley", "--type", "A2", "--bogus"])[0] == 2
    assert _run(["--version"])[0] == 0
    assert capsys.readouterr().out.strip() == __version__
    with mock.patch.dict(os.environ):
        os.environ.pop("CHEVMC_CACHE_DIR", None)
        code, text = _run(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of stdout for cheap argvs over every subcommand, text and JSON;
# any change to CLI output, or to a value it prints, shows up here.
# LaTeX output is checked by test_chevalley_latex.
_GOLDEN = [
    ("chevalley --type A2 --lambda 2,1 --w all",
     "600ef09fc531f15d5f471206c48a8ec27f23c7cb49399394983251910acff7d8"),
    ("chevalley --type A2 --lambda 2,1 --w all --format json",
     "4b98161e19b7e0c4261abf2587e1bd378846eacb79c44351e1d5443a99c76de3"),
    ("chevalley --type B2 --lambda 1,1 --w s1s2 --sign -",
     "f13166242f5bf500dd025e04a1e3d0fbed1b526b0c58a8039a7a98b1b18800bc"),
    ("chevalley --type A3 --lambda 1,0,1 --w s1s2s3 --method operator --format json",
     "8af4a18a46ee278f205a81516b488bccbae3c169cae294ca8b248bcfd5804118"),
    ("chevalley --type G2 --lambda 1,0 --w s2s1 --method bridge",
     "ef29ed3b4990d3429ccad7f1c745e576868f61ca2927da047cb3e94c0a81ff03"),
    ("chevalley --type B3 --lambda 1,1,0 --w s1s2s3s2 --method bridge "
     "--format json",
     "790f982a0c5e6b40a030a05c8e331093bece7d0655af7348b5617f6d91e0254f"),
    ("chevalley --type C3 --lambda 0,1,0 --w s3s2",
     "bfbb2b2e6e8eb38e8f232ff85f797e00171beeafff334e4410c05d6fa66cf5d2"),
    ("chevalley --type A2 --lambda 1,1 --w s1s2 --epsilon",
     "088024138db2681ee03d64afaf493df910f8ebf0bca53a166d86cb8c8e324583"),
    ("chevalley --type A2 --lambda 2,1 --w s1s2 --word s2s1s2s0s1s2",
     "a623041266c18c86c53cfff67df2b011d322bc6ddf9265a84e53edbc4b68d06f"),
    ("chevalley --type B3 --lambda 1,0,0 --w all --format json",
     "97b44b1ef9102d97d6ff6ed0b690fc895733b3a8b3200b89275841f0e7b2c92f"),
    ("hecke-coeffs --type A2 --lambda 1,0 --w s1",
     "f3aa0be07598abc57c97bd88bd53661abe462c265cd50dced2231e4a44c7340a"),
    ("hecke-coeffs --type B2 --lambda 0,1 --w s2s1 --format json",
     "d60068dcdf301aa5528422cf01ed3793941cbce3d0eb75451f66ba9ae818b047"),
    ("hecke-coeffs --type G2 --lambda 2,1 --w s1s2s1",
     "3ea6fb8950cd92e30de104964611b5cd2da25fdd3dbd48b66912c8b80f779c2f"),
    ("hecke-coeffs --type E8 --lambda=0,0,0,0,0,0,0,1 --w s8s7s6s5s4s3s2s1 "
     "--format json",
     "852f176a1cf8eed757fdc766bf4c18a9f8ebbd8dd059c1f4e2c1184b7934ce87"),
    ("chain --type A2 --lambda 2,1",
     "11842b6c9f6750bb7a5f6c4ce1e0ddfe6a1db85518dcf432d907182dace222c9"),
    ("chain --type B3 --lambda 1,0,0 --format json",
     "d16452e23ccc358ecb47758ef1cc212fa3323ec6f835c839c735c7a36b491696"),
    ("oracle --type A2 --lambda 1,1 --w s1s2",
     "d07cf6cd0c86f821e1455b7f780674c8e6523a752c06a0ad8244ea31889df402"),
    ("oracle --type A3 --lambda 1,1,0 --w s2s1",
     "1ce97297dcfaef5acab82fbac3cec9b75ae42b620e62d7a14c693c6463e946f9"),
    ("oracle --type B2 --lambda 1,0 --w s2 --format json",
     "50e1bbd87d7c086b8774847d95ccbe5c6cc26768403ebcebbebf87a8a7abb15b"),
    ("stab --type A2 --lambda 1,0 --w s1",
     "42adfddac56691bb39733c4945ef2e9f0a33181b597274b5f9c9ebd4dbb3607b"),
    ("stab --type A2 --lambda 1,1 --format json",
     "1511c87a9366d5c1d840ac953ffa48d00f9aa07e854b3e5c58c031ccb490b2ec"),
    ("stab --type G2 --lambda 1,1 --format json",
     "54c7f8c3bca66b8450941ffbd56f3a0838ca5933d34bc95980b4012772b8d8ee"),
    ("stab --type B3 --lambda 1,0,0 --w s1s2s3",
     "828beca875600fba4a541acd41f7079292308a17579eb505f9ab9accea8f2fe6"),
    ("whittaker --type A2 --lambda=-1,-1 --w all",
     "b088138c6366dc3734c15291988396b8b5e3fcdd219ed22435206c99c5664023"),
    ("whittaker --type B2 --lambda=-1,0 --w s1 --format json",
     "47e1d50b32934b5ddfaf9d226b29f88dee8ef3a9dff434bdb1e5732f26e0ab2a"),
    ("whittaker --type G2 --lambda=-1,-1 --w all --format json",
     "63c05f63dba0147c0bbc85f4340e78306228bf6bc9ae344186f7da6b87e19439"),
    ("hl --type A2 --lambda 0,2",
     "cfd50bd8c70582e9cd0400ee23ed4f51a4309760ea1fa0b190a8b02de13efff2"),
    ("hl --type A2 --lambda 1,1 --basis monomial",
     "53d64cc819511adc641f690f32cb96b872ddeff4a3d147dbc39c7cfbde30b4e2"),
    ("hl --type B2 --lambda 1,1",
     "6b9f609ac7896d99018383bc744162a5b8efa3b50bb2a03fef255946bf841019"),
    ("hl --type A2 --lambda 0,0",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("hl --type G2 --lambda 1,0 --method chain_restricted",
     "6fdcee9fad3fe4d0cd618f562f8ed5a078119bc29906d432bb74115ede2ea6d6"),
    ("hl --type A3 --lambda 0,1,0 --format json",
     "ebeba9d7da2b47bbe66bf31fb61adc0dbc7523cf421ce87ccfa20a3f8ac3b71e"),
    ("hl --type A3 --lambda 1,1,0",
     "26f4e05a59dbe671fd364bd920ffc53a590c476323fdbf0947f83c352461d27a"),
    ("csm --type A2 --lambda 1,1 --w s1s2",
     "d50434176028287110c96c7e2d9a35ba815cf4a2cd65318240bd2ef583a50dc4"),
    ("csm --type B3 --lambda 1,0,1 --w s1s2s3 --format json",
     "1e0d8a3d31e54396f1212ab03ebea57723dd7db5ef8e5059bca59982490d9c93"),
    ("verify --suite methods --type A2 --max-weight 1",
     "6d412e85bb8c06868449ce79c33cf80ff054471b849aad84ed5b101f756988d4"),
    ("search-positivity --type A2 --format json",
     "7d03a7024a870168df7083a34bf2757cd1b0a6a75dad3e3bd47981c00d9cbf78"),
    # the closed-form bridge, the operator route without its per-step
    # check and the single-w walk on descent masks, pinned before either
    ("chevalley --type C3 --lambda=0,2,-1 --w all --method bridge "
     "--format json",
     "e239632832f26aeca3dc1b4882ff11e3e546801a2079383e3d8c6a8de3669360"),
    ("hecke-coeffs --type B3 --lambda=2,-1,1 --w s1s2s3s2s1 --format json",
     "111c0c061eb32396ba1338a5dcd7cd0cffdc61db31b4e92cb4ca06492e7437e3"),
    ("chevalley --type F4 --lambda=1,0,0,0 --w s1s2s3s4s1s2s3s4s1s2s3s4 "
     "--method operator --format json",
     "1735730134c3432a2d2d039204e24a8af7e1e66573d03944efad7a5722adddd5"),
    ("chevalley --type B4 --lambda=1,0,0,1 --w s1s2s3s4s3s2s1 --sign - "
     "--format json",
     "88f878145f7f1dee9ba816d6e9ed61d4ededf36c5bd5b73b0b00727de2168e95"),
]


def test_cli_golden_digests():
    with mock.patch.dict(os.environ):
        os.environ.pop("CHEVMC_CACHE_DIR", None)
        for argv, digest in _GOLDEN:
            code, text = _run(argv.split())
            assert code == 0, argv
            assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


# SHA-256 of `stab` stdout over every row, pinned while the shift matrix
# was built from a dict keyed by (u, w)
_STAB_GOLDEN = [
    ("stab --type A2 --lambda=2,1",
     "b4af2a649477ac4f0fadee1bb830e359401a70b0a6f8b133bfaaa5daaf51cb5c"),
    ("stab --type A2 --lambda=2,1 --format json",
     "c590a653cb7000091cd8b0e1d7756e4d703ee614a499b6507e55e697098a2f1b"),
    ("stab --type B2 --lambda=1,1",
     "a669a77ec124bb1b2071074173d664d6f6d224716b72f9fecceae4c328afb119"),
    ("stab --type B2 --lambda=1,1 --format json",
     "eea589866982e8f4615638e274c8d66862631e85c9ba18c2279640ab4e8511bd"),
]


def test_stab_golden_digests():
    for argv, digest in _STAB_GOLDEN:
        code, text = _run(argv.split())
        assert code == 0, argv
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


def test_stab_and_schur_expansion_build_no_oracle(monkeypatch):
    # the shift matrix and the Weyl character are functions of the root
    # system: with every localization oracle made to fail, `stab` prints
    # its pinned bytes and schur_expansion expands A2 Hall-Littlewood
    # polynomials as it did when it built a KOracle
    from chevmc.localization import Localization
    from chevmc.specialfn import hall_littlewood, schur_expansion

    rs = RootSystem("A", 2)
    hl = {lam: hall_littlewood(rs, lam, "closed") for lam in ((2, 1), (1, 1))}

    def refuse(*args, **kwargs):
        raise AssertionError("a localization oracle was built")

    monkeypatch.setattr(Localization, "__init__", refuse)
    golden = dict(_GOLDEN)
    for argv in ("stab --type A2 --lambda 1,0 --w s1",
                 "stab --type G2 --lambda 1,1 --format json"):
        code, text = _run(argv.split())
        assert code == 0, argv
        assert hashlib.sha256(text.encode()).hexdigest() == golden[argv], argv
    t = Scalar.q(1)
    assert schur_expansion(rs, hl[(2, 1)]) == {
        (2, 1): Scalar.one(), (0, 2): -t, (1, 0): -t}
    assert schur_expansion(rs, hl[(1, 1)]) == {
        (1, 1): Scalar.one(), (0, 0): -(t * t + t)}


# argv fuzz over rank <= 2: each command with its own options, drawn from
# well-formed and malformed values, plus now and then an unknown option.
# `verify` (a process pool) and `--cache-dir` (writes files) are left out.
_FUZZ_COMMANDS = {
    "chevalley": ("--w", "--format", "--method", "--sign", "--word",
                  "--epsilon"),
    "hecke-coeffs": ("--w", "--format"),
    "chain": ("--format", "--word"),
    "oracle": ("--w", "--format"),
    "stab": ("--w", "--format"),
    "whittaker": ("--w", "--format"),
    "hl": ("--format", "--method", "--basis"),
    "csm": ("--w", "--format"),
    "search-positivity": ("--format",),
}
_FUZZ_WORDS = st.lists(st.integers(0, 3), max_size=7).map(
    lambda gens: "".join("s%d" % i for i in gens))
_FUZZ_VALUES = {
    "--w": st.one_of(st.sampled_from(["all", "e", "sQ", "s1*s2", ""]),
                     _FUZZ_WORDS),
    "--format": st.sampled_from(["text", "json", "latex", "xml"]),
    "--method": st.sampled_from(
        ["chain", "operator", "bridge", "solve", "pairing", "closed",
         "chain_restricted", "chain_opposite", "nope"]),
    "--sign": st.sampled_from(["+", "-", "minus", "x"]),
    "--word": st.one_of(st.sampled_from(["sx", "s0s5", ""]), _FUZZ_WORDS),
    "--basis": st.sampled_from(["schur", "monomial", "other"]),
    "--epsilon": st.none(),
    "--bogus": st.just("1"),
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    argv = [command, "--type=" + draw(st.sampled_from(
        ["A1", "A2", "B2", "C2", "G2", "A0", "B1", "D2", "G3", "Z2", "a2",
         "2A", ""]))]
    if command != "search-positivity":
        argv.append("--lambda=" + draw(st.one_of(
            st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(
                lambda lam: ",".join(map(str, lam))),
            st.sampled_from(["1,x", "1,,0", ""]))))
    options = _FUZZ_COMMANDS[command] + ("--bogus",)
    for opt in draw(st.lists(st.sampled_from(options), unique=True)):
        value = draw(_FUZZ_VALUES[opt])
        argv.append(opt if value is None else "%s=%s" % (opt, value))
    return argv


@given(_fuzz_argv())
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exit_codes(argv):
    err = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stderr(err):
        os.environ.pop("CHEVMC_CACHE_DIR", None)
        code, _ = _run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
