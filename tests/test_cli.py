"""Command-line interface: exit codes, output formats, schema, caching."""

import io
import json

import jsonschema
import pytest

from chevmc import __version__
from chevmc.cli import run
from chevmc.cache import cache_key, cache_get, cache_put
import chevmc


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


def test_search_positivity_small_types_clean():
    # negative coefficients first occur in much larger rank; A2 and B2
    # scans report nothing but must actually scan terms
    for label in ("A2", "B2"):
        code, text = _run(["search-positivity", "--type", label,
                           "--format", "json"])
        assert code == 0, label
        doc = json.loads(text)
        assert doc["scanned"] > 0 and not doc["findings"], label


def test_bad_args_exit_2(capsys):
    assert _run(["chevalley", "--type", "Z9", "--lambda", "1,0",
                 "--w", "s1"])[0] == 2
    assert _run(["chevalley", "--type", "A2", "--lambda", "1",
                 "--w", "s1"])[0] == 2
    assert _run(["chevalley", "--type", "A2", "--lambda", "1,0",
                 "--w", "sQ"])[0] == 2
    # inputs the library rejects: an error line, not a traceback
    for argv in (
        ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1",
         "--method", "operator", "--sign", "-"],
        ["whittaker", "--type", "A2", "--lambda", "1,1", "--w", "s1"],
        ["chain", "--type", "A2", "--lambda", "1,0", "--word", "s0s5"],
    ):
        capsys.readouterr()
        assert _run(argv)[0] == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


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
    payload = {"x": 1}
    cache_put(str(tmp_path), key, payload)
    assert cache_get(str(tmp_path), key) == payload
    import chevmc.cache as cache_mod

    monkeypatch.setattr(cache_mod, "__version__", __version__ + ".dev0")
    stale = cache_key("chevalley", "A", 2, (2, 1), (1, 0), "chain", None)
    assert stale != key
    assert cache_get(str(tmp_path), stale) is None


def test_cache_corrupted_entry_recomputed(tmp_path):
    argv = ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1",
            "--format", "json", "--cache-dir", str(tmp_path)]
    code, a = _run(argv)
    assert code == 0
    for f in tmp_path.iterdir():
        f.write_text("{ not json")
    code, b = _run(argv)
    assert code == 0 and a == b


@pytest.mark.parametrize("entry", ["{}", '[{"x": 1}]', '[{"u": 3}]',
                                   '[{"u": "s1", "value": "v"}]'])
def test_cache_misshaped_entry_recomputed(tmp_path, entry):
    argv = ["chevalley", "--type", "A2", "--lambda", "1,0", "--w", "s1",
            "--format", "json", "--cache-dir", str(tmp_path)]
    code, a = _run(argv)
    assert code == 0
    for f in tmp_path.iterdir():
        f.write_text(entry)
    code, b = _run(argv)
    assert code == 0 and a == b
    # the recomputed table replaced the bad entry
    code, c = _run(argv)
    assert code == 0 and a == c


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
