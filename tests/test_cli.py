import dataclasses
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc

import enum

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from quintic import radicand
from quintic.classgroup import RESIDUE_READING_NOTE
from quintic.cli import _json_text, main
from quintic.errors import InputError, InternalCheckError
from quintic.genus import absolute_genus, relative_genus
from quintic.primes import factor_radicand
from quintic.radicand import Verdict


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_classify_json_envelope(runner):
    res = invoke(runner, "classify", "95", "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["command"] == "classify"
    assert doc["result"]["verdict"] == "I"
    assert doc["warnings"]


def test_classify_fifth_power_exits_2(runner):
    res = runner.invoke(main, ["classify", "32"])
    assert res.exit_code == 2


def test_classify_none_still_reports_checks(runner):
    res = invoke(runner, "classify", "2")
    doc = json.loads(res.output)
    assert doc["result"]["verdict"] == "none"
    assert len(doc["result"]["checks"]) == 14


def test_factor_round_trip(runner):
    res = invoke(runner, "factor", "95")
    doc = json.loads(res.output)
    assert doc["result"]["factors"][0]["prime"]["p"] == 5
    assert doc["result"]["factors"][0]["exponent"] == 4


def test_symbol_command_legend_and_values(runner):
    res = invoke(runner, "symbol", "3", "11")
    doc = json.loads(res.output)
    rows = doc["result"]["symbols"]
    assert len(rows) == 4
    assert all(0 <= row["exponent"] <= 4 for row in rows)
    by_image = {tuple(row["zeta_image"]): row["exponent"] for row in rows}
    assert by_image[(3,)] == 2
    assert doc["result"]["legend"]["0"].endswith("(a is a fifth power)")


def test_symbol_accepts_coordinates(runner):
    res = invoke(runner, "symbol", "0,1,0,0", "11")
    assert res.exit_code == 0


def test_symbol_takes_a_negative_first_coordinate_without_a_separator(runner, tmp_path):
    def outcome(*args):
        res = runner.invoke(main, ["symbol", *args])
        return res.exit_code, res.stdout_bytes, res.stderr_bytes

    assert outcome("-3", "11")[0] == 0
    # -5 + zeta^2 vanishes at a prime above 11 (exit 2) and not above 41
    for a, p in (("-5,0,1,0", "11"), ("-5,0,1,0", "41"), ("-3", "11")):
        assert outcome(a, p) == outcome("--", a, p)
    out = tmp_path / "symbol.json"
    assert outcome("-5,0,1,0", "41", "--out", str(out)) == (0, b"", b"")
    assert out.read_bytes() == outcome("--", "-5,0,1,0", "41")[1]
    # an unknown option is read as the element, and refused as one
    res = runner.invoke(main, ["symbol", "--bogus", "11"])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["code"] == "input-error"


def test_symbol_coordinates_go_through_the_validating_constructor(runner):
    res = runner.invoke(main, ["symbol", "1,2,3", "11"])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"] == {
        "code": "input-error",
        "message": "expected 4 power-basis coordinates, got 3",
    }


def test_symbol_rejects_lambda(runner):
    res = runner.invoke(main, ["symbol", "3", "5"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["classify", "95", "--bogus"],
    ["classify", "abc"],
    ["selftest", "--suite", "nope"],
    ["genus", "11", "--table", "{missing}"],
    ["report"],
    ["--bogus"],
    ["--bogus", "report", "149"],
], ids=["unknown-option", "non-integer-n", "bad-suite", "missing-table", "missing-argument",
        "unknown-group-option", "unknown-group-option-before-a-command"])
def test_a_usage_error_is_an_input_error_document(runner, tmp_path, args):
    args = [a.format(missing=tmp_path / "missing.csv") for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr)["error"]["code"] == "input-error"


@pytest.mark.parametrize("cmd", ["genus", "report"])
def test_a_table_that_is_not_utf8_text_is_an_input_error(runner, tmp_path, cmd):
    table = tmp_path / "h.csv"
    table.write_bytes(b"\xff\xfe1\x001\x00,\x005\x00\n\x00")  # UTF-16 with its byte order mark
    res = runner.invoke(main, [cmd, "11", "--table", str(table)])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr)["error"] == {
        "code": "input-error",
        "message": f"{table}: not UTF-8 text (invalid start byte at byte 0)",
    }


@pytest.mark.parametrize("args", [["classify", "95"], ["enumerate", "2", "10"]], ids=["classify", "enumerate"])
def test_an_out_file_that_cannot_be_opened_is_an_input_error(runner, tmp_path, args):
    out = tmp_path / "missing-dir" / "x.json"
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr)["error"] == {
        "code": "input-error",
        "message": f"cannot open --out file {out}: No such file or directory",
    }
    assert not out.parent.exists()


@pytest.fixture
def pool_in_process(monkeypatch):
    """Two CPUs and a _RecordingPool for ProcessPoolExecutor, so --workers 2 maps in this process."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_enumerate_refuses_an_out_file_that_cannot_be_opened_before_it_classifies(
        runner, monkeypatch, tmp_path, pool_in_process, workers):
    import quintic.radicand

    calls = record_calls(monkeypatch, quintic.radicand.classify_factored)
    out = tmp_path / "missing-dir" / "x.jsonl"
    res = runner.invoke(main, ["enumerate", "2", "100000", "--workers", workers, "--out", str(out)])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr)["error"] == {
        "code": "input-error",
        "message": f"cannot open --out file {out}: No such file or directory",
    }
    assert calls == [] and _RecordingPool.sizes == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failed_enumerate_window_leaves_its_out_file_as_it_was(runner, tmp_path, pool_in_process, workers):
    # the first of the three chunks holds n = 1000003 * 1000033, which cannot be certified
    out = tmp_path / "rows.jsonl"
    out.write_bytes(b'{"n": 2}\nan earlier run\n')
    res = runner.invoke(main, ["enumerate", "1000036000000", "1000036000600", "--workers", workers,
                               "--out", str(out)])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr)["error"]["code"] == "uncertified-factorization"
    assert _RecordingPool.sizes == ([2] if workers == "2" else [])
    assert out.read_bytes() == b'{"n": 2}\nan earlier run\n'


@pytest.mark.parametrize("args", [["classify", "95"], ["enumerate", "2", "300"], ["enumerate", "2", "300", "--csv"]])
def test_an_out_file_holds_exactly_what_stdout_would(runner, tmp_path, args):
    out = tmp_path / "x"
    out.write_bytes(b"a longer earlier file\n" * 2000)
    res = invoke(runner, *args, "--out", str(out))
    assert (res.exit_code, res.stdout_bytes, res.stderr_bytes) == (0, b"", b"")
    assert out.read_bytes() == invoke(runner, *args).stdout_bytes
    # a device such as /dev/null cannot be truncated, and is still a valid --out
    assert invoke(runner, *args, "--out", os.devnull).exit_code == 0


def _injected_fault(*args):
    raise InternalCheckError("injected fault")


@pytest.mark.parametrize("target, args", [
    ("quintic.radicand.classify", ["classify", "95"]),
    ("quintic.radicand.classify_factored", ["enumerate", "2", "50"]),
    ("quintic.primes.factor_radicand", ["factor", "95"]),
    ("quintic.primes.factor_radicand", ["report", "149"]),
    ("quintic.symbols.quintic_symbol", ["symbol", "3", "11"]),
    ("quintic.genus.build_genus_report", ["genus", "11"]),
], ids=["classify", "enumerate", "factor", "report", "symbol", "genus"])
def test_an_internal_check_failure_is_an_error_document(runner, monkeypatch, target, args):
    monkeypatch.setattr(target, _injected_fault)
    res = runner.invoke(main, args)
    assert res.exit_code == 1 and res.stdout_bytes == b""
    assert json.loads(res.stderr)["error"] == {"code": "internal-check-failed", "message": "injected fault"}


@pytest.mark.parametrize("target, path", [
    ("quintic.genus.build_genus_report", ["genus"]),
    ("quintic.genus.corollary_report", ["corollary"]),
    ("quintic.classgroup.generator_certificate", ["capitulation", "certificate"]),
], ids=["genus", "corollary", "certificate"])
def test_a_failing_report_section_is_embedded_as_an_error_document(runner, monkeypatch, target, path):
    args = ["report", "149", "--h-gamma", "5"]
    want = json.loads(invoke(runner, *args).output)
    assert RESIDUE_READING_NOTE in want["warnings"]
    monkeypatch.setattr(target, _injected_fault)
    res = runner.invoke(main, args)
    assert res.exit_code == 0 and res.stderr_bytes == b""
    section = want["result"]
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = {"error": {"code": "internal-check-failed", "message": "injected fault"}}
    if path[-1] == "certificate":
        want["warnings"].remove(RESIDUE_READING_NOTE)
    assert json.loads(res.output) == want


@pytest.mark.parametrize("args", [
    ["classify", "95"],
    ["classify", "32"],
    ["factor", "95"],
    ["symbol", "3", "11"],
    ["genus", "11"],
    ["report", "149"],
    ["enumerate", "2", "50"],
    ["selftest", "--suite", "capitulation"],
], ids=["classify", "classify-error", "factor", "symbol", "genus", "report", "enumerate", "selftest"])
def test_the_json_and_quiet_flags_change_nothing(runner, args):
    def outcome(args):
        res = runner.invoke(main, args)
        return res.exit_code, res.stdout_bytes, res.stderr_bytes

    plain = outcome(args)
    assert outcome(["--quiet", *args]) == plain
    if args[0] in ("classify", "factor", "symbol", "genus"):
        assert outcome([*args, "--json"]) == plain


@pytest.mark.parametrize("args, head", [
    ([], "Usage:"), (["--help"], "Usage:"), (["report", "--help"], "Usage:"), (["--version"], "main, version"),
])
def test_help_and_version_keep_click_text(runner, args, head):
    assert runner.invoke(main, args).output.startswith(head)


def test_report_149(runner):
    res = invoke(runner, "report", "149")
    doc = json.loads(res.output)
    r = doc["result"]
    assert r["radicand"]["verdict"] == "III"
    assert r["genus"]["d"] == 2 and r["genus"]["qstar_inferred"] == 2
    assert r["capitulation"]["admissible_types"] == [
        [0, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 1, 1],
        [1, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
    ]
    assert r["capitulation"]["tau2_permutation"] == [1, 2, 6, 5, 4, 3]
    assert any("involution" in w for w in doc["warnings"])


def test_report_95(runner):
    res = invoke(runner, "report", "95")
    r = json.loads(res.output)["result"]
    assert r["radicand"]["verdict"] == "I"
    assert r["genus"]["d"] == 3 and r["genus"]["qstar_inferred"] == 1


def test_report_contradiction_is_surfaced_not_fatal(runner):
    res = invoke(runner, "report", "341", "--h-gamma", "5")
    assert res.exit_code == 0
    r = json.loads(res.output)["result"]
    assert r["corollary"]["error"]["code"] == "contradiction-witness"


def test_report_with_class_number_table(runner, tmp_path):
    table = tmp_path / "h.csv"
    table.write_text("# demo\n11,5\n")
    res = invoke(runner, "report", "11", "--table", str(table))
    r = json.loads(res.output)["result"]
    assert r["corollary"]["five_divides_exactly"] is True


@pytest.mark.parametrize("cmd", ["genus", "report"])
@pytest.mark.parametrize("h", ["-5", "0"])
def test_a_class_number_below_1_is_an_input_error(runner, cmd, h):
    res = runner.invoke(main, [cmd, "95", "--h-gamma", h])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr_bytes)["error"]["code"] == "input-error"


@pytest.mark.parametrize("cmd", ["genus", "report"])
@pytest.mark.parametrize("line", ["95,-10", "95,0", "11,0"])
def test_a_table_with_a_class_number_below_1_is_an_input_error(runner, tmp_path, cmd, line):
    # a bad line is refused whichever n it names, as a malformed line is
    table = tmp_path / "h.csv"
    table.write_text(f"# demo\n{line}\n")
    res = runner.invoke(main, [cmd, "95", "--table", str(table)])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr_bytes)["error"]["code"] == "input-error"


@pytest.mark.parametrize("cmd", ["genus", "report"])
def test_a_given_table_is_checked_even_with_h_gamma(runner, tmp_path, cmd):
    # --h-gamma takes precedence over the table's line, but the table is still read
    bad = tmp_path / "bad.csv"
    bad.write_text("11;5\n")
    res = runner.invoke(main, [cmd, "11", "--h-gamma", "5", "--table", str(bad)])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr_bytes)["error"]["code"] == "input-error"
    good = tmp_path / "h.csv"
    good.write_text("11,25\n")
    res = invoke(runner, cmd, "11", "--h-gamma", "5", "--table", str(good))
    assert json.loads(res.output)["input"]["h_gamma"] == 5


@pytest.mark.parametrize("cmd", ["factor", "classify", "genus"])
def test_a_strong_pseudoprime_to_twelve_bases_is_not_taken_for_a_prime(runner, cmd):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37
    res = runner.invoke(main, [cmd, "318665857834031151167461"])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr_bytes)["error"]["code"] == "uncertified-factorization"


def test_genus_command(runner):
    res = invoke(runner, "genus", "149")
    doc = json.loads(res.output)
    assert doc["result"]["qstar_inferred"] == 2
    assert doc["result"]["relative_candidates"]


def test_genus_at_the_period_prime_cap(runner):
    # 99991 was the largest p under the former cap p <= 100000; 100151 lies above it
    for p in (99991, 100151):
        res = invoke(runner, "genus", str(p))
        assert res.exit_code == 0
        doc = json.loads(res.output)["result"]
        assert doc["r"] == 1 and doc["absolute_components"][0]["p"] == p


def test_report_is_deterministic(runner):
    a = invoke(runner, "report", "95").output
    b = invoke(runner, "report", "95").output
    assert a == b


def test_enumerate_jsonl_round_trip(runner):
    res = invoke(runner, "enumerate", "2", "100", "--form", "I")
    lines = res.output.splitlines()
    rows = [json.loads(line) for line in lines]
    assert [r["n"] for r in rows] == [95]
    assert rows[0]["verdict"] == "I"


def test_enumerate_ascending_and_skipping(runner):
    res = invoke(runner, "enumerate", "2", "100")
    ns = [json.loads(line)["n"] for line in res.output.splitlines()]
    assert ns == sorted(ns)
    assert 32 not in ns


def test_enumerate_csv_header(runner):
    res = invoke(runner, "enumerate", "2", "40", "--csv")
    lines = res.output.splitlines()
    assert lines[0].startswith("n,verdict,e,p,q,no-prime-factor-1-mod-5")
    assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines)


@pytest.fixture(scope="module")
def forms_up_to_1e5():
    """Oracle for enumerate over [2, 10^5]: classify per n, the fifth powers skipped."""
    forms = []
    for n in range(2, 10**5 + 1):
        try:
            forms.append(radicand.classify(n))
        except radicand.NotFifthPowerFree:
            pass
    return forms


@pytest.mark.parametrize("args", [
    ["--jsonl"], ["--csv"], ["--csv", "--form", "I"], ["--jsonl", "--form", "II"], ["--jsonl", "--form", "III"],
    pytest.param(["--jsonl", "--form", "none", "--workers", "2"],
                 marks=pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for a 2-process pool")),
], ids=" ".join)
def test_enumerate_up_to_1e5_is_the_per_n_classification(runner, forms_up_to_1e5, args):
    # the sieved windows and the windows classified n by n give the lines classify gives per n
    verdict = Verdict(args[args.index("--form") + 1]) if "--form" in args else None
    forms = [form for form in forms_up_to_1e5 if verdict is None or form.verdict is verdict]
    if "--csv" in args:
        want = "".join([radicand.CSV_HEADER + "\n", *(form.csv_row() + "\n" for form in forms)])
    else:
        want = "".join([form.json_line() + "\n" for form in forms])
    res = invoke(runner, "enumerate", "2", str(10**5), *args)
    assert (res.exit_code, res.stderr_bytes) == (0, b"")
    assert res.stdout_bytes == want.encode()


#: sha256 of the output of `enumerate 2 5000 --form F` as JSONL and as CSV, recorded while
#: every row was still written from a RadicandForm
_FILTERED_DIGESTS = {
    ("I", "--jsonl"): "731af24fc423c9d563fe40b71a859b2610926cac6905ac366b030562e1b38078",
    ("I", "--csv"): "59e51121526361c5d5d315af533298a909718141bcbd58eea16dcd53b29e60ce",
    ("II", "--jsonl"): "1ca042d3fe608582c5c4e6f866692a7db691e93e6cff8f6a7cacd614a6108ea2",
    ("II", "--csv"): "2838ab7264087e25ad8661564e4e25163deb6a38d0b13b560807321532e95d36",
    ("III", "--jsonl"): "5f68e30da58eb287243d2621d9843ee582563c1bfc8caca96eabc54b33ea2643",
    ("III", "--csv"): "52cc99327b3814da6438769f08f32617914746fb9083eef0528038e69cf74963",
    ("none", "--jsonl"): "d98eada66d84701e003bbedce0197582decf12a98e462729ecc698eff80ce957",
    ("none", "--csv"): "abc8e00f11f7532d1be49c3ad6b33eefd67caa937f926f71b4a2b21ec02ee120",
}


@pytest.mark.parametrize("form, fmt", _FILTERED_DIGESTS, ids=[f"{form}-{fmt[2:]}" for form, fmt in _FILTERED_DIGESTS])
def test_a_filtered_enumerate_writes_only_the_rows_it_keeps(runner, monkeypatch, form, fmt):
    # the verdict is read off the compact ledger first: the row writer runs once per written
    # row, and no RadicandForm is built, for a dropped n or a kept one
    written = record_calls(monkeypatch, radicand.ledger_json if fmt == "--jsonl" else radicand.ledger_csv)
    built = []
    init = radicand.RadicandForm.__init__
    monkeypatch.setattr(radicand.RadicandForm, "__init__", lambda self, n, *args: built.append(n) or init(self, n, *args))
    res = invoke(runner, "enumerate", "2", "5000", "--form", form, fmt)
    assert (res.exit_code, res.stderr_bytes, built) == (0, b"", [])
    rows = res.stdout.splitlines()
    kept = [int(row.split(",")[0]) for row in rows[1:]] if fmt == "--csv" else [json.loads(row)["n"] for row in rows]
    assert written == kept and len(kept) > 10
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _FILTERED_DIGESTS[form, fmt]


def test_enumerate_refuses_an_uncertifiable_n_without_the_fifth_power_loop(runner, monkeypatch):
    # 10^38 + 7 = 751 * m with m below 10^36: one integer fifth root of m decides it
    calls = record_calls(monkeypatch, radicand.is_fifth_power_free)
    n = str(10**38 + 7)
    res = runner.invoke(main, ["enumerate", n, n])
    assert (res.exit_code, res.stdout_bytes, calls) == (2, b"", [])
    assert res.stderr_bytes == (
        b'{\n  "error": {\n    "code": "desk-bound-exceeded",\n'
        b'    "message": "primality of 133155792276964047936085219707057257 cannot be certified'
        b' deterministically"\n  }\n}\n'
    )


def test_enumerate_refuses_an_n_with_a_rest_above_1e36_by_block_gcds(runner, monkeypatch):
    # 10^38 - 1 = 3^2 * 11 * m with m about 1.01 * 10^36: the primes in
    # (10^6, m^(1/5)] are sieved in blocks, and no k^5 loop runs
    calls = record_calls(monkeypatch, radicand.is_fifth_power_free)
    n = str(10**38 - 1)
    res = runner.invoke(main, ["enumerate", n, n])
    assert (res.exit_code, res.stdout_bytes, calls) == (2, b"", [])
    assert res.stderr_bytes == (
        b'{\n  "error": {\n    "code": "desk-bound-exceeded",\n'
        b'    "message": "primality of 1010101010101010101010101010101010101 cannot be certified'
        b' deterministically"\n  }\n}\n'
    )


def test_enumerate_invalid_range_exits_2(runner):
    res = runner.invoke(main, ["enumerate", "100", "2"])
    assert res.exit_code == 2


def test_enumerate_uncertified_window_exits_2_with_the_error(runner):
    n = 1000003 * 1000033
    res = runner.invoke(main, ["enumerate", str(n - 5), str(n + 5)])
    assert res.exit_code == 2
    assert res.stdout_bytes == b""
    assert res.stderr_bytes == (
        b'{\n  "error": {\n    "code": "uncertified-factorization",\n'
        b'    "message": "cofactor 1000036000099 of 1000036000099 is composite and beyond'
        b' the trial-division bound"\n  }\n}\n'
    )


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("form", ["I", "II", "III", "none"])
def test_a_filtered_uncertified_window_fails_as_the_unfiltered_one(runner, form, workers):
    # the window holds n = 1000003 * 1000033, which is 24 mod 25: outside the
    # classes of Forms I and II, yet it must still be factored and refused
    window = ["enumerate", "1000036000090", "1000036000110"]
    res = runner.invoke(main, [*window, "--form", form, "--workers", workers])
    unfiltered = runner.invoke(main, window)
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr_bytes)["error"]["code"] == "uncertified-factorization"
    assert res.stderr_bytes == unfiltered.stderr_bytes


def test_a_serial_enumerate_does_not_ask_for_the_cpu_count(runner, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "cpu_count", lambda: calls.append(None) or 4)
    for args in (["enumerate", "2", "2000"], ["enumerate", "2", "2000", "--workers", "1"]):
        assert invoke(runner, *args).exit_code == 0
    assert calls == []


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for a 2-process pool")
@pytest.mark.parametrize("form", ["I", "II", "III"])
def test_a_filtered_window_near_1e12_is_the_same_for_any_worker_count(runner, form):
    window = ["enumerate", str(10**12), str(10**12 + 2000), "--form", form]
    out = {}
    for fmt in ("--jsonl", "--csv"):
        for workers in ("1", "2"):
            res = invoke(runner, *window, fmt, "--workers", workers)
            assert res.exit_code == 0 and res.stderr_bytes == b""
            out[fmt, workers] = res.stdout_bytes
        assert out[fmt, "1"] == out[fmt, "2"]
    jsonl_n = [json.loads(line)["n"] for line in out["--jsonl", "1"].splitlines()]
    csv_n = [int(line.split(b",")[0]) for line in out["--csv", "1"].splitlines()[1:]]
    assert jsonl_n and jsonl_n == csv_n


def test_enumerate_resume_from(runner):
    full = invoke(runner, "enumerate", "2", "200").output.splitlines()
    resumed = invoke(runner, "enumerate", "2", "200", "--from", "100").output.splitlines()
    tail = [line for line in full if json.loads(line)["n"] >= 100]
    assert resumed == tail


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, cpus, hi, want",
    [
        (64, 4, 700, 3),  # 3 chunks of 256
        (64, 2, 2000, 2),  # 8 chunks, 2 CPUs
        (3, 8, 2000, 3),
        (64, None, 2000, None),  # cpu_count unknown: serial, no pool
        (64, 4, 200, None),  # one chunk: serial, no pool
    ],
)
def test_enumerate_workers_are_clamped(runner, monkeypatch, workers, cpus, hi, want):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    parallel = invoke(runner, "enumerate", "2", str(hi), "--workers", str(workers)).output
    assert _RecordingPool.sizes == ([] if want is None else [want])
    assert parallel == invoke(runner, "enumerate", "2", str(hi)).output


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for a 2-process pool")
@pytest.mark.parametrize("fmt", ["--jsonl", "--csv"])
def test_enumerate_with_a_real_process_pool_matches_serial(runner, monkeypatch, fmt):
    import concurrent.futures

    pids = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        """The real executor, recording the worker processes that served the map."""

        def map(self, fn, *iterables):
            out = list(super().map(fn, *iterables))
            pids.extend(self._processes)
            return out

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    res = runner.invoke(main, ["enumerate", "2", "1000", fmt, "--workers", "2"], catch_exceptions=False)
    serial = runner.invoke(main, ["enumerate", "2", "1000", fmt], catch_exceptions=False)
    assert len(pids) == 2 and os.getpid() not in pids
    assert (res.exit_code, res.stdout_bytes, res.stderr_bytes) == (0, serial.stdout_bytes, b"")
    assert serial.exit_code == 0 and serial.stderr_bytes == b""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for a 2-process pool")
def test_a_refusal_in_a_real_process_pool_fails_as_in_serial(runner):
    # the refusal of n = 1000003 * 1000033 carries its split back from a worker process
    window = ["enumerate", "1000036000000", "1000036000600"]
    pooled = runner.invoke(main, [*window, "--workers", "2"])
    serial = runner.invoke(main, [*window, "--workers", "1"])
    assert serial.exit_code == 2 and serial.stdout_bytes == b""
    assert json.loads(serial.stderr)["error"]["code"] == "uncertified-factorization"
    assert (pooled.exit_code, pooled.stdout_bytes, pooled.stderr_bytes) == (
        serial.exit_code, serial.stdout_bytes, serial.stderr_bytes)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_1_is_an_input_error(runner, monkeypatch, workers):
    calls = []
    monkeypatch.setattr(radicand, "enumerate_ledgers", lambda *args: calls.append(args) or iter(()))
    res = runner.invoke(main, ["enumerate", "2", "1000", "--workers", workers])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    assert json.loads(res.stderr_bytes)["error"] == {
        "code": "input-error", "message": f"--workers must be >= 1, got {workers}"}
    assert calls == []


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["--jsonl", "--csv"])
def test_enumerate_holds_the_text_of_each_row_once(runner, tmp_path, fmt):
    # the written text is in memory once, not also as a joined copy and a copy with the header
    out = tmp_path / "rows"
    res, peak = _traced_peak(lambda: invoke(runner, "enumerate", "2", "20000", fmt, "--out", str(out)))
    assert res.exit_code == 0
    assert peak <= 1.25 * out.stat().st_size


class _SubmittingPool(_RecordingPool):
    """A stand-in pool that takes in all its items before mapping, as Executor.map submits them."""

    def map(self, fn, items):
        return map(fn, list(items))


def test_a_wide_window_is_not_split_into_chunks_up_front(runner, monkeypatch):
    # 10^8 n are about 390,000 chunks of 256, and 10^22 n more chunks than
    # len() of a range can count; the first chunk fails. 10^22 comes second,
    # so code that lists the chunks fails at 10^8 before it tries to list 10^22.
    # With 2 workers the pool takes in whatever it is handed in one go.
    import concurrent.futures

    def refuse(lo, hi, verdict):
        raise InputError(f"refused [{lo}, {hi}]")

    monkeypatch.setattr(radicand, "enumerate_ledgers", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SubmittingPool)
    monkeypatch.setattr(_SubmittingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in ("1", "2"):
        for hi in (10**8 + 1, 10**22):
            run = ["enumerate", "2", str(hi), "--workers", workers]
            res, peak = _traced_peak(lambda: runner.invoke(main, run))
            assert res.exit_code == 2 and res.stdout_bytes == b"", (workers, hi)
            assert json.loads(res.stderr_bytes)["error"]["message"] == "refused [2, 257]"
            assert peak < 2**20, (workers, hi)
    assert _SubmittingPool.sizes == [2, 2]


def test_in_process_invocations_retain_no_memory(runner):
    def retained_after(calls):
        for _ in range(calls):
            runner.invoke(main, ["classify", "95"])
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        base = retained_after(50)  # warm caches and lazy imports
        grown = retained_after(300) - base
    finally:
        tracemalloc.stop()
    # a stream wrapper cached per invocation retains about 5 KB each
    assert grown < 300 * 256


def _classified(count):
    from quintic.radicand import Verdict, classify, is_fifth_power_free

    out, n = [], 2
    while len(out) < count:
        if is_fifth_power_free(n) and classify(n).verdict is not Verdict.NONE:
            out.append(n)
        n += 1
    return out


def test_report_memo_tables_are_bounded(runner):
    # 400 distinct classified radicands, nearly one new prime each: with
    # unbounded memo tables in primes and symbols every new prime stays
    # cached (about 1 KB per report); bounded tables only replace entries
    ns = _classified(400)

    def retained_after(batch):
        for n in batch:
            assert runner.invoke(main, ["report", str(n)]).exit_code == 0
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    # start empty, so that every entry a table evicts was allocated under tracemalloc
    for name, mod in list(sys.modules.items()):
        if name.startswith("quintic."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    tracemalloc.start()
    try:
        base = retained_after(ns[:100])  # fills every table past its bound
        grown = retained_after(ns[100:]) - base
    finally:
        tracemalloc.stop()
    assert grown < 300 * 256


def test_importing_the_cli_loads_no_multiprocessing():
    code = (
        "import sys, quintic.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    assert res.stdout.strip() == "[]"


def test_importing_the_cli_runs_no_classgroup_oracle():
    # report's capitulation lists are built from literals, so a fresh import
    # calls none of the functions the capitulation suite checks them against;
    # the CLI imports classgroup only when report runs, so the probe imports it
    code = (
        "import sys\n"
        "called = set()\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_filename.endswith('classgroup.py'):\n"
        "        called.add(frame.f_code.co_name)\n"
        "sys.setprofile(watch)\n"
        "import quintic.cli\n"
        "import quintic.classgroup\n"
        "sys.setprofile(None)\n"
        "print(*sorted(called))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    called = set(res.stdout.split())
    assert "<module>" in called  # the probe saw classgroup being imported
    assert called.isdisjoint({"canonical_model", "build_lattice", "tau2_permutation",
                              "enumerate_capitulation_types", "model_survey", "mat_mul", "mat_vec"})


def record_calls(monkeypatch, orig):
    """Records the first argument of every call of orig, through every module binding of it."""
    calls = []

    def recording(n, *args, **kwargs):
        calls.append(n)
        return orig(n, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "quintic" or name.startswith("quintic."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, recording)
    return calls


@pytest.fixture
def factorize_calls(monkeypatch):
    import quintic.intarith

    return record_calls(monkeypatch, quintic.intarith.factorize)


_CLASSIFIED = [95, 475, 57, 1682, 149, 149**3, 599]


@pytest.mark.parametrize("n", _CLASSIFIED)
def test_report_factors_the_radicand_once(runner, factorize_calls, n):
    res = invoke(runner, "report", str(n))
    assert json.loads(res.output)["result"]["capitulation"]["form"] in ("I", "II", "III")
    assert factorize_calls == [n]


@pytest.mark.parametrize("n", _CLASSIFIED)
def test_report_counts_ramified_primes_once(runner, monkeypatch, n):
    import quintic.genus

    calls = record_calls(monkeypatch, quintic.genus.count_ramified_d)
    res = invoke(runner, "report", str(n))
    assert json.loads(res.output)["result"]["genus"]["qstar_inferred"] in (0, 1, 2)
    assert [form.n for form in calls] == [n]


@pytest.mark.parametrize("n", [11**5, 32 * 100151])
def test_genus_refuses_a_fifth_power_before_any_period_polynomial(runner, monkeypatch, n):
    import quintic.genus

    calls = record_calls(monkeypatch, quintic.genus.period_polynomial)
    res = runner.invoke(main, ["genus", str(n)])
    assert res.exit_code == 2
    assert json.loads(res.stderr_bytes)["error"]["code"] == "not-fifth-power-free"
    assert calls == []


@pytest.mark.parametrize("p, c", [(11, 2), (31, 3), (1021, 7), (2011, 38), (99991, 4)])
def test_genus_factors_n_once_and_p_minus_1_never(runner, factorize_calls, p, c):
    # the period polynomial comes from a Jacobi sum, which needs no primitive root
    res = invoke(runner, "genus", str(p * c))
    assert json.loads(res.output)["result"]["r"] == 1
    assert factorize_calls == [p * c]


def test_enumerate_out_file(runner, tmp_path):
    out = tmp_path / "rows.jsonl"
    res = invoke(runner, "enumerate", "2", "50", "--out", str(out))
    assert res.output == ""
    assert out.read_text().count("\n") == len(out.read_text().splitlines())


def test_report_capitulation_wire_shape(runner):
    res = invoke(runner, "report", "57")
    cap = json.loads(res.output)["result"]["capitulation"]
    assert set(cap) == {"n", "form", "admissible_types", "certificate", "tau2_permutation", "subgroups"}
    assert cap["form"] == "II"
    assert cap["certificate"]["form"] == "II"
    assert len(cap["subgroups"]) == 6
    assert cap["subgroups"][0]["field"].startswith("K1")


def test_report_for_unclassified_n_has_no_capitulation_section(runner):
    res = invoke(runner, "report", "6")
    r = json.loads(res.output)["result"]
    assert r["radicand"]["verdict"] == "none"
    assert r["capitulation"] is None


def test_selftest_single_suite(runner):
    res = runner.invoke(main, ["selftest", "--suite", "capitulation"])
    assert res.exit_code == 0
    assert "suite capitulation" in res.output and "0 failures" in res.output


def test_selftest_reports_failing_suites_by_name(runner, monkeypatch):
    from quintic import selftest as st_mod

    def broken():
        res = st_mod.SuiteResult("capitulation")
        res.note(False, "injected fault")
        return res

    monkeypatch.setitem(st_mod.SUITES, "capitulation", broken)
    res = runner.invoke(main, ["selftest", "--suite", "capitulation"])
    assert res.exit_code == 1
    assert "suite capitulation" in res.output and "FAIL" in res.output
    assert "injected fault" in res.output


def test_selftest_surfaces_unexpected_symbol_errors(runner, monkeypatch):
    from quintic import symbols

    real = symbols.quintic_symbol

    def faulty(a, q):
        # the multiplicativity products are the suite's only inputs with a
        # coordinate above 100
        if max(abs(c) for c in a.c) > 100:
            raise InternalCheckError("injected fault")
        return real(a, q)

    monkeypatch.setattr(symbols, "quintic_symbol", faulty)
    res = runner.invoke(main, ["selftest", "--suite", "symbols"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == {"code": "internal-check-failed", "message": "injected fault"}


def test_selftest_summary_pin(runner):
    res = runner.invoke(main, ["selftest"])
    assert (res.exit_code, res.stderr) == (0, "")
    assert res.stdout.splitlines() == [
        "suite ring: 12800 checks, 0 failures [ok]",
        "suite splitting: 1504 checks, 0 failures [ok]",
        "suite symbols: 2937 checks, 0 failures [ok]",
        "suite periods: 22 checks, 0 failures [ok]",
        "suite classifier: 77148 checks, 0 failures [ok]",
        "suite capitulation: 11 checks, 0 failures [ok]",
    ]


# The CLI's JSON writer against its oracle, json.dumps(indent=2): strings with
# quotes, backslashes, control, non-ASCII, astral and lone surrogate characters;
# ints past 2^64 either way; containers nested at least 6 deep.
_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\xe9\u2028\ud800\U0001f600'),
                          st.characters()), max_size=8)
_ints = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200),
                  st.integers(min_value=-(2**200), max_value=-(2**64)))
_leaves = st.one_of(st.none(), st.booleans(), _ints, _text)
_flat = st.one_of(_leaves, st.lists(_text, max_size=4), st.lists(_ints, max_size=4))
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(_text, max_size=4),
                           st.lists(_ints, max_size=4), st.dictionaries(_text, kids, max_size=4)),
    max_leaves=8,
)


@st.composite
def _documents(draw):
    doc = draw(_trees)
    for _ in range(draw(st.integers(6, 9))):
        siblings = draw(st.lists(_flat, max_size=2))
        at = draw(st.integers(0, len(siblings)))
        values = [*siblings[:at], doc, *siblings[at:]]
        if draw(st.booleans()):
            doc = values
        else:
            keys = draw(st.lists(_text, min_size=len(values), max_size=len(values), unique=True))
            doc = dict(zip(keys, values))
    return doc


@given(_documents())
def test_json_writer_matches_the_json_module(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_json_writer_matches_the_json_module_100_deep():
    doc = ["leaf", 2**70, None]
    for depth in range(100):
        doc = {"depth": depth, "inner": doc, "flags": [True, False]} if depth % 2 else [doc, -depth, "\u00e9"]
    assert _json_text(doc) == json.dumps(doc, indent=2)


class _Small(enum.IntEnum):
    ONE = 1


class _Word(str):
    pass


# encode_basestring_ascii refuses an int key by itself, but writes a str subclass
@pytest.mark.parametrize("doc", [{"x": 1.5}, [0.0], {"x": (1, 2)}, (1,), {1: "a"}, {"x": _Small.ONE},
                                 ["a", 1.5], [{"x": {2: 0}}], [_Small.ONE], {"a": "b", "c": (1,)},
                                 {_Word("x"): 1}],
                         ids=["float-value", "float-item", "tuple-value", "tuple", "int-key", "int-subclass",
                              "float-after-str", "int-key-nested", "int-subclass-item", "tuple-after-str",
                              "str-subclass-key"])
def test_json_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        _json_text(doc)


def csv_row_from_dict(row):
    """Oracle: the CSV row as the CLI built it from to_json()."""
    cells = [str(row["n"]), row["verdict"], *("" if row[k] is None else str(row[k]) for k in ("e", "p", "q"))]
    by_name = {c["name"]: c for c in row["checks"]}
    for name in radicand.CHECK_NAMES:
        cells.append("pass" if by_name[name]["passed"] else "fail")
    return ",".join(cells)


#: n of Form I shape with p < 5, where 5 is the second prime of the factorization; 5 | n
#: with p^2, which lacks the Form I shape; and the least n of Form II shape = 6 and 11 mod 25
_SHAPE_EDGE_CASES = (*(c * 5**e for c in (2, 3) for e in range(1, 5)), 5 * 19**2, 5**3 * 29**2,
                     19**2 * 71, 19**2 * 101)


def _ledger_cases():
    """(n, fac, ledger) as enumerate_ledgers gives them, one per n % 25 and pattern of passed
    flags over 2..20000, then each of _SHAPE_EDGE_CASES."""
    found = {}
    for n, fac, ledger in radicand.enumerate_ledgers(2, 20000):
        form = radicand.classify(n)
        found.setdefault((n % 25, tuple(passed for passed, _ in form.checks)), (n, fac, ledger))
    return [*found.values(), *(next(radicand.enumerate_ledgers(n, n)) for n in _SHAPE_EDGE_CASES)]


def _ledger_variants(form):
    """form, a form with equal copies of its rows, and forms with differing shape witnesses,
    with one row after a shape row changed and with one shape row's flag flipped."""
    yield form
    # equal rows and witnesses, none of them the object the ledger shares
    yield dataclasses.replace(form, checks=tuple((passed, witness.encode().decode()) for passed, witness in form.checks))
    edits = [{1: ('1 "x"', False), 5: ("2 \\ \n", False), 11: ("3 \u00e9\U0001d4b3", False)},
             {11: ("3", False)}, {1: ("1", False)}, {2: ("x", False)}, {10: ("x", False)}, {13: ("x", False)},
             {1: ("", True)}, {5: ("", True)}, {11: ("", True)}]
    for edit in edits:
        checks = list(form.checks)
        for i, (text, flip) in edit.items():
            checks[i] = (checks[i][0] != flip, checks[i][1] + text)
        yield dataclasses.replace(form, checks=tuple(checks))


def test_json_line_and_csv_row_match_their_oracles_on_every_ledger_pattern():
    # enumerate's writers from the compact ledger, and the form's own row-by-row writers
    names = radicand.CHECK_NAMES
    no_shape, shaped, family_rows = set(), set(), set()
    for n, fac, ledger in _ledger_cases():
        base = radicand.classify(n)
        assert fac == base.factorization, n
        row = base.to_json()
        assert radicand.ledger_json(n, ledger) == json.dumps(row, separators=(",", ":")), n
        assert radicand.ledger_csv(n, ledger) == csv_row_from_dict(row), n
        for form in _ledger_variants(base):
            row = form.to_json()
            assert form.json_line() == json.dumps(row, separators=(",", ":")), form
            assert form.csv_row() == csv_row_from_dict(row), form
        flags = dict(zip(names, (passed for passed, _ in base.checks)))
        shape = next((name[:5] for name in names if "shape" in name and flags[name]), None)
        if shape is None:
            no_shape.add((n % 25, flags[names[0]]))
        else:
            shaped.add((shape, n % 25, base.verdict))
            family_rows.update((name, flags[name]) for name in names if name.startswith(shape))
    # every n % 25 lacking every shape, with and without a prime = 1 mod 5 dividing n
    assert no_shape == {(r, passed) for r in range(25) for passed in (True, False)}
    # each family shape at every n % 25 it can take, with its rows passing and failing:
    # 5 | n for Form I, and 5 does not divide n = p^e * q or p^e
    assert {(shape, r) for shape, r, _ in shaped} == {
        (f"form{i}", r) for i in (1, 2, 3) for r in range(25) if (r % 5 == 0) == (i == 1)}
    assert {(shape, verdict) for shape, _, verdict in shaped} == {
        (f"form{i}", verdict) for i, family in enumerate(("I", "II", "III"), 1)
        for verdict in (Verdict(family), Verdict.NONE)}
    # each row of a family whose shape n has, passing and failing, but the shape row, which
    # passes, form1-n-not-pm1pm7-mod-25, which 5 | n passes, and form2-p-4-mod-5, which
    # names the prime = 4 mod 5
    always = {"form1-shape-5e-p", "form2-shape-pe-q", "form3-shape-pe", "form1-n-not-pm1pm7-mod-25",
              "form2-p-4-mod-5"}
    assert family_rows == {(name, passed) for name in names[1:] for passed in (True, False)
                           if passed or name not in always}
    # 2 * 5^e and 3 * 5^e have the Form I shape; 5 | n with p^2 lacks it
    assert [radicand.classify(n).checks[1][0] for n in _SHAPE_EDGE_CASES[:10]] == [True] * 8 + [False, False]


def _contract_radicands():
    """The README's radicands 95 (I), 57 (II), 149 (III), 341 = 11 * 31 (none)
    and 11, then one seeded n of each verdict from a seeded window above 10^5."""
    rng = random.Random(2027)
    lo = rng.randrange(10**5, 2 * 10**5)
    window = list(radicand.enumerate_radicands(lo, lo + 5000))
    return [95, 57, 149, 341, 11, *(rng.choice([f.n for f in window if f.verdict is v]) for v in Verdict)]


def test_the_section_builders_return_the_documents_the_commands_print(runner):
    forms = [radicand.classify(n) for n in _contract_radicands()]
    assert {f.verdict for f in forms} == set(Verdict)
    assert sum(p % 5 == 1 for f in forms for p in f.factorization) >= 3
    for form in forms:
        n = str(form.n)
        factored = json.loads(invoke(runner, "factor", n).output)["result"]
        genus_doc = json.loads(invoke(runner, "report", n).output)["result"]["genus"]
        assert factor_radicand(form.n, form.factorization) == factored, n
        assert absolute_genus(form) == genus_doc["absolute_components"], n
        if form.verdict is Verdict.NONE:
            assert genus_doc["relative_candidates"] == []
            with pytest.raises(InputError):
                relative_genus(form)
        else:
            assert relative_genus(form) == genus_doc["relative_candidates"], n
