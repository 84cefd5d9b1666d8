"""End-to-end CLI behavior through main(argv): outputs, exit codes, errors."""

import io
import json
import contextlib
import os
import signal
import subprocess
import sys

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tetrahess
from tetrahess import cli, families, tncheck
from tetrahess.cli import main
from tetrahess.core import _factor_triple, _lu_bands, _split_alphas
from tetrahess.poly import Poly
from tetrahess.polynomials import second_kind_sequences, type1_sequences, type2_sequence
from tetrahess.scalars import format_scalar
from tetrahess.serialize import DEFAULT_GENERATOR_COUNT, load_alphas, load_matrix


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def ones_file(tmp_path):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"generator": "ones"}))
    return str(path)


@pytest.fixture()
def jp_r3_file(tmp_path):
    path = tmp_path / "jp.json"
    path.write_text(json.dumps({"generator": {
        "name": "jacobi-pineiro", "variant": "akv",
        "alpha": "0", "beta": "1/2", "gamma": "0", "count": 70}}))
    return str(path)


@pytest.fixture()
def tsym_file(tmp_path):
    path = tmp_path / "tsym.json"
    path.write_text(json.dumps({"a": ["1"], "b": ["1", "1"], "c": ["2", "2", "2"]}))
    return str(path)


class TestJP:
    def test_akv_head_values(self):
        code, out, _ = run(["jp", "--alpha", "0", "--beta", "-1/2", "--gamma", "0",
                            "--variant", "akv", "--count", "3"])
        assert code == 0
        assert out.strip() == '["1/2","-1/6","1/3"]'

    def test_first_variant_default(self):
        code, out, _ = run(["jp", "--alpha", "0", "--beta", "-1/2", "--gamma", "0",
                            "--count", "6"])
        assert code == 0
        assert json.loads(out) == ["1/2", "0", "1/6", "2/15", "1/5", "1/14"]

    def test_default_count_is_the_generator_default(self):
        """`jp` without --count prints as many alphas as a jacobi-pineiro
        generator payload without a count loads."""
        code, out, _ = run(["jp", "--alpha", "0", "--beta", "1/2", "--gamma", "0", "--variant", "akv"])
        assert code == 0
        generated = load_alphas({"generator": {"name": "jacobi-pineiro", "variant": "akv",
                                               "alpha": "0", "beta": "1/2", "gamma": "0"}})
        assert json.loads(out) == [format_scalar(v) for v in generated.values]
        assert len(generated.values) == DEFAULT_GENERATOR_COUNT == 31

    def test_outside_region_is_input_error(self):
        code, _, err = run(["jp", "--alpha", "1", "--beta", "0", "--gamma", "0"])
        assert code == 65
        assert "natural region" in err

    def test_out_file_payload(self, tmp_path):
        dest = tmp_path / "alphas.json"
        code, _, _ = run(["jp", "--alpha", "0", "--beta", "1/2", "--gamma", "0",
                          "--count", "4", "--out", str(dest)])
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["start_index"] == {"alpha": 1}
        assert len(payload["alpha"]) == 4


class TestJPScan:
    def test_csv_shape(self):
        code, out, _ = run(["jp-scan"])
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "alpha,beta,region,pbf_flag,oscillatory_flag"
        assert len(rows) == 9

    def test_strip_rows_are_oscillatory(self):
        _, out, _ = run(["jp-scan"])
        for line in out.strip().splitlines()[1:]:
            _, _, region, pbf, osc = line.split(",")
            assert osc == ("true" if region in ("R2", "R3") else "false")
            assert pbf == ("true" if region == "R3" else "false")

    def test_float_mode_refused(self):
        # there is no float mode: the old flag is a usage error, never a scan
        code, out, err = run(["--mode", "float", "jp-scan"])
        assert code == 64
        assert out == ""
        assert "usage error" in err

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        src = os.path.dirname(os.path.dirname(tetrahess.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "tetrahess", "jp-scan"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader is gone before anything is written
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == -signal.SIGPIPE


class TestFactor:
    def test_indefinite_exit_code(self, tsym_file):
        code, out, _ = run(["factor", "--input", tsym_file, "--n", "2",
                            "--alpha2", "0"])
        assert code == 2
        body = json.loads(out)
        assert body["classification"] == "INDEFINITE"
        assert body["alpha"] == ["2", "0", "1/2", "3/2", "1", "-2/3", "5/3"]

    def test_pbf_exit_code(self, ones_file):
        code, out, _ = run(["factor", "--input", ones_file, "--n", "3",
                            "--alpha2", "1"])
        assert code == 0
        assert json.loads(out)["classification"] == "PBF"

    def test_breakdown_maps_to_compute_error(self, tsym_file):
        code, _, err = run(["factor", "--input", tsym_file, "--n", "2",
                            "--alpha2", "1/2"])
        assert code == 70
        assert "alpha_3" in err

    @pytest.mark.parametrize("n, code, message", [
        ("4", 65, "input error: band 'c' holds 3 entries; index 3 is out of range\n"),
        ("2", 70, "error: leading principal minor delta^[0] vanishes; no LU factorization\n"),
    ])
    def test_rows_are_read_before_a_singular_minor_is_reported(self, tmp_path, n, code, message):
        """delta is read off B(0), which reads rows 0..N first: past the
        rows supplied the run is bad input even though delta^[0] = c_0 = 0."""
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"a": ["1"], "b": ["1", "1"], "c": ["0", "1", "1"]}))
        assert run(["factor", "--input", str(path), "--n", n, "--alpha2", "1"]) == (code, "", message)


class TestPolys:
    def test_type2_coefficients(self, ones_file):
        code, out, _ = run(["polys", "--input", ones_file, "--n", "3",
                            "--kind", "type2"])
        assert code == 0
        body = json.loads(out)
        assert body["B"][2] == ["1", "-4", "1"]
        assert body["B"][3] == ["-1", "10", "-7", "1"]

    @pytest.mark.parametrize("kind", ["type2", "type1", "second"])
    def test_coefficients_print_as_their_fractions(self, jp_r3_file, kind):
        """Coefficients formatted from (num, den) read as format_scalar
        prints each Fraction coefficient."""
        code, out, err = run(["polys", "--input", jp_r3_file, "--n", "12",
                              "--kind", kind, "--nu", "-3/2"])
        assert code == 0, err
        with open(jp_r3_file, encoding="utf-8") as fh:
            t = load_matrix(json.load(fh))
        if kind == "type2":
            seqs = [type2_sequence(t, 12)]
        elif kind == "type1":
            seqs = type1_sequences(t, 12, Fraction(-3, 2))
        else:
            seqs = second_kind_sequences(t, 12, Fraction(-3, 2))
        want = [[[format_scalar(c) for c in p.coeffs] for p in seq] for seq in seqs]
        assert list(json.loads(out).values()) == want
        assert any("/" in c for seq in want for p in seq for c in p)

    def test_type1_needs_nu(self, ones_file):
        code, _, _ = run(["polys", "--input", ones_file, "--n", "3",
                          "--kind", "type1"])
        assert code == 64

    @pytest.mark.parametrize("kind", ["type1", "second", "type2"])
    def test_zero_nu_is_usage_error(self, ones_file, kind):
        code, out, err = run(["polys", "--input", ones_file, "--n", "3",
                              "--kind", kind, "--nu", "0"])
        assert (code, out) == (64, "")
        assert err == "usage error: --nu must be nonzero\n"

    @pytest.mark.parametrize("kind", ["type1", "second", "type2"])
    @pytest.mark.parametrize("nu", ["x", "1/0"])
    def test_unparsable_nu_is_usage_error(self, ones_file, kind, nu):
        """--nu is checked whenever it is given, also for type2, which does
        not read it."""
        code, out, err = run(["polys", "--input", ones_file, "--n", "3",
                              "--kind", kind, "--nu", nu])
        assert (code, out, err) == (64, "", f"usage error: --nu: cannot parse '{nu}'\n")

    @pytest.mark.parametrize("at", [[], ["--at", "1/3"]])
    def test_valid_nu_with_type2_changes_nothing(self, ones_file, at):
        argv = ["polys", "--input", ones_file, "--n", "3", "--kind", "type2"] + at
        assert run(argv + ["--nu", "-1"]) == run(argv)

    def test_type1_at_origin(self, ones_file):
        code, out, _ = run(["polys", "--input", ones_file, "--n", "4",
                            "--kind", "type1", "--nu", "-1", "--at", "0"])
        assert code == 0
        body = json.loads(out)
        assert body["A1"] == ["1", "-1", "1", "-1", "1"]
        assert body["A2"] == ["0", "1", "-2", "3", "-4"]

    def test_second_kind_families(self, ones_file):
        code, out, _ = run(["polys", "--input", ones_file, "--n", "3",
                            "--kind", "second", "--nu", "-1"])
        assert code == 0
        body = json.loads(out)
        assert set(body) == {"B1", "B2", "b1"}
        assert body["B1"][2] == ["-3", "1"]


    @pytest.mark.parametrize("kind, nu", [
        ("type2", []), ("type1", ["--nu", "-1"]), ("second", ["--nu", "2/3"])])
    @pytest.mark.parametrize("x", ["1/3", "-7/2", "0"])
    def test_at_is_the_coefficients_evaluated(self, jp_r3_file, kind, nu, x):
        """--at runs the recurrence at x and builds no polynomial; its stdout
        is byte for byte the coefficient output evaluated at x."""
        argv = ["polys", "--input", jp_r3_file, "--n", "12", "--kind", kind] + nu
        code, coeffs, err = run(argv)
        assert code == 0
        point = Fraction(x)
        want = {}
        for name, polys in json.loads(coeffs).items():
            want[name] = [str(Poly([Fraction(c) for c in p])(point)) for p in polys]
        assert run(argv + ["--at", x]) == (0, json.dumps(want, indent=2) + "\n", err)

    @pytest.mark.parametrize("n, flags, code, message", [
        ("3", ["--kind", "type1", "--nu", "1", "--at", "1/0"], 64, "usage error: --at: cannot parse '1/0'"),
        ("3", ["--kind", "type2", "--at", "abc"], 64, "usage error: --at: cannot parse 'abc'"),
        ("3", ["--kind", "type1", "--at", "1/3"], 64, "usage error: --kind type1 requires --nu"),
        ("3", ["--kind", "second", "--nu", "0", "--at", "1/3"], 64, "usage error: --nu must be nonzero"),
        # --nu is parsed before --at
        ("3", ["--kind", "second", "--at", "1/0"], 64, "usage error: --kind second requires --nu"),
        ("3", ["--kind", "type1", "--nu", "0", "--at", "1/0"], 64, "usage error: --nu must be nonzero"),
        ("3", ["--kind", "type1", "--nu", "x", "--at", "abc"], 64, "usage error: --nu: cannot parse 'x'"),
        # --n past the rows supplied, alone and before a bad --at
        ("30", ["--kind", "type2", "--at", "1/3"], 65,
         "input error: band 'c' holds 7 entries; index 7 is out of range"),
        ("30", ["--kind", "type1", "--nu", "1", "--at", "1/3"], 65,
         "input error: band 'a' holds 6 entries; index 8 is out of range"),
        ("30", ["--kind", "second", "--nu", "1", "--at", "1/0"], 65,
         "input error: band 'c' holds 7 entries; index 7 is out of range"),
        ("30", ["--kind", "type1", "--nu", "1", "--at", "1/0"], 65,
         "input error: band 'a' holds 6 entries; index 8 is out of range"),
        ("-1", ["--kind", "type2", "--at", "1/0"], 64, "usage error: --n must be >= 0"),
    ])
    def test_at_error_cases(self, tmp_path, n, flags, code, message):
        path = _ones_file(tmp_path, 20)
        assert run(["polys", "--input", path, "--n", n] + flags) == (code, "", message + "\n")


class TestDarboux:
    @pytest.mark.parametrize("alphas, which", [(["1"], "hat"), (["1", "1"], "hathat")])
    def test_too_few_alphas_for_row_0(self, tmp_path, alphas, which):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"alpha": alphas}))
        code, out, err = run(["darboux", "--which", which, "--alphas", str(path)])
        assert (code, out) == (65, "")
        assert err == "input error: band 'c' holds 0 entries; index 0 is out of range\n"

    def test_two_alphas_give_row_0_of_hat(self, tmp_path):
        alphas, hat = tmp_path / "two.json", tmp_path / "hat.json"
        alphas.write_text(json.dumps({"alpha": ["1", "1"]}))
        assert run(["darboux", "--which", "hat", "--alphas", str(alphas), "--out", str(hat)])[0] == 0
        code, out, _ = run(["polys", "--input", str(hat), "--n", "0", "--kind", "type2"])
        assert code == 0
        assert json.loads(out) == {"B": [["1"]]}

    @pytest.mark.parametrize("alpha_1, c_0", [
        ('"1e5000"', "1" + "0" * 4999 + "1"),  # 10^5000 + 1
        ("9" * 5001, "1" + "0" * 5001),  # a JSON number: 10^5001 - 1 + 1
        ('"' + "9" * 5001 + '"', "1" + "0" * 5001),
    ])
    def test_rationals_past_4300_digits_are_exact(self, tmp_path, alpha_1, c_0):
        """c_0 of hat is alpha_1 + alpha_2, read and printed in full past
        the interpreter's default int/str digit limit."""
        path = tmp_path / "big.json"
        path.write_text('{"alpha": [%s, "1"]}' % alpha_1)
        code, out, _ = run(["darboux", "--which", "hat", "--alphas", str(path)])
        assert code == 0
        assert json.loads(out)["c"] == [c_0]
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() == 4300  # read exactly, limit untouched

    def test_an_error_message_prints_a_long_value_in_full(self, tmp_path):
        """Messages print exact values past the int/str limit too: alpha_1 =
        -10^5000 makes a_2 = -10^5000 (bad input), a JP parameter of -10^5000
        is outside the region, and c_0 = 10^5000 on ones alphas fails the
        tilde_b identity at n = 0 with residual -(10^5000 - 1)."""
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"alpha": ["-1e5000"] + ["1"] * 30}))
        code, out, err = run(["verify", "--suite", "akv", "--alphas", str(path), "--n", "2"])
        assert (code, out) == (65, "")
        assert err == f"input error: {path}: a_2 = -1{'0' * 5000} must be positive\n"
        assert run(["jp", "--alpha=-1e5000", "--beta", "0", "--gamma", "0"]) == (
            65, "", f"input error: parameters outside the natural region: alpha = -1{'0' * 5000}, "
            "beta = 0 must both exceed -1\n")
        ones, matrix = tmp_path / "ones.json", tmp_path / "bigc.json"
        ones.write_text(json.dumps({"alpha": ["1"] * 40}))
        matrix.write_text(json.dumps({"c": ["1e5000"] + ["3"] * 12, "b": ["3"] * 12, "a": ["1"] * 11}))
        error = f"christoffel: identity 'tilde_b' fails at n = 0: residual -{'9' * 5000}"
        assert run(["verify", "--suite", "christoffel", "--input", str(matrix), "--alphas", str(ones),
                    "--n", "2"]) == (
            1, json.dumps({"status": "fail", "error": error}, indent=2) + "\n", f"verification failure: {error}\n")

    def test_a_loader_message_names_a_long_value_in_full(self, tmp_path):
        """A start_index or a generator count the loader refuses is named in
        full past the int/str limit: a 5001-digit start_index, and a count
        written as a JSON number with a fraction part (read as a Fraction)."""
        nines = "9" * 5001
        index, count = tmp_path / "index.json", tmp_path / "count.json"
        index.write_text(f'{{"alpha": ["1", "1"], "start_index": {nines}}}')
        count.write_text(f'{{"generator": {{"name": "ones", "count": {nines}.5}}}}')
        assert run(["darboux", "--which", "hat", "--alphas", str(index)]) == (
            65, "", f"input error: {index}: start_index {{'alpha': {nines}}} does not match the fixed "
            "convention {'alpha': 1}\n")
        assert run(["darboux", "--which", "hat", "--alphas", str(count)]) == (
            65, "", f"input error: {count}: generator count must be a JSON integer, got "
            f"Fraction(1{nines}, 2)\n")

    def test_hat_bands(self, ones_file):
        code, out, _ = run(["darboux", "--alphas", ones_file, "--which", "hat"])
        assert code == 0
        body = json.loads(out)
        assert body["c"][:3] == ["2", "3", "3"]
        assert body["b"][:2] == ["3", "3"]
        assert body["start_index"] == {"a": 2, "b": 1, "c": 0}

    def test_hathat_bands(self, ones_file):
        code, out, _ = run(["darboux", "--alphas", ones_file, "--which", "hathat"])
        assert code == 0
        assert json.loads(out)["c"][:3] == ["3", "3", "3"]

    @pytest.mark.parametrize("alphas, which, error", [
        # alpha_3 = -1 enters a_2 of hathat only: the a band of hat is all 1s
        (["1", "1", "-1"] + ["1"] * 20, "hat", None),
        (["1", "1", "-1"] + ["1"] * 20, "hathat", "a_2 = -1"),
        # alpha_8 = -1 enters a_4 of hat and a_3 of hathat
        (["1"] * 7 + ["-1"] + ["1"] * 16, "hat", "a_4 = -1"),
        (["1"] * 7 + ["-1"] + ["1"] * 16, "hathat", "a_3 = -1"),
    ])
    def test_only_the_transform_asked_for_is_checked(self, tmp_path, alphas, which, error):
        path = tmp_path / "signed.json"
        path.write_text(json.dumps({"alpha": alphas}))
        code, out, err = run(["darboux", "--which", which, "--alphas", str(path)])
        if error is None:
            assert code == 0
            assert set(json.loads(out)["a"]) == {"1"}
        else:
            assert (code, out, err) == (70, "", f"error: {error} must be positive\n")


class TestVerify:
    def test_all_suites_pass_on_ones(self, ones_file):
        code, out, err = run(["verify", "--suite", "all", "--alphas", ones_file,
                              "--n", "6"])
        assert code == 0, err
        body = json.loads(out)
        assert body["status"] == "pass"
        assert len(body["suites"]) == 6
        for suite in ("tn", "christoffel", "akv", "roundtrip", "charpoly"):
            assert f"verify {suite}: pass" in err

    def test_single_suite(self, ones_file):
        code, out, _ = run(["verify", "--suite", "charpoly", "--alphas", ones_file,
                            "--n", "5"])
        assert code == 0
        suites = json.loads(out)["suites"]
        assert len(suites) == 1 and suites[0]["suite"] == "charpoly"

    def test_matrix_input_without_alphas(self, tsym_file):
        code, _, _ = run(["verify", "--suite", "tn", "--input", tsym_file,
                          "--n", "2"])
        assert code == 0

    def test_suite_needing_alphas_without_them(self, tsym_file):
        code, _, err = run(["verify", "--suite", "christoffel", "--input",
                            tsym_file, "--n", "2"])
        assert code == 65

    def test_float_mode_refused(self, ones_file):
        code, out, _ = run(["--mode", "float", "verify", "--suite", "tn",
                            "--alphas", ones_file])
        assert code == 64
        assert out == ""

    def test_alpha2_flag_is_gone(self, ones_file):
        # roundtrip reads alpha_2 from the alphas
        code, out, _ = run(["verify", "--suite", "roundtrip", "--alphas", ones_file,
                            "--alpha2", "1"])
        assert (code, out) == (64, "")

    @pytest.mark.parametrize("suite", ["christoffel", "all"])
    def test_christoffel_needs_n_at_least_1(self, ones_file, suite):
        code, out, err = run(["verify", "--suite", suite, "--alphas", ones_file, "--n", "0"])
        assert (code, out) == (64, "")
        assert err == "usage error: --n must be >= 1 for the christoffel suite\n"

    def test_tn_needs_n_at_least_1(self, ones_file):
        # the tn suite checks N = 1..min(--n, 5), so --n 0 would check nothing
        code, out, err = run(["verify", "--suite", "tn", "--alphas", ones_file, "--n", "0"])
        assert (code, out) == (64, "")
        assert err == "usage error: --n must be >= 1 for the tn suite\n"

    def test_tampered_alphas_fail(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alpha": ["1"] * 10 + ["-1"] + ["1"] * 10}))
        code, out, err = run(["verify", "--suite", "akv", "--alphas", str(bad),
                              "--n", "4"])
        # alpha_11 = -1 makes a_4 = alpha_11 alpha_9 alpha_7 negative: the
        # alphas file cannot define a matrix, so it is bad input
        assert (code, out) == (65, "")
        assert err == f"input error: {bad}: a_4 = -1 must be positive\n"


_SUITE_ORDER = ("tn", "christoffel", "akv", "roundtrip", "charpoly", "jp-consistency")
_INPUT_SETS = ("none", "input", "alphas", "both")
_NO_MATRIX = (65, "this suite needs --input or --alphas")
_NO_ALPHAS = (65, "this suite needs --alphas")

#: What each suite does at --n 2 with no input, the three-row tsym matrix
#: alone, the ones alphas alone, and both (the matrix then comes from
#: --input): "pass", or the exit code and message of the first error.
_INPUT_OUTCOMES = {
    "tn": (_NO_MATRIX, "pass", "pass", "pass"),
    "christoffel": (_NO_MATRIX, _NO_ALPHAS, "pass",
                    (65, "christoffel: band 'a' holds 1 entries; index 3 is out of range")),
    "akv": (_NO_MATRIX, _NO_ALPHAS, "pass", (65, "akv: band 'c' holds 3 entries; index 3 is out of range")),
    "roundtrip": (_NO_MATRIX, _NO_ALPHAS, "pass", (1, "roundtrip: bidiagonal_factor did not reproduce the alphas")),
    "charpoly": (_NO_MATRIX, "pass", "pass", "pass"),
    "jp-consistency": ("pass", "pass", "pass", "pass"),
}
_REPORTS_AT_2 = {
    "tn": {"suite": "tn", "checked": 2},
    "christoffel": {"suite": "christoffel", "n": 2, "checked": 18},
    "akv": {"suite": "akv", "n": 2, "checked": 180, "max_value": "0", "zeros_at_origin": 16},
    "roundtrip": {"suite": "roundtrip", "n": 2, "recovered": 7},
    "charpoly": {"suite": "charpoly", "checked": 7},
    "jp-consistency": {"suite": "jp-consistency", "points": 16},
}


def _expected_verify(suites, inputs):
    """(exit code, stdout, stderr) of ``verify --n 2`` running ``suites`` in
    order and stopping at the first that does not pass."""
    err, reports = "", []
    for suite in suites:
        outcome = _INPUT_OUTCOMES[suite][_INPUT_SETS.index(inputs)]
        if outcome == "pass":
            err += f"verify {suite}: pass\n"
            reports.append(_REPORTS_AT_2[suite])
            continue
        code, message = outcome
        if code == 65:
            return code, "", err + f"input error: {message}\n"
        body = json.dumps({"status": "fail", "error": message}, indent=2)
        return code, body + "\n", err + f"verification failure: {message}\n"
    return 0, json.dumps({"status": "pass", "n": 2, "suites": reports}, indent=2) + "\n", err


@pytest.mark.parametrize("inputs", _INPUT_SETS)
@pytest.mark.parametrize("suite", _SUITE_ORDER + ("all",))
def test_each_suite_reads_only_its_inputs(ones_file, tsym_file, suite, inputs):
    flags = {"none": [], "input": ["--input", tsym_file], "alphas": ["--alphas", ones_file],
             "both": ["--input", tsym_file, "--alphas", ones_file]}[inputs]
    got = run(["verify", "--suite", suite, *flags, "--n", "2"])
    assert got == _expected_verify(_SUITE_ORDER if suite == "all" else (suite,), inputs)


def _perturbed(seq, index):
    """seq with the constant coefficient of entry ``index`` raised by one."""
    polys = list(seq)
    p = polys[index]
    polys[index] = Poly((p.coeffs[0] + 1,) + p.coeffs[1:])
    return polys


class TestVerifyCharpolyCanFail:
    @pytest.mark.parametrize("index", [1, 4, 6])
    def test_wrong_type2_entry(self, monkeypatch, ones_file, index):
        original = cli.type2_sequence
        monkeypatch.setattr(cli, "type2_sequence", lambda t, n: _perturbed(original(t, n), index))
        code, out, err = run(["verify", "--suite", "charpoly", "--alphas", ones_file, "--n", "5"])
        assert code == 1, err
        assert json.loads(out)["error"] == f"charpoly: B_{index} differs from the dense oracle"

    @pytest.mark.parametrize("which, label, index", [
        (0, "B^(1)", 2), (0, "B^(1)", 6), (2, "b^(1)", 2), (2, "b^(1)", 6),
    ])
    def test_wrong_second_kind_entry(self, monkeypatch, ones_file, which, label, index):
        original = cli.second_kind_sequences

        def fake(t, n, nu):
            seqs = list(original(t, n, nu))
            seqs[which] = _perturbed(seqs[which], index)
            return tuple(seqs)

        monkeypatch.setattr(cli, "second_kind_sequences", fake)
        code, out, err = run(["verify", "--suite", "charpoly", "--alphas", ones_file, "--n", "5"])
        assert code == 1, err
        error = json.loads(out)["error"]
        assert error.startswith(f"charpoly: {label}_{index} differs from the k=")
        assert f"verification failure: {error}" in err


@pytest.mark.parametrize("field", ["m", "ell", "u_diag"])
@pytest.mark.parametrize("position", [0, 2, -1])
def test_roundtrip_fails_when_one_lu_entry_moves(monkeypatch, jp_r3_file, field, position):
    """The banded L*U check sees a change in any one entry of m (from m_1),
    l (from l_2) or u: the bands c, b and a it compares are formed from
    the moved factor triple."""

    def moved(alphas):
        triple = [list(f) for f in _factor_triple(*_split_alphas(alphas.values))]
        which = ("u_diag", "m", "ell").index(field)
        triple[which][position + which if position >= 0 else position] += Fraction(1, 7)
        return _lu_bands(*triple)

    monkeypatch.setattr(cli, "bands_from_alphas", moved)
    code, out, err = run(["verify", "--suite", "roundtrip", "--alphas", jp_r3_file, "--n", "6"])
    assert code == 1, err
    error = "roundtrip: L*U does not reproduce the truncation"
    assert json.loads(out) == {"status": "fail", "error": error}


def test_verify_tn_disagreement_fails(monkeypatch, ones_file):
    monkeypatch.setattr(cli, "_some_power_totally_positive", lambda m: False)
    code, out, err = run(["verify", "--suite", "tn", "--alphas", ones_file, "--n", "3"])
    assert code == 1
    error = "tn: GK verdict True disagrees with power oracle False at N=1"
    assert json.loads(out) == {"status": "fail", "error": error}
    assert err == f"verification failure: {error}\n"


def test_tn_suite_scans_each_truncation_once(monkeypatch, ones_file):
    dims = []
    original = tncheck.is_totally_nonnegative

    def counting(m):
        dims.append(m.n)
        return original(m)

    monkeypatch.setattr(cli, "is_totally_nonnegative", counting)
    monkeypatch.setattr(tncheck, "is_totally_nonnegative", counting)
    code, _, err = run(["verify", "--suite", "tn", "--alphas", ones_file, "--n", "5"])
    assert code == 0, err
    assert dims == [2, 3, 4, 5, 6]


def test_jp_consistency_builds_each_variant_once(monkeypatch, ones_file):
    built = []
    original = cli.jp_alphas

    def counting(params, variant, count):
        built.append((params, variant))
        return original(params, variant, count)

    monkeypatch.setattr(cli, "jp_alphas", counting)
    monkeypatch.setattr(families, "jp_alphas", counting)
    code, _, err = run(["verify", "--suite", "jp-consistency", "--alphas", ones_file, "--n", "1"])
    assert code == 0, err
    # once per point and variant (the two checks used to build both each)
    grid = tetrahess.JP_VERIFICATION_GRID
    assert len(built) == 2 * len(grid)
    assert set(built) == {(p, v) for p in grid for v in tetrahess.Variant}


def test_a_failing_jp_consistency_run_prints_the_true_values(monkeypatch):
    """alpha_5 of the AKV variant at the third grid point, (5/2, 1, 0),
    moved by 1/3: the suite fails on m_2 and prints both entries unscaled."""
    original = cli.jp_alphas
    point = tetrahess.JP_VERIFICATION_GRID[2]

    def moved(params, variant, count):
        alphas = original(params, variant, count)
        if (params, variant) != (point, tetrahess.Variant.AKV):
            return alphas
        values = list(alphas.values)
        values[4] += Fraction(1, 3)
        return tetrahess.AlphaSequence(values=values)

    monkeypatch.setattr(cli, "jp_alphas", moved)
    error = "jp-consistency: band m_2 differs between parameter families: 181/1430 vs 1973/4290"
    assert run(["verify", "--suite", "jp-consistency"]) == (
        1,
        json.dumps({"status": "fail", "error": error}, indent=2) + "\n",
        f"verification failure: {error}\n",
    )


#: An alpha-reading suite at --n N needs alphas through index 3N + this.
ALPHAS_PAST_3N = {"christoffel": 5, "akv": 4, "roundtrip": 2}


def _ones_file(tmp_path, count):
    path = tmp_path / f"ones{count}.json"
    path.write_text(json.dumps({"generator": {"name": "ones", "count": count}}))
    return str(path)


class TestVerifyDataShortfall:
    @pytest.mark.parametrize("suite, flag, shortfall", [
        pytest.param("charpoly", "--input", "band 'c' holds 3 entries", id="charpoly"),
        pytest.param("tn", "--input", "band 'c' holds 3 entries", id="tn"),
        # 31 ones alphas against --n 20: no suite shrinks --n to fit the file
        pytest.param("christoffel", "--alphas", "band 'alpha' holds 31 entries; index 32 ",
                     id="christoffel"),
        pytest.param("akv", "--alphas", "band 'alpha' holds 31 entries; index 32 ", id="akv"),
        pytest.param("roundtrip", "--alphas", "band 'c' holds 11 entries; index 11 ",
                     id="roundtrip"),
    ])
    def test_too_few_rows_is_input_error(self, tsym_file, ones_file, suite, flag, shortfall):
        path = tsym_file if flag == "--input" else ones_file
        n = "50" if flag == "--input" else "20"
        code, out, err = run(["verify", "--suite", suite, flag, path, "--n", n])
        assert code == 65
        assert out == ""
        assert err.startswith(f"input error: {suite}: {shortfall}")

    @pytest.mark.parametrize("suite", sorted(ALPHAS_PAST_3N))
    @pytest.mark.parametrize("n", [1, 4])
    def test_alpha_counts_are_exact(self, tmp_path, suite, n):
        needed = 3 * n + ALPHAS_PAST_3N[suite]
        argv = ["verify", "--suite", suite, "--n", str(n), "--alphas"]
        code, out, err = run(argv + [_ones_file(tmp_path, needed - 1)])
        assert (code, out) == (65, ""), err
        code, out, err = run(argv + [_ones_file(tmp_path, needed)])
        assert code == 0, err
        assert json.loads(out)["suites"][0]["n"] == n

    @pytest.mark.parametrize("suite", ["christoffel", "akv"])
    def test_non_pbf_alphas_are_compute_error(self, tmp_path, suite):
        # the first JP variant at (0, 1/2, 0) has alpha_2 = 0: an unmet
        # precondition of the suite, not a failed identity or sign
        path = tmp_path / "jp-first.json"
        path.write_text(json.dumps({"generator": {
            "name": "jacobi-pineiro", "alpha": "0", "beta": "1/2", "gamma": "0"}}))
        code, out, err = run(["verify", "--suite", suite, "--alphas", str(path), "--n", "4"])
        assert (code, out) == (70, "")
        assert err.startswith(f"error: {suite}: ")

    def test_identity_failure_still_exits_1(self, tmp_path, ones_file):
        # an unrelated matrix against the ones alphas breaks a Christoffel identity
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"a": ["2"] * 8, "b": ["1"] * 9, "c": ["3"] * 10}))
        code, out, _ = run(["verify", "--suite", "christoffel", "--alphas", ones_file,
                            "--input", str(other), "--n", "2"])
        assert code == 1
        assert json.loads(out)["error"].startswith("christoffel: identity ")

    def test_failure_report_goes_to_out_file(self, tmp_path, ones_file):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"a": ["2"] * 8, "b": ["1"] * 9, "c": ["3"] * 10}))
        dest = tmp_path / "report.json"
        code, out, err = run(["verify", "--suite", "christoffel", "--alphas", ones_file,
                              "--input", str(other), "--n", "2", "--out", str(dest)])
        assert (code, out) == (1, "")
        body = json.loads(dest.read_text())
        assert body["status"] == "fail"
        assert err == f"verification failure: {body['error']}\n"


OUTSIDE_REGION = {"generator": {"name": "jacobi-pineiro",
                                 "alpha": "1", "beta": "0", "gamma": "0"}}
NEGATIVE_A = {"a": ["-1"], "b": ["1", "1"], "c": ["1", "1", "1"]}
# (alpha, beta, gamma) = (3/2, 0, 0) lies in R1, where a_3 = -7/5720
JP_R1 = {"generator": {"name": "jacobi-pineiro", "alpha": "3/2", "beta": "0", "gamma": "0"}}


class TestInputErrorEverySubcommand:
    """Missing data and generator parameters outside the natural region are
    bad input (exit 65, nothing on stdout) whatever the subcommand."""

    @pytest.mark.parametrize("argv", [
        ["polys", "--n", "30", "--kind", "type2", "--input"],
        ["factor", "--n", "30", "--alpha2", "1", "--input"],
    ])
    def test_n_past_the_rows(self, tmp_path, argv):
        path = tmp_path / "ones70.json"
        path.write_text(json.dumps({"generator": {"name": "ones", "count": 70}}))
        code, out, err = run(argv + [str(path)])
        assert (code, out) == (65, "")
        assert err.startswith("input error: band ")

    def test_an_empty_band_holds_0_entries(self, tmp_path):
        # one alpha determines row 0 only, and the type I recurrence reads a_2 first
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"generator": {"name": "ones", "count": 1}}))
        code, out, err = run(["polys", "--input", str(path), "--n", "2", "--kind", "type1", "--nu", "-1"])
        assert (code, out) == (65, "")
        assert err == "input error: band 'a' holds 0 entries; index 2 is out of range\n"

    @pytest.mark.parametrize("argv", [
        ["polys", "--n", "2", "--kind", "type2", "--input"],
        ["factor", "--n", "2", "--alpha2", "1", "--input"],
        ["darboux", "--which", "hat", "--alphas"],
        ["verify", "--suite", "christoffel", "--alphas"],
    ])
    def test_generator_outside_natural_region(self, tmp_path, argv):
        path = tmp_path / "jp.json"
        path.write_text(json.dumps(OUTSIDE_REGION))
        code, out, err = run(argv + [str(path)])
        assert (code, out) == (65, "")
        assert err.startswith(f"input error: {path}: parameters outside the natural region")

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    def test_generator_lacking_a_parameter_names_it(self, tmp_path, field):
        spec = {"name": "jacobi-pineiro", "alpha": "0", "beta": "1/2", "gamma": "0"}
        del spec[field]
        path = tmp_path / "jp.json"
        path.write_text(json.dumps({"generator": spec}))
        for argv in (["verify", "--suite", "all", "--n", "3", "--alphas"],
                     ["factor", "--n", "2", "--alpha2", "1", "--input"]):
            code, out, err = run(argv + [str(path)])
            assert (code, out, err) == (65, "", f"input error: {path}: jacobi-pineiro generator lacks {field!r}\n")

    @pytest.mark.parametrize("payload, argv, message", [
        (NEGATIVE_A, ["polys", "--n", "2", "--kind", "type2", "--input"], "a_2 = -1"),
        (NEGATIVE_A, ["factor", "--n", "2", "--alpha2", "1", "--input"], "a_2 = -1"),
        (JP_R1, ["polys", "--n", "2", "--kind", "type2", "--input"], "a_3 = -7/5720"),
        (JP_R1, ["factor", "--n", "2", "--alpha2", "1", "--input"], "a_3 = -7/5720"),
        (JP_R1, ["verify", "--suite", "tn", "--n", "2", "--alphas"], "a_3 = -7/5720"),
    ])
    def test_nonpositive_lowest_band(self, tmp_path, payload, argv, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(argv + [str(path)])
        assert (code, out) == (65, "")
        assert err == f"input error: {path}: {message} must be positive\n"

    def test_nonpositive_transformed_band_is_compute_error(self, tmp_path):
        # the R1 alphas are valid input; the hat transform built from them is
        # what breaks a_n > 0, a precondition of the computation
        path = tmp_path / "r1.json"
        path.write_text(json.dumps(JP_R1))
        code, out, err = run(["darboux", "--which", "hat", "--alphas", str(path)])
        assert (code, out, err) == (70, "", "error: a_2 = 0 must be positive\n")


class TestErrorMapping:
    def test_missing_required_flag(self, tsym_file):
        code, _, err = run(["factor", "--input", tsym_file])
        assert code == 64
        assert "usage error" in err

    def test_missing_file(self):
        code, _, _ = run(["factor", "--input", "/nonexistent.json", "--n", "2",
                          "--alpha2", "1"])
        assert code == 65

    def test_malformed_json(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, _ = run(["factor", "--input", str(broken), "--n", "2",
                          "--alpha2", "1"])
        assert code == 65

    def test_unknown_subcommand(self):
        code, _, _ = run(["frobnicate"])
        assert code == 64

    def test_removed_global_flags(self, ones_file):
        commands = [
            ["jp", "--alpha", "0", "--beta", "1/2", "--gamma", "0"],
            ["jp-scan"],
            ["factor", "--input", ones_file, "--n", "2", "--alpha2", "1"],
            ["polys", "--input", ones_file, "--n", "2", "--kind", "type2"],
            ["darboux", "--alphas", ones_file, "--which", "hat"],
            ["verify", "--suite", "tn", "--alphas", ones_file, "--n", "2"],
        ]
        flags = (["--seed", "3"], ["--float-tolerance", "1e-9"],
                 ["--mode", "float"], ["--mode", "exact"])
        for argv in commands:
            assert run(argv)[0] == 0
            for flag in flags:
                code, out, _ = run(flag + argv)
                assert (code, out) == (64, ""), flag + argv

    def test_json_numbers_are_read_exactly(self, tmp_path):
        numbers, strings = tmp_path / "numbers.json", tmp_path / "strings.json"
        numbers.write_text('{"alpha": [0.12345678901234567890, 1e400]}')
        strings.write_text('{"alpha": ["0.12345678901234567890", "1e400"]}')
        code, out, _ = run(["darboux", "--which", "hat", "--alphas", str(numbers)])
        assert code == 0
        assert (code, out) == run(["darboux", "--which", "hat", "--alphas", str(strings)])[:2]
        # row 0 of hat is c_0 = alpha_2 + alpha_1
        want = Fraction("0.12345678901234567890") + Fraction(10) ** 400
        assert json.loads(out)["c"] == [str(want)]

    @pytest.mark.parametrize("text", [
        '{"alpha": ["1", "1"], "start_index": 1.0}',
        '{"alpha": ["1", "1"], "start_index": {"alpha": 1.0}}',
        '{"generator": {"name": "ones", "count": 2.0}}',
    ])
    def test_a_json_float_is_no_index_or_count(self, tmp_path, text):
        path = tmp_path / "float.json"
        path.write_text(text)
        code, out, err = run(["darboux", "--which", "hat", "--alphas", str(path)])
        assert (code, out) == (65, "")
        assert err.startswith(f"input error: {path}: ")

    @pytest.mark.parametrize(
        "payload, argv",
        [
            ({"alpha": "1234"}, ["darboux", "--which", "hat", "--alphas"]),
            ({"a": "12", "b": "34", "c": "567"},
             ["polys", "--n", "2", "--kind", "type2", "--at", "0", "--input"]),
            ({"generator": {"name": "ones", "count": 0}}, ["darboux", "--which", "hat", "--alphas"]),
            ({"generator": {"name": "ones", "count": 0}},
             ["polys", "--n", "2", "--kind", "type2", "--input"]),
        ] + [
            (payload, argv)
            for payload in (
                {"generator": 5},
                {"generator": None},
                {"generator": ["ones"]},
                {"generator": {"name": "ones", "count": 2.5}},
                {"generator": {"name": "ones", "count": True}},
            )
            for argv in (
                ["factor", "--n", "0", "--alpha2", "1", "--input"],
                ["polys", "--n", "0", "--kind", "type2", "--input"],
                ["darboux", "--which", "hat", "--alphas"],
            )
        ] + [
            (payload, ["darboux", "--which", "hat", "--alphas"])
            for payload in (["alpha"], {"alpha": ["1/0", "1"]}, {"alpha": ["1"], "start_index": True})
        ],
    )
    def test_malformed_payload_is_input_error(self, tmp_path, payload, argv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(argv + [str(path)])
        assert code == 65
        assert out == ""
        assert "input error" in err
        if payload == {"alpha": ["1/0", "1"]}:
            assert err == f"input error: {path}: alpha[0] = '1/0' is not a rational\n"


# -- payload fuzzing: every structurally wrong payload is bad input ---------

_VALID_ENTRY = st.sampled_from(["1", "2/3", 1, 0.5])
_BAD_ENTRY = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "x", "1/0", "1//2", "0x1"]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=2),
)
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False))
_NON_OBJECT = st.one_of(_JSON_SCALAR, st.lists(st.sampled_from(["ones", 1]), max_size=2))
_NON_ARRAY = st.one_of(
    _JSON_SCALAR, st.text(max_size=3), st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=2),
)
_BAD_ARRAY = st.one_of(
    _NON_ARRAY,
    st.builds(lambda good, bad: good + [bad], st.lists(_VALID_ENTRY, max_size=3), _BAD_ENTRY),
)
_NOT_A_COUNT = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.integers(-100, 0),
    st.sampled_from(["5", [5], {"n": 5}]),
)
_VALID_MATRIX = {"a": ["1"], "b": ["1", "1"], "c": ["2", "2", "2"]}
_JP_R3 = {"name": "jacobi-pineiro", "variant": "akv", "alpha": "0", "beta": "1/2", "gamma": "0"}


def _replace(base, key, value):
    return {**base, key: value}


_ALPHA_PAYLOADS = st.one_of(
    st.just({}),
    st.just({"alpha": []}),
    st.builds(lambda v: {"alpha": v}, _BAD_ARRAY),
    st.builds(lambda s: {"alpha": ["1"], "start_index": s}, st.one_of(
        st.none(), st.booleans(), st.integers().filter(lambda i: i != 1),
        st.floats(allow_nan=False), st.text(max_size=3), st.lists(st.integers(), max_size=2),
        st.fixed_dictionaries({"alpha": st.sampled_from([0, 2, 1.0, True, "1", None])}),
    )),
)
_MATRIX_PAYLOADS = st.one_of(
    st.just(_replace(_VALID_MATRIX, "c", [])),
    st.builds(lambda k: {b: v for b, v in _VALID_MATRIX.items() if b != k}, st.sampled_from("abc")),
    st.builds(lambda k, v: _replace(_VALID_MATRIX, k, v), st.sampled_from("abc"), _BAD_ARRAY),
    st.builds(lambda s: _replace(_VALID_MATRIX, "start_index", s), st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=3),
        st.lists(st.integers(), max_size=3),
        st.fixed_dictionaries({"a": st.just(2), "b": st.just(1),
                               "c": st.sampled_from([1, 0.0, False, "0", None])}),
    )),
)
_GENERATOR_SPECS = st.one_of(
    _NON_OBJECT,
    st.text(max_size=5).filter(lambda name: name != "ones"),
    st.builds(lambda c: {"name": "ones", "count": c}, _NOT_A_COUNT),
    st.builds(lambda name, c: {"name": name, "count": c},
              st.one_of(_NON_OBJECT, st.text(max_size=5).filter(lambda name: name != "ones")),
              st.integers(1, 100)),
    st.builds(lambda k, v, c: _replace(_replace(_JP_R3, "count", c), k, v),
              st.sampled_from(["alpha", "beta", "gamma"]),
              st.one_of(_BAD_ENTRY, st.sampled_from(["-3", "-1"])), st.integers(1, 100)),
    st.builds(lambda v, c: _replace(_replace(_JP_R3, "count", c), "variant", v),
              st.sampled_from([None, 5, "second", "", ["akv"]]), st.integers(1, 100)),
    st.builds(lambda c: _replace(_JP_R3, "count", c), _NOT_A_COUNT),
)
_PAYLOADS = st.one_of(
    st.tuples(_ALPHA_PAYLOADS, st.just("--alphas")),
    st.tuples(_MATRIX_PAYLOADS, st.just("--input")),
    st.tuples(st.builds(lambda spec: {"generator": spec}, _GENERATOR_SPECS),
              st.sampled_from(["--alphas", "--input"])),
    st.tuples(st.one_of(_NON_OBJECT, st.text(max_size=5)), st.sampled_from(["--alphas", "--input"])),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=_PAYLOADS)
def test_structurally_wrong_payload_is_input_error(tmp_path_factory, case):
    payload, verify_flag = case
    path = str(tmp_path_factory.mktemp("fuzz") / "payload.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    for argv in (
        ["factor", "--n", "2", "--alpha2", "1", "--input", path],
        ["polys", "--n", "2", "--kind", "type2", "--input", path],
        ["darboux", "--which", "hat", "--alphas", path],
        ["verify", "--suite", "charpoly", "--n", "2", verify_flag, path],
    ):
        code, out, err = run(argv)
        assert (code, out) == (65, ""), (payload, argv, err)


def _fresh(argv, **kwargs):
    """``python -m tetrahess argv`` in a new process: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(tetrahess.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=300, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def _every_subcommand(ones):
    """One valid argv per subcommand, ``ones`` naming the all-ones alphas."""
    return {
        "jp": ["jp", "--alpha", "0", "--beta", "1/2", "--gamma", "0", "--count", "4"],
        "jp-scan": ["jp-scan", "--gamma", "1/2"],
        "factor": ["factor", "--input", ones, "--n", "3", "--alpha2", "1"],
        "polys": ["polys", "--input", ones, "--n", "3", "--kind", "second", "--nu", "-1"],
        "darboux": ["darboux", "--alphas", ones, "--which", "hathat"],
        "verify": ["verify", "--suite", "all", "--alphas", ones, "--n", "2"],
    }


class TestUnwritableOut:
    """An --out file that cannot be created is exit 73 (EX_CANTCREAT) with
    one line on stderr and nothing on stdout, in every subcommand."""

    @pytest.mark.parametrize("command", ["jp", "jp-scan", "factor", "polys", "darboux", "verify"])
    def test_exit_73_without_traceback(self, tmp_path, ones_file, command):
        dest = tmp_path / "missing" / "r.json"
        argv = _every_subcommand(ones_file)[command]
        code, out, err = _fresh(["-m", "tetrahess", *argv, "--out", str(dest)])
        assert (code, out) == (73, "")
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"output error: {dest}: No such file or directory"
        assert not dest.parent.exists()

    def test_verify_prints_its_passes_first(self, tmp_path):
        dest = tmp_path / "missing" / "r.json"
        code, out, err = run(["verify", "--suite", "jp-consistency", "--n", "1", "--out", str(dest)])
        assert (code, out) == (73, "")
        assert err == f"verify jp-consistency: pass\noutput error: {dest}: No such file or directory\n"

    def test_a_directory_is_unwritable(self, tmp_path):
        code, out, err = run(["jp-scan", "--out", str(tmp_path)])
        assert (code, out) == (73, "")
        assert err == f"output error: {tmp_path}: Is a directory\n"


def test_one_process_prints_what_fresh_processes_print(ones_file):
    """The parser is built on the first main() call, not at import, and
    reused: a usage error and then a valid call of every subcommand in one
    process print, byte for byte, what each prints in a process of its own."""
    calls = [["verify", "--suite", "nope"], *_every_subcommand(ones_file).values(),
             ["polys", "--input", ones_file, "--n", "2", "--kind", "type1"]]
    script = """
import contextlib, io, json, sys
from tetrahess import cli
results = [cli._parser.cache_info().currsize]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
results.append(cli._parser.cache_info().misses)
print(json.dumps(results))
"""
    code, out, err = _fresh(["-c", script, json.dumps(calls)])
    assert (code, err) == (0, "")
    built_at_import, *in_one_process, builds = json.loads(out)
    assert (built_at_import, builds) == (0, 1)
    assert [c for c, _, _ in in_one_process] == [64, 0, 0, 0, 0, 0, 0, 64]
    for argv, got in zip(calls, in_one_process):
        assert tuple(got) == _fresh(["-m", "tetrahess", *argv]), argv
