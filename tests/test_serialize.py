"""JSON payload round trips for alpha sequences and banded matrices."""

import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrahess import (
    AlphaSequence,
    TetraHessenberg,
    dump_alphas,
    dump_matrix,
    load_alphas,
    load_matrix,
)
from tetrahess.scalars import parse_scalar
from tetrahess.serialize import MAX_GENERATOR_COUNT

from conftest import pbf_corpus


def test_alphas_round_trip():
    alphas = AlphaSequence(values=(F(1, 2), F(3), F(2, 7)))
    payload = dump_alphas(alphas)
    assert payload["alpha"] == ["1/2", "3", "2/7"]
    assert payload["start_index"] == {"alpha": 1}
    again = load_alphas(payload)
    assert again.prefix(3) == alphas.prefix(3)


def test_alphas_random_round_trip():
    for seed in range(5):
        alphas = pbf_corpus(seed, 1, count=13)[0]
        assert load_alphas(dump_alphas(alphas)).prefix(13) == alphas.prefix(13)


def test_load_alphas_scalar_start_index():
    payload = {"alpha": ["1", "2"], "start_index": 1}
    assert load_alphas(payload).prefix(2) == (F(1), F(2))


def test_load_alphas_rejects_wrong_start():
    with pytest.raises(ValueError):
        load_alphas({"alpha": ["1"], "start_index": {"alpha": 0}})


def test_load_alphas_rejects_empty():
    with pytest.raises(ValueError):
        load_alphas({"alpha": []})
    with pytest.raises(ValueError):
        load_alphas({})


def test_generator_ones():
    alphas = load_alphas({"generator": "ones"})
    assert alphas.prefix(5) == (F(1),) * 5


def test_generator_block_form():
    alphas = load_alphas({"generator": {"name": "ones", "count": 7}})
    assert alphas.length == 7


def test_generator_jacobi_pineiro():
    payload = {
        "generator": {
            "name": "jacobi-pineiro",
            "alpha": "0",
            "beta": "-1/2",
            "gamma": "0",
            "variant": "akv",
            "count": 3,
        }
    }
    assert load_alphas(payload).prefix(3) == (F(1, 2), F(-1, 6), F(1, 3))


def test_generator_unknown_name():
    with pytest.raises(ValueError):
        load_alphas({"generator": "fibonacci"})


@pytest.mark.parametrize("load, convention", [
    (load_alphas, {"alpha": 1}), (load_matrix, {"a": 2, "b": 1, "c": 0}),
], ids=["alphas", "matrix"])
def test_generator_payload_is_checked_as_explicit_data_is(load, convention):
    """Each loader checks a generator payload's start_index against its own
    convention, refuses explicit data beside the generator, and refuses a
    generator key its family does not read."""
    load({"generator": "ones", "start_index": convention})
    with pytest.raises(ValueError) as info:
        load({"generator": "ones", "start_index": {"alpha": 0}})
    assert str(info.value) == f"start_index {{'alpha': 0}} does not match the fixed convention {convention}"
    for keys in (["alpha"], ["a"], ["b", "c"], ["alpha", "a", "b", "c"]):
        with pytest.raises(ValueError) as info:
            load({"generator": {"name": "ones", "count": 10}, **{key: ["x"] for key in keys}})
        assert str(info.value) == f"a generator payload cannot also carry {keys}"
    jp = {"name": "jacobi-pineiro", "alpha": "0", "beta": "1/2", "gamma": "0", "variant": "akv", "count": 4}
    for spec, unknown in (({"name": "ones", "cuont": 10}, ["cuont"]), ({"name": "ones", "alpha": "0"}, ["alpha"]),
                          ({**jp, "delta": "1", "Count": 4}, ["delta", "Count"])):
        with pytest.raises(ValueError) as info:
            load({"generator": spec})
        assert str(info.value) == f"{spec['name']} generator has unknown key(s) {unknown}"
    load({"generator": jp})


def test_matrix_round_trip():
    t = TetraHessenberg(
        a=[F(1), F(2)], b=[F(1, 3), F(1), F(1)], c=[F(2), F(2), F(5, 4), F(1)]
    )
    payload = dump_matrix(t)
    assert payload["start_index"] == {"a": 2, "b": 1, "c": 0}
    assert payload["c"] == ["2", "2", "5/4", "1"]
    assert payload["a"] == ["1", "2"]
    again = load_matrix(payload)
    for n in range(4):
        assert again.c(n) == t.c(n)
    for n in range(2, 4):
        assert again.a(n) == t.a(n)


def test_dump_matrix_defaults_to_every_row(t_ones):
    # 64 alphas determine c_0 .. c_21, b_1 .. b_21 and a_2 .. a_21
    payload = dump_matrix(t_ones)
    assert t_ones.materializable_n() == 21
    assert (len(payload["c"]), len(payload["b"]), len(payload["a"])) == (22, 21, 20)


def test_load_matrix_generator_payload():
    t = load_matrix({"generator": "ones"})
    assert t.c(0) == 1 and t.c(1) == 3 and t.b(1) == 2


def test_load_matrix_requires_bands():
    with pytest.raises(ValueError):
        load_matrix({"a": ["1"], "b": ["1", "1"]})
    with pytest.raises(ValueError):
        load_matrix({"a": [], "b": [], "c": []})


def test_load_alphas_rejects_string_array():
    # a string is iterable, but "1234" is not the alphas (1, 2, 3, 4)
    with pytest.raises(ValueError):
        load_alphas({"alpha": "1234"})
    with pytest.raises(ValueError):
        load_alphas({"alpha": {"1": "2"}})


def test_load_matrix_rejects_string_bands():
    with pytest.raises(ValueError):
        load_matrix({"a": "12", "b": "34", "c": "567"})
    with pytest.raises(ValueError):
        load_matrix({"a": ["1"], "b": ["2"], "c": "56"})


@pytest.mark.parametrize("count", [0, -3, pytest.param(-(10**5001 - 1), id="-5001-digits")])
def test_generator_count_must_be_positive(count):
    """The message names the count in full, at any length."""
    for name in ("ones", "jacobi-pineiro"):
        spec = {"name": name, "count": count, "alpha": "0", "beta": "1/2", "gamma": "0"}
        message = f"generator count must be >= 1, got {'-' + '9' * 5001 if count < -3 else count}"
        with pytest.raises(ValueError) as info:
            load_alphas({"generator": spec})
        assert str(info.value) == message
        with pytest.raises(ValueError):
            load_matrix({"generator": spec})


def test_generator_count_is_bounded():
    """ones at MAX_GENERATOR_COUNT loads; one more, or 10^21, is refused
    for either family with a message naming the bound."""
    assert load_alphas({"generator": {"name": "ones", "count": MAX_GENERATOR_COUNT}}).length == MAX_GENERATOR_COUNT
    for count in (MAX_GENERATOR_COUNT + 1, 10**21):
        for spec in ({"name": "ones"}, {"name": "jacobi-pineiro", "alpha": "0", "beta": "1/2", "gamma": "0"}):
            for load in (load_alphas, load_matrix):
                with pytest.raises(ValueError) as info:
                    load({"generator": {**spec, "count": count}})
                assert str(info.value) == f"generator count must be <= {MAX_GENERATOR_COUNT}, got {count}"


def test_decimal_literals_stay_exact():
    alphas = load_alphas({"alpha": ["0.1", 0.1]})
    assert alphas.prefix(2) == (F(1, 10), F(1, 10))
    assert all(type(v) is F for v in alphas.prefix(2))


@pytest.mark.parametrize("load, payload, message", [
    (load_alphas, {"alpha": ["1", "1/0"]}, "alpha[1] = '1/0' is not a rational"),
    (load_matrix, {"a": ["1"], "b": ["1", "x"], "c": ["2", "2", "2"]}, "b[1] = 'x' is not a rational"),
    (load_alphas, {"generator": {"name": "jacobi-pineiro", "alpha": "0", "beta": "1/0", "gamma": "0"}},
     "generator beta = '1/0' is not a rational"),
], ids=["alpha-entry", "band-entry", "jp-parameter"])
def test_unparsable_entry_is_named(load, payload, message):
    with pytest.raises(ValueError) as info:
        load(payload)
    assert str(info.value) == message


# a fresh interpreter, so that no earlier call in this test run can have
# lifted the int/str conversion limit (4300 digits by default)
_PAST_THE_LIMIT = r"""
import sys
from fractions import Fraction
from tetrahess import serialize
from tetrahess.scalars import format_ratio, format_scalar, parse_int, parse_scalar

big = 10 ** 5001 - 1  # 5001 nines
if hasattr(sys, "get_int_max_str_digits"):
    assert sys.get_int_max_str_digits() == 4300
alphas = serialize.load_alphas({"alpha": ["9" * 5001, "-" + "9" * 5001 + "/" + "7" * 4400, "1e5000"]})
assert alphas.values == (big, Fraction(-big, 10 ** 4400 // 9 * 7), 10 ** 5000)
assert serialize.load_alphas({"alpha": [big]}).values == (big,)
assert parse_int("-" + "9" * 5001) == -big
assert format_scalar(Fraction(big)) == "9" * 5001
assert format_scalar(big) == "9" * 5001
assert format_scalar(Fraction(-big, 10 ** 5000 + 1)) == "-" + "9" * 5001 + "/1" + "0" * 4999 + "1"
assert format_ratio(2 * big, 2) == "9" * 5001
assert format_ratio(-big, 10 ** 4400) == "-" + "9" * 5001 + "/1" + "0" * 4400
payload = serialize.dump_alphas(alphas)
assert payload["alpha"][0] == "9" * 5001 and payload["alpha"][2] == "1" + "0" * 5000
assert serialize.load_alphas(payload).values == alphas.values
if hasattr(sys, "get_int_max_str_digits"):
    assert sys.get_int_max_str_digits() == 4300
print("ok")
"""


def test_scalars_past_the_int_str_limit_in_a_fresh_interpreter():
    """load_alphas and the formatters read and print a 5001-digit value
    without the process-wide limit being lifted, by anyone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", _PAST_THE_LIMIT], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


# digits, signs, separators and exponent markers in any order, valid and
# invalid literals alike, with whitespace around them; exponents stay below
# 1000 so that no literal spells a number too long to build.  Underscores
# and inner whitespace are left out: Fraction reads them differently from
# one Python version to the next (underscores from 3.11, spaces around "/"
# from 3.12), and parse_scalar reads them as 3.11 does on every version
_LITERAL = st.builds(
    lambda head, core, tail: head + core + tail,
    st.sampled_from(["", " ", "\t"]),
    st.text(alphabet="0123456789./eE+-", max_size=12).filter(lambda s: not re.search(r"[eE][-+]?\d{4}", s)),
    st.sampled_from(["", " ", "\n"]),
)


@settings(max_examples=400, derandomize=True)
@given(_LITERAL)
def test_parse_scalar_reads_what_fraction_reads(text):
    """Below the limit, parse_scalar gives Fraction(text) or fails as it
    does (ValueError, or ZeroDivisionError for a zero denominator)."""
    def outcome(parse):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc)

    assert outcome(parse_scalar) == outcome(F)


@pytest.mark.parametrize("text, value", [
    ("1", 1), ("-3/4", F(-3, 4)), (" 0.125 ", F(1, 8)), ("1e-3", F(1, 1000)), ("+.5E2", 50), ("7.", 7),
    ("\u0661\u0662", 12),  # Arabic-Indic digits, as int() reads them
    ("1_000", 1000), ("1_0.2_5e1_0", F(1025, 100) * 10**10), ("-2_0/3_0", F(-2, 3)),
])
def test_parse_scalar_fixed_literals(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["1__0", "_1", "1_", "1 / 2", "1/-2", "1.5/2", "e5", "1e", "", "/2"])
def test_parse_scalar_refuses(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


@pytest.mark.parametrize("text, value", [
    ("1e10000", 10**10000), ("-1E-10000", F(-1, 10**10000)), ("2.5e+10_000", 25 * 10**9999),
    ("1e" + "0" * 5000 + "7", 10**7),  # an exponent of 5001 digits, read in pieces
], ids=["1e10000", "-1E-10000", "2.5e+10_000", "5001-digit-exponent"])
def test_parse_scalar_reads_exponents_up_to_the_bound(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["1e10001", "1e-10001", "-0.5E+10001", "1e99999999999", "1e" + "9" * 5000],
                         ids=["1e10001", "1e-10001", "-0.5E+10001", "1e99999999999", "5000-nines-exponent"])
def test_parse_scalar_refuses_an_exponent_past_the_bound(text):
    """An exponent beyond +-10000 is refused before any power of ten is
    formed, so the length of a literal bounds the work of reading it."""
    with pytest.raises(ValueError, match="^exponent of .* is outside ±10000$"):
        parse_scalar(text)


# run with -E -s, so the package path comes in through sys.path alone
_COMPILE_ONCE = r"""
import re, sys
from fractions import Fraction
sys.path[:0] = PATHS
import tetrahess.cli
from tetrahess import scalars
assert scalars._rational is None, "importing the package compiled the literal pattern"
try:
    scalars.parse_scalar("1e10001")
except scalars.ExponentOutOfRange as exc:
    assert str(exc) == "exponent of '1e10001' is outside ±10000", exc
else:
    raise AssertionError("1e10001 was read")
compiled = scalars._rational
assert isinstance(compiled, re.Pattern) and compiled.pattern == scalars._RATIONAL
for text, value in [("1", 1), ("-3/4", Fraction(-3, 4)), (" 0.125 ", Fraction(1, 8)), ("+.5E2", 50),
                    ("1_0.2_5e1_0", Fraction(1025, 100) * 10**10), ("-2_0/3_0", Fraction(-2, 3))]:
    assert scalars.parse_scalar(text) == value, text
for text, error in [("1__0", "invalid literal for a rational: '1__0'"), ("1/0", "'1/0' has denominator 0")]:
    try:
        scalars.parse_scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        assert str(exc) == error, exc
    else:
        raise AssertionError(f"{text} was read")
assert scalars._rational is compiled, "the literal pattern was compiled twice"
print("ok")
"""


def test_the_literal_pattern_is_compiled_once_on_the_first_parse():
    """Importing the CLI compiles nothing; the first parse_scalar call, here
    one that raises, compiles the pattern, and every later call reuses it
    with the same results and messages."""
    paths = [p for p in sys.path if p]
    code = _COMPILE_ONCE.replace("PATHS", repr(paths))
    done = subprocess.run([sys.executable, "-E", "-s", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
