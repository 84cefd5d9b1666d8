"""JSON payload round trips for alpha sequences and banded matrices."""

from fractions import Fraction as F

import pytest

from tetrahess import (
    AlphaSequence,
    dump_alphas,
    dump_matrix,
    load_alphas,
    load_matrix,
    tetra_from_bands,
)

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


def test_matrix_round_trip():
    t = tetra_from_bands(
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


def test_dump_matrix_depth_control(t_ones):
    payload = dump_matrix(t_ones, rows=3)
    assert len(payload["c"]) == 4  # c_0 .. c_3
    assert len(payload["b"]) == 3
    assert len(payload["a"]) == 2


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


@pytest.mark.parametrize("count", [0, -3])
def test_generator_count_must_be_positive(count):
    for name in ("ones", "jacobi-pineiro"):
        spec = {"name": name, "count": count, "alpha": "0", "beta": "1/2", "gamma": "0"}
        with pytest.raises(ValueError):
            load_alphas({"generator": spec})
        with pytest.raises(ValueError):
            load_matrix({"generator": spec})


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
