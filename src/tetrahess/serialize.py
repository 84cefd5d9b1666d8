"""JSON payloads for band matrices and factorization sequences.

A matrix is {"a": [str], "b": [str], "c": [str]} with rationals encoded as
"p/q" strings; an alpha sequence is {"alpha": [str]}.  Entries may also be
JSON numbers, read exactly (0.1 is 1/10).  Writers add an explicit
"start_index" block (a from 2, b from 1, c from 0, alpha from 1) and readers
validate it when present, so the index conventions can never drift silently
through a file.  Either payload may instead carry a "generator" field naming
a built-in family ("ones", or a jacobi-pineiro object) in place of explicit
arrays, not beside them, with only the keys that family reads; its
start_index is validated too.  A payload of the wrong shape raises
ValueError, KeyError or TypeError.
"""

from __future__ import annotations

from fractions import Fraction

from .core import BAND_STARTS, AlphaSequence, TetraHessenberg, tetra_from_alphas
from .families import JPParams, Variant, jp_alphas
from .scalars import ExponentOutOfRange, format_scalar, parse_scalar

#: Entries emitted when a generator payload omits "count".
DEFAULT_GENERATOR_COUNT = 31
#: The most entries a generator payload or ``jp --count`` may ask for.
MAX_GENERATOR_COUNT = 10**6


def _require_object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")


def _shown(value):
    """repr(value) at any length: an int or a Fraction, alone or in a dict
    or list, is printed through format_scalar, so a value past the
    interpreter's 4300-digit int/str limit is named in full."""
    if type(value) is int:
        return format_scalar(value)
    if type(value) is Fraction:
        return f"Fraction({format_scalar(value.numerator)}, {format_scalar(value.denominator)})"
    if type(value) is dict:
        return "{" + ", ".join(f"{key!r}: {_shown(v)}" for key, v in value.items()) + "}"
    if type(value) is list:
        return "[" + ", ".join(map(_shown, value)) + "]"
    return repr(value)


def _check_start_index(payload, expected):
    if "start_index" not in payload:
        return
    declared = payload["start_index"]
    if len(expected) == 1 and not isinstance(declared, dict):
        declared = {next(iter(expected)): declared}
    # type(v) is int: JSON true or 1.0 is not an index
    if declared != expected or any(type(v) is not int for v in declared.values()):
        raise ValueError(f"start_index {_shown(declared)} does not match the fixed convention {_shown(expected)}")


def _scalar(value, name):
    if type(value) in (int, Fraction):  # a JSON number, already exact
        return Fraction(value)
    try:
        return parse_scalar(str(value))
    except ExponentOutOfRange as exc:
        # a string names the bound as the same JSON number does
        raise ValueError(f"{name}: {exc}") from None
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} = {str(value)!r} is not a rational") from None


def _scalar_array(payload, key):
    values = payload[key]
    if not isinstance(values, list):
        raise ValueError(f"{key!r} must be a JSON array, got {type(values).__name__}")
    return tuple(_scalar(v, f"{key}[{i}]") for i, v in enumerate(values))


def _generator_alphas(payload, expected):
    """The alphas of a generator payload; a start_index must be ``expected``."""
    explicit = [key for key in ("alpha", "a", "b", "c") if key in payload]
    if explicit:
        raise ValueError(f"a generator payload cannot also carry {explicit}")
    _check_start_index(payload, expected)
    spec = payload["generator"]
    if isinstance(spec, str):
        spec = {"name": spec}
    _require_object(spec, "generator")
    name = spec.get("name")
    count = spec.get("count", DEFAULT_GENERATOR_COUNT)
    if type(count) is not int:  # JSON 2.5 or true is no count
        raise ValueError(f"generator count must be a JSON integer, got {_shown(count)}")
    if count < 1:
        raise ValueError(f"generator count must be >= 1, got {format_scalar(count)}")
    if count > MAX_GENERATOR_COUNT:
        raise ValueError(f"generator count must be <= {MAX_GENERATOR_COUNT}, got {format_scalar(count)}")
    keys = {"ones": ("name", "count"), "jacobi-pineiro": ("name", "count", "alpha", "beta", "gamma", "variant")}
    if not isinstance(name, str) or name not in keys:
        raise ValueError(f"unknown generator {name!r}")
    unknown = [key for key in spec if key not in keys[name]]
    if unknown:
        raise ValueError(f"{name} generator has unknown key(s) {unknown}")
    if name == "ones":
        return AlphaSequence(values=(Fraction(1),) * count)
    values = []
    for key in ("alpha", "beta", "gamma"):
        if key not in spec:
            raise ValueError(f"jacobi-pineiro generator lacks {key!r}")
        values.append(_scalar(spec[key], f"generator {key}"))
    return jp_alphas(JPParams(*values), Variant(spec.get("variant", "first")), count)


def load_alphas(payload: dict) -> AlphaSequence:
    _require_object(payload, "alpha payload")
    if "generator" in payload:
        return _generator_alphas(payload, {"alpha": 1})
    if "alpha" not in payload:
        raise ValueError('alpha payload needs an "alpha" array or a "generator"')
    _check_start_index(payload, {"alpha": 1})
    values = _scalar_array(payload, "alpha")
    if not values:
        raise ValueError("alpha array is empty")
    return AlphaSequence(values=values)


def dump_alphas(alphas: AlphaSequence) -> dict:
    return {
        "alpha": [format_scalar(v) for v in alphas.values],
        "start_index": {"alpha": 1},
    }


def load_matrix(payload: dict) -> TetraHessenberg:
    _require_object(payload, "matrix payload")
    if "generator" in payload:
        return tetra_from_alphas(_generator_alphas(payload, BAND_STARTS))
    missing = [k for k in ("a", "b", "c") if k not in payload]
    if missing:
        raise ValueError(f"matrix payload lacks band(s) {missing}")
    _check_start_index(payload, BAND_STARTS)
    bands = {k: _scalar_array(payload, k) for k in ("a", "b", "c")}
    if not bands["c"]:
        raise ValueError("band c is empty")
    return TetraHessenberg(bands["a"], bands["b"], bands["c"])


def dump_matrix(t: TetraHessenberg) -> dict:
    """The bands down to the last row the matrix holds in all three."""
    rows = t.materializable_n()
    return {
        "a": [format_scalar(t.a(n)) for n in range(2, rows + 1)],
        "b": [format_scalar(t.b(n)) for n in range(1, rows + 1)],
        "c": [format_scalar(t.c(n)) for n in range(0, rows + 1)],
        "start_index": BAND_STARTS,
    }
