"""Per-layer spans and counters for the traced benchmark run.

The layers are the modules under ``src/tetrahess``.  ``install`` wraps their
public functions from the outside: each wrapper opens a span (name, start,
end, parent, operation) and bumps counters, and the module attribute is
replaced at every import site inside the package, so ``cli.type2_sequence``
and ``darboux.type2_sequence`` are both traced.  The program itself is not
changed.  Spans stay in memory; ``write`` dumps them when the run ends and
``layer_metrics`` turns them into self times (span time minus the part its
child spans cover).

Helpers in ``scalars`` and ``errors``, and ``core``/``factorization`` helpers
not listed below, count toward their callers.  A method called by a method
of the same class (``DenseMatrix.char_poly`` calling ``mul``) counts toward
the outer call, so ``core.dense_mul_s`` is matrix products asked for from
outside ``DenseMatrix``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span metric); attributes may name a Class.method.
SPANS = (
    ("tetrahess.cli", "main", "cli.self_s"),
    ("tetrahess.serialize", "load_alphas", "serialize.load_s"),
    ("tetrahess.serialize", "load_matrix", "serialize.load_s"),
    ("tetrahess.serialize", "dump_alphas", "serialize.dump_s"),
    ("tetrahess.serialize", "dump_matrix", "serialize.dump_s"),
    ("tetrahess.families", "jp_alphas", "families.jp_s"),
    ("tetrahess.families", "jp_dense_truncation", "families.jp_s"),
    ("tetrahess.families", "jp_matrix", "families.jp_s"),
    ("tetrahess.families", "jp_cross_consistency", "families.consistency_s"),
    ("tetrahess.families", "jp_sign_report", "families.consistency_s"),
    ("tetrahess.core", "DenseMatrix.char_poly", "core.dense_charpoly_s"),
    ("tetrahess.core", "DenseMatrix.det", "core.dense_det_s"),
    ("tetrahess.core", "DenseMatrix.minor", "core.dense_det_s"),
    ("tetrahess.core", "DenseMatrix.mul", "core.dense_mul_s"),
    ("tetrahess.core", "leading_principal", "core.truncation_s"),
    ("tetrahess.core", "trailing_truncation", "core.truncation_s"),
    ("tetrahess.core", "alpha_factor_matrices", "core.truncation_s"),
    ("tetrahess.polynomials", "type2_sequence", "polynomials.type2_s"),
    ("tetrahess.polynomials", "type1_sequences", "polynomials.type1_s"),
    ("tetrahess.polynomials", "second_kind_sequences", "polynomials.second_kind_s"),
    ("tetrahess.polynomials", "char_poly_truncation", "polynomials.trunc_charpoly_s"),
    ("tetrahess.factorization", "gauss_borel", "factorization.gauss_borel_s"),
    ("tetrahess.factorization", "bidiagonal_factor", "factorization.bidiagonal_s"),
    ("tetrahess.darboux", "darboux_transforms", "darboux.transforms_s"),
    ("tetrahess.darboux", "truncation_mismatch", "darboux.transforms_s"),
    ("tetrahess.darboux", "transformed_type2", "darboux.transformed_polys_s"),
    ("tetrahess.darboux", "transformed_type1", "darboux.transformed_polys_s"),
    ("tetrahess.darboux", "darboux_polynomials", "darboux.transformed_polys_s"),
    ("tetrahess.darboux", "transformed_char_polys", "darboux.transformed_polys_s"),
    ("tetrahess.darboux", "verify_christoffel", "darboux.christoffel_s"),
    ("tetrahess.darboux", "akv_sign_checks", "darboux.akv_s"),
    ("tetrahess.darboux", "alphas_from_polynomials", "darboux.alphas_from_polys_s"),
    ("tetrahess.tncheck", "is_totally_nonnegative", "tncheck.tn_s"),
    ("tetrahess.tncheck", "is_oscillatory", "tncheck.tn_s"),
    ("tetrahess.tncheck", "is_oscillatory_power_oracle", "tncheck.power_oracle_s"),
)

# (module, Class.method, counter): calls counted without a span.
COUNTED = (
    ("tetrahess.core", "TetraHessenberg.a", "core.band_evals"),
    ("tetrahess.core", "TetraHessenberg.b", "core.band_evals"),
    ("tetrahess.core", "TetraHessenberg.c", "core.band_evals"),
    ("tetrahess.core", "AlphaSequence.at", "core.alpha_evals"),
)

COUNTERS = (
    "core.band_evals",
    "core.alpha_evals",
    "poly.mul_calls",
    "poly.coeff_bits_max",
    "polynomials.steps",
    "darboux.akv_dets",
    "tncheck.minors",
    "tncheck.refuted",
)

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    **{metric: "s" for _, _, metric in SPANS},
    **{name: "count" for name in COUNTERS},
    "poly.coeff_bits_max": "bits",
    "trace_overhead": "ratio",
}

_NAME, _START, _END, _PARENT, _PAUSED, _OP, _GROUP = range(7)


def _coeff_bits(polys):
    best = 0
    for p in polys:
        for v in p.coeffs:
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _sequences_done(tracer, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.counters["polynomials.steps"] += n
    seqs = result if isinstance(result, tuple) else (result,)
    bits = max(_coeff_bits(s) for s in seqs)
    tracer.counters["poly.coeff_bits_max"] = max(tracer.counters["poly.coeff_bits_max"], bits)


def _truncation_done(tracer, args, kwargs, result):
    _, n, k = args
    tracer.counters["polynomials.steps"] += n - k + 1
    bits = _coeff_bits((result,))
    tracer.counters["poly.coeff_bits_max"] = max(tracer.counters["poly.coeff_bits_max"], bits)


def _akv_done(tracer, args, kwargs, result):
    tracer.counters["darboux.akv_dets"] += result.checked


def _tn_done(tracer, args, kwargs, result):
    tracer.counters["tncheck.minors"] += result.minors_checked
    if result.is_tn is False:
        tracer.counters["tncheck.refuted"] += 1


# Bookkeeping run after a span closes; its time is excluded from every span
# still open, so it never shows up as some layer's self time.
AFTER = {
    "type2_sequence": _sequences_done,
    "type1_sequences": _sequences_done,
    "second_kind_sequences": _sequences_done,
    "char_poly_truncation": _truncation_done,
    "akv_sign_checks": _akv_done,
    "is_totally_nonnegative": _tn_done,
}


class Tracer:
    """In-memory spans and counters of one traced pass (single-threaded)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, paused s, op id, group]
        self.stack = []  # indices of open spans, innermost last
        self.counters = Counter({name: 0 for name in COUNTERS})
        self.op = None

    def open(self, name, group=None):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, 0.0, self.op, group])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][_END] = perf_counter()

    def exclude(self, seconds):
        for idx in self.stack:
            self.spans[idx][_PAUSED] += seconds

    def in_group(self, group):
        return bool(self.stack) and self.spans[self.stack[-1]][_GROUP] == group

    def self_times(self):
        """Self time per span name: span time minus its children's time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] is not None:
                child[s[_PARENT]] += s[_END] - s[_START] - s[_PAUSED]
        out = Counter()
        for i, s in enumerate(self.spans):
            out[s[_NAME]] += s[_END] - s[_START] - s[_PAUSED] - child[i]
        return out

    def layer_metrics(self):
        times = self.self_times()
        values = {metric: times[metric] for _, _, metric in SPANS}
        values.update(self.counters)
        return values

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "op": s[_OP], "name": s[_NAME], "parent": s[_PARENT],
                    "start": s[_START], "end": s[_END], "paused": s[_PAUSED],
                }) + "\n")


def _span_wrapper(tracer, fn, metric, group, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if group is not None and tracer.in_group(group):
            return fn(*args, **kwargs)
        tracer.open(metric, group)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            start = perf_counter()
            after(tracer, args, kwargs, result)
            tracer.exclude(perf_counter() - start)
        return result

    return wrapper


def _count_wrapper(tracer, fn, counter):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _poly_mul_wrapper(tracer, fn, poly_cls):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(self, other):
        if isinstance(other, poly_cls):
            counters["poly.mul_calls"] += 1
        return fn(self, other)

    return wrapper


def install(tracer):
    """Wrap every traced callable; returns a function that restores them."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "tetrahess" or name.startswith("tetrahess."))]
    undo = []

    def replace_everywhere(original, wrapper):
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, name, value))
                    setattr(module, name, wrapper)

    def replace_method(cls, name, wrapper):
        for attr, value in list(vars(cls).items()):  # aliases such as __matmul__
            if value is vars(cls)[name] and attr != name:
                undo.append((cls, attr, value))
                setattr(cls, attr, wrapper)
        undo.append((cls, name, vars(cls)[name]))
        setattr(cls, name, wrapper)

    for module_name, attr, metric in SPANS:
        module = sys.modules[module_name]
        owner, _, method = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            fn = vars(cls)[method]
            replace_method(cls, method, _span_wrapper(tracer, fn, metric, owner, None))
        else:
            fn = getattr(module, attr)
            replace_everywhere(fn, _span_wrapper(tracer, fn, metric, None, AFTER.get(attr)))
    for module_name, attr, counter in COUNTED:
        owner, _, method = attr.rpartition(".")
        cls = getattr(sys.modules[module_name], owner)
        replace_method(cls, method, _count_wrapper(tracer, vars(cls)[method], counter))
    poly_cls = sys.modules["tetrahess.poly"].Poly
    replace_method(poly_cls, "__mul__", _poly_mul_wrapper(tracer, vars(poly_cls)["__mul__"], poly_cls))

    def restore():
        for target, name, value in reversed(undo):
            setattr(target, name, value)

    return restore
