"""The three workloads: seeded inputs, the operations run on them, and the
check each operation's output must pass.

An operation is one CLI invocation (``tetrahess.cli.main(argv)`` in-process,
stdout and stderr captured) or, where the CLI cannot reach a layer, one
library call.  Inputs come only from the benchmark's seed; the program sees
nothing but the generated files and values.  Every check is computed by
``reference`` (or is a verdict known by construction), never by the code
being timed.

Work is grouped in rounds.  A round has a fixed mix of operation kinds and
sizes and fresh inputs drawn from ``Random(f"{workload}:{seed}:{round}")``,
so round r is the same whatever the timing, and summary statistics do not
depend on how many rounds a run completes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import reference as ref
from reference import expect

# run.load_program() puts src/ on sys.path first.  Functions are looked up on
# these modules at call time, so the traced run sees its wrappers.
from tetrahess import cli, core, families, tncheck


@dataclass
class Op:
    kind: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


class Inputs:
    """Writes the input files of one run into its own directory."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def write(self, payload):
        self.count += 1
        path = self.directory / f"in{self.count}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)


# -- input generation ---------------------------------------------------------


def rand_alphas(rng, count, height):
    """A PBF sequence: ``count`` positive rationals p/q, 1 <= p, q <= height, in
    random order.  The values cycle through every (p, q) pair before the
    shuffle, so sequences of one length and height share one multiset and
    differ in cost only through their order."""
    pairs = [Fraction(p, q) for p in range(1, height + 1) for q in range(1, height + 1)]
    values = (pairs * (count // len(pairs) + 1))[:count]
    rng.shuffle(values)
    return values


def jp_point(rng, region):
    """Jacobi-Pineiro (alpha, beta, gamma) on a half-integer grid with
    d = alpha - beta = 3/2, 1/2, -1/2, -3/2 in R1..R4.  |d| < 2, where the
    region sign table pins every alpha's sign; one denominator keeps the
    cost of the closed forms alike from point to point."""
    d = {"R1": Fraction(3, 2), "R2": Fraction(1, 2), "R3": Fraction(-1, 2), "R4": Fraction(-3, 2)}[region]
    low = Fraction(rng.randint(0, 3), 2)
    alpha, beta = (low + d, low) if d > 0 else (low, low - d)
    return alpha, beta, Fraction(rng.randint(0, 2), 2)


def rand_rational(rng):
    v = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    return -v if rng.random() < 0.5 else v


def fmt(values):
    return [str(v) for v in values]


def matrix_payload(alphas, rows):
    a, b, c = ref.bands(alphas, rows)
    return {"a": fmt(a), "b": fmt(b), "c": fmt(c), "start_index": {"a": 2, "b": 1, "c": 0}}


# -- checks -------------------------------------------------------------------


def parse_json(result):
    try:
        return json.loads(result.out)
    except json.JSONDecodeError as exc:
        raise ref.CheckFailed(f"stdout is not JSON: {exc}") from exc


def check_exit(result, code):
    expect(result.code == code, f"exit code {result.code}, expected {code}: {result.err.strip()[-200:]}")


def as_fractions(strings):
    return [Fraction(s) for s in strings]


def suite_expectation(suite, n):
    """The verify report of one suite on a PBF sequence holding 3n + 6 alphas."""
    return {
        "tn": {"suite": "tn", "checked": min(n, 5)},
        "christoffel": {"suite": "christoffel", "n": n, "checked": 6 * (n + 1)},
        "akv": {"suite": "akv", "n": n, "checked": 12 * 5 * (n + 1)},
        "roundtrip": {"suite": "roundtrip", "n": n, "recovered": 3 * n + 1},
        "charpoly": {"suite": "charpoly", "checked": 3 * n + 1},
        "jp-consistency": {"suite": "jp-consistency", "points": 16},
    }[suite]


def check_verify_pass(result, suites, n):
    check_exit(result, 0)
    body = parse_json(result)
    expect(body.get("status") == "pass" and body.get("n") == n, f"verify status {body.get('status')}")
    reports = body.get("suites", [])
    expect([r.get("suite") for r in reports] == list(suites), "verify ran other suites")
    for report in reports:
        want = suite_expectation(report["suite"], n)
        got = dict(report)
        if report["suite"] == "akv":
            expect(Fraction(got.pop("max_value")) <= 0, "akv max_value is positive")
            zeros = got.pop("zeros_at_origin")
            expect(isinstance(zeros, int) and zeros >= 0, "akv zeros_at_origin is not a count")
        expect(got == want, f"{report['suite']} report {got} != {want}")


def check_identity_violation(result):
    check_exit(result, 1)
    body = parse_json(result)
    expect(body.get("status") == "fail", "verify did not fail")
    expect(body.get("error", "").startswith("christoffel: identity "),
           f"failure is not an identity violation: {body.get('error')}")


# -- verify-sweep ---------------------------------------------------------------
# Each round sweeps two alpha files (random rationals, then a JP point in R3,
# where the AKV alphas are PBF) over rising --n with `verify --suite all`, from
# n = 4 up to the depth where one op takes about a second.  The dense Faddeev-LeVerrier
# oracle of the charpoly suite dominates; the tn and jp-consistency suites are
# fixed costs per op.  Consecutive ops share one input, so a cross-call cache
# would show here and nowhere else.  Each file also gets one christoffel op
# against an unrelated matrix, which must fail with an identity violation.

VERIFY_SUITES = ("tn", "christoffel", "akv", "roundtrip", "charpoly", "jp-consistency")


def verify_sweep_round(inputs, rng, tiny):
    sweep = range(1, 4) if tiny else range(4, 15)
    n_max = sweep[-1]
    count = 3 * n_max + 6
    ops = []
    for source in ("random", "jp-r3"):
        if source == "random":
            payload = {"alpha": fmt(rand_alphas(rng, count, 6))}
        else:
            alpha, beta, gamma = jp_point(rng, "R3")
            payload = {"generator": {"name": "jacobi-pineiro", "alpha": str(alpha), "beta": str(beta),
                                     "gamma": str(gamma), "variant": "akv", "count": count}}
        path = inputs.write(payload)
        for n in sweep:
            argv = ["verify", "--suite", "all", "--alphas", path, "--n", str(n)]
            ops.append(Op("verify-all", n, partial(cli_call, argv),
                          partial(check_verify_pass, suites=VERIFY_SUITES, n=n)))
        n_fail = rng.randint(1, n_max)
        other = inputs.write(matrix_payload(rand_alphas(rng, 3 * n_max + 10, 6), n_max + 3))
        argv = ["verify", "--suite", "christoffel", "--alphas", path, "--input", other, "--n", str(n_fail)]
        ops.append(Op("verify-christoffel-fail", n_fail, partial(cli_call, argv), check_identity_violation))
    return ops


# -- recurrence-deep -------------------------------------------------------------
# Recurrences, Poly arithmetic, the Darboux brackets and CLI JSON output do the
# work; dense oracles and tncheck are bypassed.  Value ops (--at) sit beside
# coefficient ops, so a scalar path that speeds one must show it does not slow
# the other.  Every op gets fresh alphas.  Heights alternate over the (kind, N)
# grid, because coefficient bit growth drives Fraction cost; the grid is the
# same in every round, so every round has the same mix.  Roundtrip stays at
# N <= 30: its L*U check is a dense O(N^3) product.

HEIGHTS = (3, 12)

RECURRENCE_KINDS = (
    ("polys-type2", (40, 80, 120)),
    ("polys-type1", (40, 80, 120)),
    ("polys-second", (30, 60, 90)),
    ("polys-type2-at", (50, 100, 150)),
    ("polys-type1-at", (50, 100, 150)),
    ("polys-second-at", (50, 100, 150)),
    ("factor", (50, 100, 150)),
    ("darboux-hat", (50, 100, 150)),
    ("darboux-hathat", (50, 100, 150)),
    ("verify-christoffel", (30, 60, 90)),
    ("verify-akv", (20, 40, 60)),
    ("verify-roundtrip", (10, 20, 30)),
)

POLY_NAMES = {"type2": ("B",), "type1": ("A1", "A2"), "second": ("B1", "B2", "b1")}


def reference_values(kind, alphas, n, nu, x):
    a, b, c = ref.bands(alphas, n)
    if kind == "type2":
        return (ref.type2_values(a, b, c, n, x),)
    if kind == "type1":
        return ref.type1_values(a, b, c, n, nu, x)
    return ref.second_kind_values(a, b, c, n, nu, x)


def check_polys(result, kind, alphas, n, nu, x, at):
    check_exit(result, 0)
    body = parse_json(result)
    names = POLY_NAMES[kind]
    expect(sorted(body) == sorted(names), f"polys keys {sorted(body)}")
    for name, want in zip(names, reference_values(kind, alphas, n, nu, x)):
        got = body[name]
        expect(len(got) == n + 1, f"{name}: {len(got)} entries, expected {n + 1}")
        if at:
            expect(as_fractions(got) == want, f"{name}: values at {x} differ from the recurrence")
            continue
        for k, (coeffs, value) in enumerate(zip(got, want)):
            if kind == "type2":
                expect(len(coeffs) == k + 1 and coeffs[-1] == "1", f"B_{k} is not monic of degree {k}")
            expect(ref.poly_matches_value(coeffs, x, value), f"{name}_{k}({x}) differs from the recurrence")


def check_factor(result, alphas):
    check_exit(result, 0)
    body = parse_json(result)
    expect(as_fractions(body["alpha"]) == alphas, "factor did not recover the generating alphas")
    expect(all(v > 0 for v in alphas) and body.get("classification") == "PBF",
           f"classification {body.get('classification')}, expected PBF")


def check_darboux(result, alphas, which):
    check_exit(result, 0)
    body = parse_json(result)
    a, b, c = ref.darboux_bands(alphas, which)
    for name, want in (("a", a), ("b", b), ("c", c)):
        expect(as_fractions(body[name]) == want, f"{which} band {name} differs from the band products")


def recurrence_op(inputs, rng, kind, n, height):
    if kind.startswith("polys-"):
        family = kind.split("-")[1]
        at = kind.endswith("-at")
        alphas = rand_alphas(rng, 3 * n + 1, height)
        path = inputs.write(matrix_payload(alphas, n))
        nu = rand_rational(rng)
        x = rand_rational(rng)
        argv = ["polys", "--input", path, "--n", str(n), "--kind", family]
        if family != "type2":
            argv += ["--nu", str(nu)]
        if at:
            argv += ["--at", str(x)]
        return Op(kind, n, partial(cli_call, argv),
                  partial(check_polys, kind=family, alphas=alphas, n=n, nu=nu, x=x, at=at))
    if kind == "factor":
        alphas = rand_alphas(rng, 3 * n + 1, height)
        path = inputs.write(matrix_payload(alphas, n))
        argv = ["factor", "--input", path, "--n", str(n), "--alpha2", str(alphas[1])]
        return Op(kind, n, partial(cli_call, argv), partial(check_factor, alphas=alphas))
    if kind.startswith("darboux-"):
        which = kind.split("-")[1]
        alphas = rand_alphas(rng, 3 * n + 3, height)
        path = inputs.write({"alpha": fmt(alphas)})
        argv = ["darboux", "--alphas", path, "--which", which]
        return Op(kind, n, partial(cli_call, argv), partial(check_darboux, alphas=alphas, which=which))
    suite = kind.split("-")[1]
    path = inputs.write({"alpha": fmt(rand_alphas(rng, 3 * n + 6, height))})
    argv = ["verify", "--suite", suite, "--alphas", path, "--n", str(n)]
    return Op(kind, n, partial(cli_call, argv), partial(check_verify_pass, suites=(suite,), n=n))


def recurrence_deep_round(inputs, rng, tiny):
    ops = []
    for i, (kind, sizes) in enumerate(RECURRENCE_KINDS):
        for j, n in enumerate((4, 7) if tiny else sizes):
            ops.append(recurrence_op(inputs, rng, kind, n, HEIGHTS[(i + j) % 2]))
    rng.shuffle(ops)
    return ops


# -- tn-probe -------------------------------------------------------------------
# tncheck minor enumeration dominates; recurrences are bypassed.  Certification
# (PBF truncations, and JP points in R2, whose first parametrization is TN
# there) scans every minor; refutation (JP points in R1 and R4) stops at the
# first negative entry, whose place the region fixes.  Both use one layer in
# opposite ways, so a faster certificate must not cost the witness path.

EXPECTED_WITNESS = {"R1": ((4,), (2,)), "R4": ((3,), (1,))}

JP_SCAN_GRID = (
    ("3/2", "0"), ("5/2", "1"), ("1/2", "0"), ("3/2", "1"),
    ("0", "1/2"), ("1", "3/2"), ("0", "3/2"), ("1", "5/2"),
)


def region_of(alpha, beta):
    d = Fraction(alpha) - Fraction(beta)
    return "R1" if d > 1 else "R2" if d > 0 else "R3" if d > -1 else "R4"


def check_certified(result, dim, alphas=None):
    m, report = result
    if alphas is not None:
        a, b, c = ref.bands(alphas, dim - 1)
        for i in range(dim):
            for j in range(dim):
                want = (c[i] if j == i else 1 if j == i + 1 else b[i - 1] if j == i - 1
                        else a[i - 2] if j == i - 2 else 0)
                expect(m.rows[i][j] == want, f"truncation entry ({i}, {j}) differs from the bands")
    expect(report.is_tn is True and report.conclusive and report.witness is None, "TN not certified")
    expect(report.minors_checked == math.comb(2 * dim, dim) - 1,
           f"{report.minors_checked} minors checked, expected every one")
    expect(report.is_nonsingular and report.is_oscillatory_gk, "not certified oscillatory")


def check_refuted(result, region):
    m, report = result
    found = ref.first_negative_entry(m.rows)
    expect(found is not None, "no negative entry to refute with")
    witness, position = found
    expect(witness[:2] == EXPECTED_WITNESS[region], f"{region} witness at {witness[:2]}")
    expect(report.is_tn is False and report.conclusive, "TN not refuted")
    expect(report.witness == witness and report.minors_checked == position,
           f"witness {report.witness} after {report.minors_checked} minors, expected {witness} at {position}")


def check_power_oracle(result):
    expect(result is True, "power oracle did not find an oscillatory PBF truncation")


def check_jp_scan(result):
    check_exit(result, 0)
    lines = ["alpha,beta,region,pbf_flag,oscillatory_flag"]
    for alpha, beta in JP_SCAN_GRID:
        region = region_of(alpha, beta)
        pbf = region == "R3"  # AKV alphas are PBF exactly in R3
        osc = region in ("R2", "R3")  # the first parametrization is TN in the strip
        lines.append(f"{alpha},{beta},{region},{str(pbf).lower()},{str(osc).lower()}")
    expect(result.out.splitlines() == lines, "jp-scan table differs from the region verdicts")


def tn_truncation(t, dim):
    m = core.leading_principal(t, dim - 1)
    return m, tncheck.is_totally_nonnegative(m)


def tn_jp(params, dim):
    m = families.jp_dense_truncation(params, dim - 1)
    return m, tncheck.is_totally_nonnegative(m)


def power_oracle(t, dim):
    return tncheck.is_oscillatory_power_oracle(core.leading_principal(t, dim - 1))


def tn_probe_round(inputs, rng, tiny):
    dims = (4, 5) if tiny else (5, 6, 7, 8)
    oracle_dims = (3, 4) if tiny else (4, 5, 6)
    alphas = rand_alphas(rng, 3 * max(dims) + 1, 4)
    t = core.tetra_from_alphas(core.AlphaSequence(values=alphas))
    ops = [Op("tn-certify-pbf", d, partial(tn_truncation, t, d), partial(check_certified, dim=d, alphas=alphas))
           for d in dims]
    for region in ("R2", "R1", "R4"):
        alpha, beta, gamma = jp_point(rng, region)
        params = families.JPParams(alpha=alpha, beta=beta, gamma=gamma)
        for d in dims:
            if region == "R2":
                ops.append(Op("tn-certify-r2", d, partial(tn_jp, params, d), partial(check_certified, dim=d)))
            else:
                ops.append(Op(f"tn-refute-{region.lower()}", d, partial(tn_jp, params, d),
                              partial(check_refuted, region=region)))
    ops += [Op("power-oracle", d, partial(power_oracle, t, d), check_power_oracle) for d in oracle_dims]
    ops += [Op("jp-scan", 5, partial(cli_call, ["jp-scan", "--gamma", g]), check_jp_scan) for g in ("0", "1/2")]
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable
    tail_percentile: float  # highest with >= 10 ops beyond it in a full-size run
    min_rounds: int         # rounds that give those 10 ops
    trace_rounds: int       # rounds in the traced run (a fixed count, so counters repeat)

    def round(self, inputs, seed, r, tiny=False):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        return self.make_round(inputs, rng, tiny)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-sweep", verify_sweep_round, 75, 2, 1),
        Workload("recurrence-deep", recurrence_deep_round, 90, 3, 1),
        Workload("tn-probe", tn_probe_round, 99, 48, 10),
    )
}
