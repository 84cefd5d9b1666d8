"""Command-line front end.

Subcommands: ``jp`` (generate Jacobi-Pineiro alphas), ``jp-scan`` (CSV region
scan), ``factor`` (bidiagonal factorization of a matrix file), ``polys``
(recursion polynomials), ``darboux`` (transformed matrices), ``verify``
(exact identity suites).  ``jp-scan`` reads both its flags off the signs of
the closed forms: the oscillation flag of T^[4] through the signs of its
bidiagonal factors, with the dense TN check only where those signs cannot
tell.  Machine-readable JSON goes to stdout (or --out);
one-line human summaries go to stderr.  Identical argv and input files give
byte-identical output.

Exit codes: 0 success (for ``factor``: PBF), 1 verification failure (for
``factor``: TN), 2 (``factor``: INDEFINITE), 64 usage, 65 bad input,
70 computation error, 73 an ``--out`` file that cannot be written (the
sysexits EX_CANTCREAT; stdout stays empty).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import signal
import sys
from fractions import Fraction

from .core import bands_from_alphas, leading_principal, tetra_from_alphas
from .darboux import (
    CHRISTOFFEL_IDENTITIES,
    akv_sign_checks,
    alphas_from_polynomials,
    darboux_transform,
    verify_christoffel,
)
from .errors import (BandExhausted, ConsistencyViolation, IdentityViolation, NonPositiveSubSubDiagonal,
                     OutsideNaturalRegion, PredictionMismatch, SignViolation, TetraError)
from .factorization import bidiagonal_factor
from .families import (
    JP_VERIFICATION_GRID,
    JPParams,
    Variant,
    _jp_is_pbf,
    _jp_oscillatory,
    jp_alphas,
    jp_certificate,
)
from .polynomials import _KINDS, _runs, second_kind_sequences, type1_sequences, type2_sequence
from .scalars import format_ratio, format_scalar, parse_int, parse_scalar
from .serialize import DEFAULT_GENERATOR_COUNT, MAX_GENERATOR_COUNT, dump_alphas, dump_matrix, load_alphas, load_matrix

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 64
EXIT_INPUT = 65
EXIT_COMPUTE = 70
EXIT_CANTCREAT = 73

#: Fixed sample points for the akv suite.
AKV_XS = (Fraction(0), Fraction(1, 4), Fraction(1), Fraction(4), Fraction(10))


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class OutputError(Exception):
    pass


class VerificationFailure(Exception):
    """A verify suite's check failed; _cmd_verify prefixes the suite name."""


#: What a verify suite reports as "fail": an identity, sign, prediction or
#: consistency check that came out false.
_VIOLATIONS = (VerificationFailure, IdentityViolation, SignViolation,
               PredictionMismatch, ConsistencyViolation)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let bare negative rationals ("-1/2") through as option values
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise UsageError(message)


def _write(payload: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                print(payload, file=fh)
        except OSError as exc:
            raise OutputError(f"{out_path}: {exc.strerror or exc}") from exc
    else:
        # flushed before any summary, so a closed stdout ends the process
        # (SIGPIPE from entry()) before anything reaches stderr
        print(payload, flush=True)


def _emit(payload: str, out_path, summary: str):
    _write(payload, out_path)
    print(summary, file=sys.stderr)


def _unique_keys(pairs):
    """The members of one JSON object as a dict.  A key given twice is
    refused (ValueError, bad input), not read as its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # numbers are read exactly at any length, as parse_scalar reads a string
            return json.load(fh, parse_float=parse_scalar, parse_int=parse_int, object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


#: Raised by loading when the file is at fault: a malformed payload or entry
#: ("1/0"), parameters outside the natural region or a non-positive a_n.
_BAD_INPUT = (ValueError, KeyError, TypeError, OutsideNaturalRegion, NonPositiveSubSubDiagonal)


def _load_file(load, path):
    try:
        return load(_read_json(path))
    except _BAD_INPUT as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_flag_scalar(text, flag):
    try:
        return parse_scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag}: cannot parse {text!r}") from exc


def _cmd_jp(args):
    params = JPParams(
        alpha=_parse_flag_scalar(args.alpha, "--alpha"),
        beta=_parse_flag_scalar(args.beta, "--beta"),
        gamma=_parse_flag_scalar(args.gamma, "--gamma"),
    )
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    if args.count > MAX_GENERATOR_COUNT:
        raise UsageError(f"--count must be <= {MAX_GENERATOR_COUNT}")
    seq = jp_alphas(params, Variant(args.variant), args.count)
    values = [format_scalar(v) for v in seq.values]
    if args.out:
        payload = json.dumps(dump_alphas(seq), indent=2)
        _emit(payload, args.out, f"jp: wrote {args.count} entries to {args.out}")
    else:
        _emit(
            json.dumps(values, separators=(",", ":")),
            None,
            f"jp: {args.count} entries, variant {args.variant}",
        )
    return EXIT_OK


#: The (alpha, beta) of the verification grid, each once, in grid order.
_JP_SCAN_BASES = tuple(dict.fromkeys((p.alpha, p.beta) for p in JP_VERIFICATION_GRID))


def _cmd_jp_scan(args):
    gamma = _parse_flag_scalar(args.gamma, "--gamma")
    lines = ["alpha,beta,region,pbf_flag,oscillatory_flag"]
    for alpha, beta in _JP_SCAN_BASES:
        params = JPParams(alpha=alpha, beta=beta, gamma=gamma)
        pbf = _jp_is_pbf(params, Variant.AKV, 24)
        osc = _jp_oscillatory(params, 4)
        lines.append(
            f"{format_scalar(alpha)},{format_scalar(beta)},{params.region},"
            f"{str(pbf).lower()},{str(osc).lower()}"
        )
    _emit("\n".join(lines), args.out, f"jp-scan: {len(_JP_SCAN_BASES)} grid points at gamma = {args.gamma}")
    return EXIT_OK


def _cmd_factor(args):
    t = _load_file(load_matrix, args.input)
    alpha2 = _parse_flag_scalar(args.alpha2, "--alpha2")
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    seq = bidiagonal_factor(t, args.n, alpha2)
    cls = seq.classify()
    body = dump_alphas(seq)
    body["classification"] = str(cls)
    _emit(
        json.dumps(body, indent=2),
        args.out,
        f"factor: {seq.length} parameters, classification {cls}",
    )
    return {"PBF": 0, "TN": 1, "INDEFINITE": 2}[str(cls)]


def _polys_json(body) -> str:
    """json.dumps(body, indent=2), byte for byte, for a polys body: each
    name maps to a nonempty list of values (strings) or of coefficient
    lists (lists of strings, [] for the zero polynomial).  The strings are
    format_ratio's digits, "-" and "/", which JSON escapes not at all.

    The pure-Python encoder that indent=2 selects walks every string; here
    each list of strings is one join and the text one more, with no
    per-string concatenation."""
    parts = []
    for name, items in body.items():
        parts += (",\n  " if parts else "{\n  ", json.dumps(name), ": [\n    ")
        if isinstance(items[0], str):
            parts += ('"', '",\n    "'.join(items), '"')
        else:
            for i, coeffs in enumerate(items):
                if i:
                    parts.append(",\n    ")
                if coeffs:
                    parts += ('[\n      "', '",\n      "'.join(coeffs), '"\n    ]')
                else:
                    parts.append("[]")
        parts.append("\n  ]")
    parts.append("\n}")
    return "".join(parts)


def _cmd_polys(args):
    t = _load_file(load_matrix, args.input)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    nu = None
    if args.nu is not None:
        # checked for every kind, though type2 does not read it
        nu = _parse_flag_scalar(args.nu, "--nu")
        if nu == 0:
            raise UsageError("--nu must be nonzero")
    elif args.kind != "type2":
        raise UsageError(f"--kind {args.kind} requires --nu")
    names = _KINDS[args.kind]
    if args.at is not None:
        try:
            x = _parse_flag_scalar(args.at, "--at")
        except UsageError:
            # --n past the rows supplied is reported before a bad --at
            _runs(t, args.n, names, nu, (0,))
            raise
        # each value as sequence_values gives it, printed from its int pair
        [runs] = _runs(t, args.n, names, nu, (x,))
        body = {k: [format_ratio(v, d) for v, d in zip(*run)] for k, run in runs.items()}
    else:
        if args.kind == "type2":
            seqs = [type2_sequence(t, args.n)]
        elif args.kind == "type1":
            seqs = type1_sequences(t, args.n, nu)
        else:
            seqs = second_kind_sequences(t, args.n, nu)
        body = {k: [[format_ratio(v, p.den) for v in p.num] for p in seq] for k, seq in zip(names, seqs)}
    _emit(_polys_json(body), args.out, f"polys: kind {args.kind}, indices 0..{args.n}")
    return EXIT_OK


def _cmd_darboux(args):
    t = darboux_transform(_load_file(load_alphas, args.alphas), args.which)
    t.c(0)  # raises BandExhausted when the alphas do not reach row 0
    body = dump_matrix(t)
    _emit(
        json.dumps(body, indent=2),
        args.out,
        f"darboux: {args.which} bands down to row {t.materializable_n()}",
    )
    return EXIT_OK


def _suite_charpoly(t, _alphas, n):
    b = type2_sequence(t, n + 1)
    m = leading_principal(t, n)
    dense = m.leading_char_polys()
    for k in range(n + 1):
        if b[k + 1] != dense[k + 1]:
            raise VerificationFailure(f"B_{k + 1} differs from the dense oracle")
    if n >= 1:
        b1, _, small = second_kind_sequences(t, n + 1, Fraction(-1))
        # entry k of the first list is det(xI - T^[k,1]), of the second det(xI - T^[k+1,2])
        dense1, dense2 = (m.principal_block(k, m.n).leading_char_polys() for k in (1, 2))
        for k in range(1, n + 1):
            if b1[k + 1] != dense1[k]:
                raise VerificationFailure(f"B^(1)_{k + 1} differs from the k=1 trailing oracle")
            if small[k + 1] != dense2[k - 1]:
                raise VerificationFailure(f"b^(1)_{k + 1} differs from the k=2 trailing oracle")
    # a mismatch raises, so a report made every comparison: N + 1, then two per k
    return {"suite": "charpoly", "checked": 3 * n + 1}


def _suite_tn(t, _alphas, n):
    # imported here, so no other command loads the TN checker
    from .tncheck import POWER_ORACLE_CAP, _some_power_totally_positive, is_totally_nonnegative

    depth = min(n, POWER_ORACLE_CAP - 1)
    # T^[k] is the leading (k + 1) x (k + 1) block of T^[depth]
    whole = leading_principal(t, depth)
    for k in range(1, depth + 1):
        m = whole.principal_block(0, k + 1)
        report = is_totally_nonnegative(m)
        # the power oracle, gated on the TN check just made rather than a second one
        oracle = report.is_tn and _some_power_totally_positive(m)
        if report.is_oscillatory_gk != oracle:
            raise VerificationFailure(
                f"GK verdict {report.is_oscillatory_gk} disagrees with power oracle {oracle} at N={k}"
            )
    # a disagreement raises, so a report compared every depth
    return {"suite": "tn", "checked": depth}


def _suite_roundtrip(t, alphas, n):
    alpha2 = alphas.at(2)
    recovered = bidiagonal_factor(t, n, alpha2)
    if recovered.values != alphas.prefix(recovered.length):
        raise VerificationFailure("bidiagonal_factor did not reproduce the alphas")
    # the recovered factors give L = L1 L2 with p + q = m and p_k q_{k-1} = l_k,
    # exactly the L of T^[N]'s Gauss-Borel data; L*U and T^[N] both have a
    # unit superdiagonal and zeros outside the four bands, so comparing the
    # other three bands compares the matrices
    c, b, a = bands_from_alphas(recovered)
    if (
        c != tuple(t.c(i) for i in range(n + 1))
        or b != tuple(t.b(i) for i in range(1, n + 1))
        or a != tuple(t.a(i) for i in range(2, n + 1))
    ):
        raise VerificationFailure("L*U does not reproduce the truncation")
    # the polynomial-valued reconstruction needs nu = -1/alpha_2
    if alpha2 != 0:
        reconstructed = alphas_from_polynomials(t, n, alpha2)
        if reconstructed.values != alphas.prefix(reconstructed.length):
            raise VerificationFailure("alphas_from_polynomials did not reproduce the alphas")
    return {"suite": "roundtrip", "n": n, "recovered": recovered.length}


def _suite_christoffel(t, alphas, n):
    verify_christoffel(t, alphas, n)
    # a failed identity raises, so a return checked each one at every k <= N
    return {"suite": "christoffel", "n": n, "checked": len(CHRISTOFFEL_IDENTITIES) * (n + 1)}


def _suite_akv(t, alphas, n):
    report = akv_sign_checks(t, alphas, n, AKV_XS)
    return {
        "suite": "akv",
        "n": n,
        "checked": report.checked,
        "max_value": format_scalar(report.max_value),
        "zeros_at_origin": report.zeros_at_origin,
    }


def _suite_jp_consistency(_t, _alphas, _n):
    for params in JP_VERIFICATION_GRID:
        jp_certificate(params)
    return {"suite": "jp-consistency", "points": len(JP_VERIFICATION_GRID)}


#: Each verify suite, in the order ``all`` runs them: its check, called as
#: check(t, alphas, n), and what it reads ("matrix": --input or --alphas;
#: "alphas": --alphas, and the matrix they define unless --input is given).
_SUITES = {
    "tn": (_suite_tn, "matrix"),
    "christoffel": (_suite_christoffel, "alphas"),
    "akv": (_suite_akv, "alphas"),
    "roundtrip": (_suite_roundtrip, "alphas"),
    "charpoly": (_suite_charpoly, "matrix"),
    "jp-consistency": (_suite_jp_consistency, None),
}
VERIFY_SUITES = tuple(_SUITES)


def _cmd_verify(args):
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    suites = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    for suite in ("christoffel", "tn"):
        if args.n == 0 and suite in suites:
            raise UsageError(f"--n must be >= 1 for the {suite} suite")

    alphas = _load_file(load_alphas, args.alphas) if args.alphas else None
    if args.input:
        t = _load_file(load_matrix, args.input)
    elif alphas is not None:
        try:
            t = tetra_from_alphas(alphas)
        except NonPositiveSubSubDiagonal as exc:
            raise InputError(f"{args.alphas}: {exc}") from exc
    else:
        t = None

    results = []
    for suite in suites:
        check, reads = _SUITES[suite]
        if reads and t is None:
            raise InputError("this suite needs --input or --alphas")
        if reads == "alphas" and alphas is None:
            raise InputError("this suite needs --alphas")
        try:
            results.append(check(t, alphas, args.n))
        except _VIOLATIONS as exc:
            error = f"{suite}: {exc}"
            print(f"verification failure: {error}", file=sys.stderr)
            body = {"status": "fail", "error": error}
            break
        except BandExhausted as exc:
            # too few rows or alphas for --n is missing data, not a failed identity
            raise InputError(f"{suite}: {exc}") from exc
        except TetraError as exc:
            # an unmet precondition (non-PBF alphas, a zero origin value, a
            # singular minor) is a computation error, not a failed identity
            raise TetraError(f"{suite}: {exc}") from exc
        print(f"verify {suite}: pass", file=sys.stderr)
    else:
        body = {"status": "pass", "n": args.n, "suites": results}
    _write(json.dumps(body, indent=2), args.out)
    return EXIT_OK if body["status"] == "pass" else EXIT_VERIFICATION


def build_parser() -> _Parser:
    parser = _Parser(prog="tetrahess", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jp", help="generate Jacobi-Pineiro alphas")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--variant", choices=("first", "akv"), default="first")
    p.add_argument("--count", type=int, default=DEFAULT_GENERATOR_COUNT)
    p.add_argument("--out")

    p = sub.add_parser("jp-scan", help="CSV region scan over the fixed grid")
    p.add_argument("--gamma", default="0")
    p.add_argument("--out")

    p = sub.add_parser("factor", help="bidiagonal factorization of a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha2", required=True)
    p.add_argument("--out")

    p = sub.add_parser("polys", help="recursion polynomial sequences")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("type2", "type1", "second"), required=True)
    p.add_argument("--nu")
    p.add_argument("--at")
    p.add_argument("--out")

    p = sub.add_parser("darboux", help="Darboux-transformed matrix")
    p.add_argument("--alphas", required=True)
    p.add_argument("--which", choices=("hat", "hathat"), required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="exact verification suites")
    p.add_argument("--suite", choices=VERIFY_SUITES + ("all",), required=True)
    p.add_argument("--alphas")
    p.add_argument("--input")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--out")

    return parser


_COMMANDS = {
    "jp": _cmd_jp,
    "jp-scan": _cmd_jp_scan,
    "factor": _cmd_factor,
    "polys": _cmd_polys,
    "darboux": _cmd_darboux,
    "verify": _cmd_verify,
}


# built on the first main() call, not at import, and reused by every later one
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, BandExhausted, OutsideNaturalRegion) as exc:
        # --n past the rows or alphas supplied, and Jacobi-Pineiro parameters
        # outside the natural region, are bad input like a malformed file
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TetraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT


def entry():
    """Console-script entry point.  A closed stdout (``tetrahess ... | head``)
    ends the process quietly, as it does any Unix filter."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
