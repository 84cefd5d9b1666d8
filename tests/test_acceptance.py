"""Acceptance battery: ten exact-identity criteria over randomized corpora.

Every check is exact (tolerance zero) unless stated otherwise; failures
collect human-readable descriptions so a broken criterion reports every
offending instance, not just the first.  Each test prints a single
"criterion N: PASS/FAIL" line.
"""

import time
from fractions import Fraction as F

import pytest

from tetrahess import (
    JP_VERIFICATION_GRID,
    Classification,
    Region,
    Variant,
    JPParams,
    akv_sign_checks,
    alphas_from_polynomials,
    bidiagonal_factor,
    darboux_transforms,
    gauss_borel,
    is_oscillatory,
    is_oscillatory_power_oracle,
    is_totally_nonnegative,
    jp_alphas,
    jp_cross_consistency,
    jp_dense_truncation,
    jp_sign_report,
    leading_principal,
    second_kind_sequences,
    tetra_from_alphas,
    trailing_truncation,
    transformed_type2,
    truncation_mismatch,
    type2_sequence,
    verify_christoffel,
)

from conftest import lu_product, matrix_corpus, pbf_corpus

SEED_MATRICES = 20260814
SEED_PBF = 97

NUS = (F(-1), F(2), F(-1, 3))
AKV_XS = (F(0), F(1, 4), F(1), F(4), F(10))


@pytest.fixture(scope="module")
def matrices():
    # 50 exact tetradiagonal matrices, entries in [1, 5], truncations N in [2, 10]
    return matrix_corpus(SEED_MATRICES, 50, n_lo=2, n_hi=10)


@pytest.fixture(scope="module")
def pbf_alphas():
    # 50 PBF alpha sequences, entries in (0, 3], length 31
    return pbf_corpus(SEED_PBF, 50, count=31)


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} - {label}")
    assert not failures, f"criterion {num}: {len(failures)} failure(s): " + "; ".join(
        failures[:5]
    )


def test_criterion_01_characteristic_polynomial_identity(matrices):
    failures = []
    started = time.monotonic()
    for idx, (t, n) in enumerate(matrices):
        seq = type2_sequence(t, n + 1)
        oracle = leading_principal(t, n).char_poly()
        if seq[n + 1].coeffs != oracle.coeffs:
            failures.append(f"matrix {idx}: B_{n + 1} != det oracle")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _verdict(1, "recurrence B_{N+1} equals characteristic oracle", failures)


def test_criterion_02_second_kind_identities(matrices):
    failures = []
    for idx, (t, n) in enumerate(matrices):
        oracle_k1 = trailing_truncation(t, n, 1).char_poly()
        oracle_k2 = trailing_truncation(t, n, 2).char_poly()
        for nu in NUS:
            b1, b2, small = second_kind_sequences(t, n + 1, nu)
            if b1[n + 1].coeffs != oracle_k1.coeffs:
                failures.append(f"matrix {idx}, nu={nu}: B1 != k=1 oracle")
            if small[n + 1].coeffs != oracle_k2.coeffs:
                failures.append(f"matrix {idx}, nu={nu}: b1 != k=2 oracle")
            for k in range(n + 2):
                if b2[k].coeffs != (small[k] + b1[k].scale(-nu)).coeffs:
                    failures.append(f"matrix {idx}, nu={nu}: B2 decomposition at {k}")
                    break
    _verdict(2, "second-kind families match trailing oracles", failures)


def test_criterion_03_factorization_round_trip(pbf_alphas):
    failures = []
    for idx, alphas in enumerate(pbf_alphas):
        n = (alphas.length - 1) // 3  # deepest truncation the alphas support
        t = tetra_from_alphas(alphas)
        recovered = bidiagonal_factor(t, n, alphas.at(2))
        if recovered.prefix(3 * n + 1) != alphas.prefix(3 * n + 1):
            failures.append(f"alphas {idx}: refinement does not round-trip")
        if lu_product(*gauss_borel(t, n)) != leading_principal(t, n):
            failures.append(f"alphas {idx}: LU product != truncation")
    _verdict(3, "bidiagonal refinement and LU round trips", failures)


def test_criterion_04_origin_value_reconstruction(pbf_alphas):
    failures = []
    for idx, alphas in enumerate(pbf_alphas):
        n = (alphas.length - 2) // 3  # reconstruction needs bands one step deeper
        t = tetra_from_alphas(alphas)
        recovered = alphas_from_polynomials(t, n, alphas.at(2))
        if recovered.prefix(3 * n + 1) != alphas.prefix(3 * n + 1):
            failures.append(f"alphas {idx}: origin-value reconstruction mismatch")
        if recovered.at(1) != t.c(0):
            failures.append(f"alphas {idx}: alpha_1 != c_0")
    _verdict(4, "three strands recovered from polynomial origin values", failures)


def test_criterion_05_darboux_band_discrepancy(pbf_alphas):
    failures = []
    n = 8
    for idx, alphas in enumerate(pbf_alphas):
        diff = truncation_mismatch(alphas, n, "hat")
        if set(diff) != {(n, n)}:
            failures.append(f"alphas {idx}: unexpected mismatch cells {sorted(diff)}")
            continue
        band_value, product_value = diff[(n, n)]
        if band_value - product_value != alphas.at(3 * n + 2):
            failures.append(f"alphas {idx}: corner discrepancy != alpha_{3 * n + 2}")
    _verdict(5, "hat bands match truncated products up to the corner alpha", failures)


def test_criterion_06_transformed_eigen_relations(pbf_alphas):
    failures = []
    n = 10
    for idx, alphas in enumerate(pbf_alphas):
        t = tetra_from_alphas(alphas)
        base = type2_sequence(t, n + 1)
        at = alphas.at
        # exact divisibility: both bracket combinations vanish at the origin
        for k in range(n + 1):
            hat_comb = base[k + 1] + base[k].scale(at(3 * k + 1) + at(3 * k))
            if k >= 1:
                hat_comb = hat_comb + base[k - 1].scale(at(3 * k) * at(3 * k - 2))
            hathat_comb = base[k + 1] + base[k].scale(at(3 * k + 1))
            if hat_comb(F(0)) != 0 or hathat_comb(F(0)) != 0:
                failures.append(f"alphas {idx}: bracket not divisible at k={k}")
                break
        tilde, tildetilde = transformed_type2(t, alphas, n)
        hat, hathat = darboux_transforms(alphas)
        for seq, hess, tag in ((tilde, hat, "hat"), (tildetilde, hathat, "hathat")):
            for k in range(n):  # x B_k = B_{k+1} + c_k B_k + b_k B_{k-1} + a_k B_{k-2}
                rhs = seq[k + 1] + seq[k].scale(hess.c(k))
                if k >= 1:
                    rhs = rhs + seq[k - 1].scale(hess.b(k))
                if k >= 2:
                    rhs = rhs + seq[k - 2].scale(hess.a(k))
                if seq[k].times_x().coeffs != rhs.coeffs:
                    failures.append(f"alphas {idx}: {tag} recurrence fails at k={k}")
                    break
    _verdict(6, "transformed families satisfy the transformed recurrences", failures)


def test_criterion_07_christoffel_correspondence(pbf_alphas):
    failures = []
    n = 8
    for idx, alphas in enumerate(pbf_alphas):
        t = tetra_from_alphas(alphas)
        try:
            verify_christoffel(t, alphas, n)
        except Exception as exc:  # noqa: BLE001 - collect, don't abort the corpus
            failures.append(f"alphas {idx}: {exc}")
    jp = JPParams(F(0), F(1, 2), F(0))
    jp_alpha_seq = jp_alphas(jp, Variant.AKV, 3 * n + 5)
    try:
        verify_christoffel(tetra_from_alphas(jp_alpha_seq), jp_alpha_seq, n)
    except Exception as exc:  # noqa: BLE001
        failures.append(f"jp akv (0,1/2,0): {exc}")
    _verdict(7, "Christoffel identities hold for corpus and JP point", failures)


def test_criterion_08_sign_definite_determinants(pbf_alphas):
    failures = []
    n = 8
    for idx, alphas in enumerate(pbf_alphas):
        t = tetra_from_alphas(alphas)
        try:
            report = akv_sign_checks(t, alphas, n, AKV_XS)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"alphas {idx}: {exc}")
            continue
        if report.max_value > 0:
            failures.append(f"alphas {idx}: positive determinant {report.max_location}")
        if report.zeros_at_origin < 1:
            failures.append(f"alphas {idx}: no determinant vanishes at x=0")
    _verdict(8, "twelve 2x2 determinants stay <= 0 with equality at 0", failures)


def test_criterion_09_jacobi_pineiro_grid():
    failures = []
    strip = (Region.R2, Region.R3)
    for p in JP_VERIFICATION_GRID:
        tag = f"({p.alpha},{p.beta},{p.gamma})"
        try:
            jp_cross_consistency(p, 24)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{tag}: band consistency: {exc}")
        try:
            jp_sign_report(p, 24)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{tag}: sign prediction: {exc}")
        first = jp_alphas(p, Variant.FIRST, 24)
        akv = jp_alphas(p, Variant.AKV, 24)
        region = p.region
        if region in strip:
            if first.classify(24) is not Classification.TN or first.at(2) != 0:
                failures.append(f"{tag}: first set not TN-with-zero in strip")
        if region is Region.R4 and not first.at(5) < 0:
            failures.append(f"{tag}: alpha_5 not negative in R4")
        if region is Region.R1 and not first.at(6) < 0:
            failures.append(f"{tag}: alpha_6 not negative in R1")
        if region in (Region.R1, Region.R2) and not akv.at(2) < 0:
            failures.append(f"{tag}: AKV alpha_2 not negative in {region}")
        if region is Region.R3 and akv.classify(24) is not Classification.PBF:
            failures.append(f"{tag}: AKV set not totally positive in R3")
        verdict = is_oscillatory(jp_dense_truncation(p, 4)).is_oscillatory_gk
        if verdict != (region in strip):
            failures.append(f"{tag}: oscillation verdict {verdict} in {region}")
    _verdict(9, "JP grid: consistency, signs, and oscillation verdicts", failures)


def test_criterion_10_oscillation_oracle_agreement(matrices, pbf_alphas, t_sym):
    failures = []
    small = []
    for idx, (t, n) in enumerate(matrices):
        small.append((f"matrix {idx}", leading_principal(t, min(n, 5))))
    for idx, alphas in enumerate(pbf_alphas):
        small.append((f"alphas {idx}", leading_principal(tetra_from_alphas(alphas), 5)))
    for tag, m in small:
        gk = is_oscillatory(m).is_oscillatory_gk
        power = is_oscillatory_power_oracle(m)
        if gk != power:
            failures.append(f"{tag}: GK={gk} power-oracle={power}")
    witness = is_totally_nonnegative(leading_principal(t_sym, 2)).witness
    if witness != ((2, 3), (1, 2), F(-1)):
        failures.append(f"reference witness wrong: {witness}")
    _verdict(10, "GK criterion agrees with the power oracle up to 6x6", failures)
