"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line (run with ``pytest -s`` to see them).  Every check is
exact; there are no tolerances anywhere."""

import json
import random
from fractions import Fraction

from jacobsthal_octonions.cli import main
from jacobsthal_octonions.identities import (
    IdentityId,
    ProductOrder,
    Variant,
    bilinear_product,
    closed_product,
    verify,
    verify_range,
)
from jacobsthal_octonions.octonion import Octonion, ScaledOctonion
from jacobsthal_octonions.octonion_sequences import (
    OctonionSequenceKind,
    epsilon_hat,
    oct_seq,
    oct_seq_closed,
)
from jacobsthal_octonions.sequences import SequenceKind, seq_closed, seq_value

J3 = SequenceKind.THIRD_ORDER_JACOBSTHAL
JL3 = SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS
JO = OctonionSequenceKind.JACOBSTHAL
JOL = OctonionSequenceKind.JACOBSTHAL_LUCAS
PRINTED = Variant.AS_PRINTED
CORRECTED = Variant.CORRECTED


def _conclude(number, title, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"acceptance criterion {number} [{status}]: {title}")
    assert not problems, f"criterion {number}: " + "; ".join(problems[:10])


def test_criterion_1_sequence_correctness():
    problems = []
    expected_j3 = [0, 1, 1, 2, 5, 9, 18, 37, 73, 146]
    expected_jl3 = [2, 1, 5, 10, 17, 37, 74, 145, 293, 586]
    got_j3 = [seq_value(J3, n) for n in range(10)]
    got_jl3 = [seq_value(JL3, n) for n in range(10)]
    if got_j3 != expected_j3:
        problems.append(f"J3 first terms {got_j3}")
    if got_jl3 != expected_jl3:
        problems.append(f"JL3 first terms {got_jl3}")
    for kind in (J3, JL3):
        for n in range(513):
            if seq_closed(kind, n) != seq_value(kind, n):
                problems.append(f"closed form of {kind.value} differs at n={n}")
                break
    _conclude(1, "sequence values and closed forms up to n=512", problems)


def test_criterion_2_scalar_identity_suite():
    problems = []
    full_range = ("E4", "EC5", "E6", "E7", "E8", "E10", "E11", "JSUM")
    shifted = ("E5", "E9", "E12")
    for name in full_range:
        report = verify_range(IdentityId[name], PRINTED, 0, 300)
        if report.failures or report.total_checked != 301:
            problems.append(f"{name}: checked={report.total_checked} "
                            f"failures={len(report.failures)}")
    for name in shifted:
        report = verify_range(IdentityId[name], PRINTED, 3, 300)
        if report.failures or report.total_checked != 298:
            problems.append(f"{name}: checked={report.total_checked} "
                            f"failures={len(report.failures)}")
    _conclude(2, "all scalar identities exact over their domains to n=300", problems)


def test_criterion_3_octonion_structure():
    problems = []
    for kind in (JO, JOL):
        for n in range(257):
            if oct_seq_closed(kind, n) != oct_seq(kind, n):
                problems.append(f"closed {kind.value} differs at n={n}")
                break
        for n in range(1, 101):
            lhs = oct_seq(kind, n + 2)
            rhs = oct_seq(kind, n + 1) + oct_seq(kind, n) + oct_seq(kind, n - 1) * 2
            if lhs != rhs:
                problems.append(f"recurrence of {kind.value} breaks at n={n}")
                break
    for n in range(101):
        if oct_seq(JOL, n) - oct_seq(JO, n) * 4 != epsilon_hat(n):
            problems.append(f"epsilon linkage breaks at n={n}")
            break
    _conclude(3, "octonion closed forms, recurrence and epsilon linkage", problems)


def test_criterion_4_norm_formulas():
    problems = []
    for name in ("T1_NORM", "T2_NORM"):
        report = verify_range(IdentityId[name], PRINTED, 0, 60)
        if report.failures or report.total_checked != 61:
            problems.append(f"{name}: failures={len(report.failures)}")
    spots = [(JO, 0, 1805), (JOL, 0, 28289), (JO, 1, 7134), (JOL, 1, 114134)]
    for kind, n, expected in spots:
        got = oct_seq(kind, n).norm_sq()
        if got != expected:
            problems.append(f"norm of {kind.value}({n}) = {got}, expected {expected}")
    _conclude(4, "norm closed forms to n=60 plus spot values", problems)


def test_criterion_5_sum_shift_and_relation_identities():
    problems = []
    names = ("T1_SUM", "T1_SHIFT4", "T2_SUM", "T2_SHIFT4",
             "T3_A", "T3_B", "T3_C", "T3_D")
    for name in names:
        report = verify_range(IdentityId[name], PRINTED, 0, 100)
        if report.failures or report.total_checked != 101:
            problems.append(f"{name}: checked={report.total_checked} "
                            f"failures={len(report.failures)}")
    _conclude(5, "octonion sum, shift and cross-relation identities to n=100", problems)


def test_criterion_6_closed_products_and_bilinear_expansion():
    problems = []
    for n in range(0, 61, 3):
        direct_lj = oct_seq(JOL, n) * oct_seq(JO, n)
        direct_jl = oct_seq(JO, n) * oct_seq(JOL, n)
        if closed_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, n) != direct_lj:
            problems.append(f"jO*JO closed form differs at n={n}")
        if closed_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, n) != direct_jl:
            problems.append(f"JO*jO closed form differs at n={n}")
    witness = (oct_seq(JOL, 0) * oct_seq(JO, 0)) * 49
    if witness[0] != -349909 or witness[1] != -7742:
        problems.append(f"witness product coefficients {witness[0]}, {witness[1]}")
    for n in range(0, 31):
        for r in range(8):
            for s in range(8):
                expected = 49 * seq_value(JL3, n + r) * seq_value(J3, n + s)
                if bilinear_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, n, r, s) != expected:
                    problems.append(f"bilinear jJ differs at ({n},{r},{s})")
                expected = 49 * seq_value(J3, n + r) * seq_value(JL3, n + s)
                if bilinear_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, n, r, s) != expected:
                    problems.append(f"bilinear Jj differs at ({n},{r},{s})")
    _conclude(6, "closed products at n=0,3,...,60 and bilinear expansion", problems)


def test_criterion_7_errata_detection():
    problems = []
    report = verify(IdentityId.T5_QUAD, PRINTED, 0)
    if report.passed:
        problems.append("printed T5_QUAD unexpectedly passes at n=0")
    else:
        delta = report.delta
        real_delta = Fraction(delta.numerator[0], delta.denominator)
        if real_delta == 0:
            problems.append("printed T5_QUAD delta has zero real component")
        if real_delta != Fraction(9360, 49):
            problems.append(f"printed T5_QUAD real delta is {real_delta}")
        if ScaledOctonion(report.lhs) - report.rhs != delta:
            problems.append("T5_QUAD failure report witnesses are inconsistent")
    t6 = verify_range(IdentityId.T6_QUAD, PRINTED, 0, 30)
    if [f.n for f in t6.failures] != list(range(1, 31)):
        problems.append(f"printed T6_QUAD failures at {[f.n for f in t6.failures]}")
    for failure in t6.failures[:3]:
        if ScaledOctonion(failure.lhs) - failure.rhs != failure.delta:
            problems.append("T6_QUAD failure report witnesses are inconsistent")
    for name in ("T5_QUAD", "T6_QUAD"):
        corrected = verify_range(IdentityId[name], CORRECTED, 0, 60)
        if corrected.failures or corrected.total_checked != 61:
            problems.append(f"corrected {name}: failures={len(corrected.failures)}")
    _conclude(7, "printed quadratic identities fail as required; corrected "
                 "candidates pass to n=60", problems)


def test_criterion_8_algebra_property_sweep():
    problems = []
    rng = random.Random(46409)
    bound = 10 ** 6
    for i in range(1000):
        p = Octonion(tuple(rng.randint(-bound, bound) for _ in range(8)))
        q = Octonion(tuple(rng.randint(-bound, bound) for _ in range(8)))
        pq = p * q
        if p * (p * q) != (p * p) * q or (p * q) * q != p * (q * q) \
                or (p * q) * p != p * (q * p):
            problems.append(f"alternativity breaks at pair {i}")
            break
        if pq.norm_sq() != p.norm_sq() * q.norm_sq():
            problems.append(f"norm multiplicativity breaks at pair {i}")
            break
        if pq.conjugate() != q.conjugate() * p.conjugate():
            problems.append(f"conjugation anti-automorphism breaks at pair {i}")
            break
        norm_form = Octonion((p.norm_sq(), 0, 0, 0, 0, 0, 0, 0))
        if p * p.conjugate() != norm_form or p.conjugate() * p != norm_form:
            problems.append(f"norm form breaks at pair {i}")
            break
    e1, e2, e4 = Octonion.basis(1), Octonion.basis(2), Octonion.basis(4)
    if (e1 * e2) * e4 != -(e1 * (e2 * e4)):
        problems.append("non-associativity witness does not hold")
    _conclude(8, "algebra laws over 1000 seeded random pairs", problems)


def test_criterion_9_cli_contract(capsys):
    problems = []

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    code, out = run("verify", "--all", "--to", "30", "--variant", "printed",
                    "--format", "json")
    failing = [r["id"] for r in json.loads(out) if r["failures"]]
    if code != 1:
        problems.append(f"printed suite exit code {code}")
    if failing != ["T5_QUAD", "T6_QUAD"]:
        problems.append(f"printed suite failures {failing}")

    code, out = run("verify", "--all", "--to", "30", "--variant", "both",
                    "--format", "json")
    reports = json.loads(out)
    corrected = [r for r in reports if r["variant"] == "corrected"]
    if code != 1:
        problems.append(f"both-variant suite exit code {code}")
    if any(r["failures"] for r in corrected) or len(corrected) != 2:
        problems.append("corrected rows are not clean")

    for argv in (("seq", "--kind", "j3", "--to", "64", "--format", "csv"),
                 ("oct", "--kind", "jO", "--n", "33", "--closed")):
        first = run(*argv)
        second = run(*argv)
        if first != second:
            problems.append(f"non-deterministic output for {argv}")

    _conclude(9, "CLI exit codes, failure sets and byte determinism", problems)
