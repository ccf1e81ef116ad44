"""Acceptance suite: every verification criterion at its stated tolerance.

Each test calls one check function of the CLI verify command with its
defaults, which are the acceptance sizes that `verify --level full` runs too,
prints its PASS/FAIL line with the measured value, and asserts the documented
threshold and runtime budget. AC7 races through cli.compare_algorithms, the
code path of `lozo-bench compare`. The verify battery holds these eleven
checks and no other, in AC order.
"""

import time

import pytest

from lozo import checks


# the check each test below calls, in AC order
AC_CHECKS = (
    checks.lge_unbiasedness,
    checks.lge_rank_bound,
    checks.lazy_accumulation_rank,
    checks.subspace_equivalence,
    checks.perturb_restore_drift,
    checks.momentum_projection_agreement,
    checks.lozo_vs_rge,
    checks.footprint_ratio,
    checks.nu1_matches_vanilla,
    checks.cge_rge_exactness,
    checks.run_determinism,
)


def test_verify_battery_is_the_acceptance_checks():
    assert tuple(check for check, _ in checks.BATTERY) == AC_CHECKS


def _report(result, budget_s=None, elapsed=None):
    suffix = f"  [{elapsed:.1f} s / budget {budget_s:.0f} s]" if budget_s is not None else ""
    print(f"\n{result.line()}{suffix}")


def test_ac1_estimator_unbiasedness():
    t0 = time.perf_counter()
    res = checks.lge_unbiasedness()
    elapsed = time.perf_counter() - t0
    _report(res, 30.0, elapsed)
    assert res.value <= 0.05
    assert elapsed <= 30.0


def test_ac2_rank_bound_everywhere():
    res = checks.lge_rank_bound()
    _report(res)
    assert res.value == 0  # zero violations allowed


def test_ac3_lazy_accumulation_rank():
    res = checks.lazy_accumulation_rank()
    _report(res)
    assert res.value == 0


def test_ac4_subspace_equivalence():
    t0 = time.perf_counter()
    res = checks.subspace_equivalence()
    elapsed = time.perf_counter() - t0
    _report(res, 5.0, elapsed)
    assert res.value <= 1e-8
    assert elapsed <= 5.0


def test_ac5_restoration_drift():
    res = checks.perturb_restore_drift()
    _report(res)
    assert res.value <= 1e-12


def test_ac6_momentum_projection():
    res = checks.momentum_projection_agreement()
    _report(res)
    assert res.value <= 1e-10


def test_ac7_lozo_beats_rge():
    t0 = time.perf_counter()
    res = checks.lozo_vs_rge()
    elapsed = time.perf_counter() - t0
    _report(res, 180.0, elapsed)
    assert res.value >= 7  # wins in at least 7 of 10 seeds
    assert elapsed <= 180.0


def test_ac8_state_footprint_ratio():
    res = checks.footprint_ratio()
    _report(res)
    assert res.passed
    assert res.value == pytest.approx(2 / 2048, rel=1e-15)


def test_ac9_nu1_degeneration_bit_exact():
    res = checks.nu1_matches_vanilla()
    _report(res)
    assert res.value == 0.0


def test_ac10_cge_rge_exactness():
    res = checks.cge_rge_exactness()
    _report(res)
    assert res.passed


def test_ac11_run_determinism():
    res = checks.run_determinism()
    _report(res)
    assert res.passed
