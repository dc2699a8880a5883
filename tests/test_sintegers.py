"""Sums of squares in O[1/m]: escalation, obstruction certificates."""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soslab
from soslab import (
    BadModulus,
    NotTotallyPositive,
    RingContext,
    SKind,
    SVerdict,
    is_square_mod_two,
    ramified_obstruction_witness,
    s_element,
    s_is_sum_of_squares,
    s_obstruction,
    s_pythagoras_upper,
    scan_totally_positive,
)

# ---------------------------------------------------------------------------
# construction and canonical form


def test_canonical_form_strips_square_factors(ctx6):
    xi = s_element(ctx6.from_int(8), 1, 2)  # 8/4 = 2
    assert xi.j == 0
    assert xi.numerator == ctx6.from_int(2)

    xi = s_element(ctx6.from_int(12), 2, 2)  # 12/16 -> 3/4
    assert xi.j == 1
    assert xi.numerator == ctx6.from_int(3)

    # sqrt6 has no rational square factor: nothing to cancel
    xi = s_element(ctx6.sqrt_d, 1, 2)
    assert xi.j == 1
    assert xi.numerator == ctx6.sqrt_d


def test_str_form(ctx6):
    assert str(s_element(ctx6.element(3, 1), 0, 2)) == "3+sqrt6"
    assert str(s_element(ctx6.element(3, 1), 2, 5)) == "(3+sqrt6)/5^4"


def test_modulus_validation(ctx6):
    with pytest.raises(BadModulus):
        s_element(ctx6.one, 0, 1)
    with pytest.raises(BadModulus):
        s_element(ctx6.one, 0, 0)
    with pytest.raises(ValueError):
        s_element(ctx6.one, -1, 2)


@given(
    st.sampled_from([2, 3, 5, 6, 7, 13]),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(0, 3),
    st.integers(2, 7),
)
def test_equality_is_invariant_under_escalation(d, u, v, j, m):
    ctx = RingContext(d)
    gamma = ctx.element(u, v)
    a = s_element(gamma, j, m)
    b = s_element(gamma * (m * m), j + 1, m)
    assert a == b  # same element of O[1/m] after canonicalization


# ---------------------------------------------------------------------------
# obstruction certificates


def test_obstruction_for_odd_modulus_in_ramified_ring(ctx6):
    w = ramified_obstruction_witness(ctx6)  # 4 + sqrt6
    cert = s_obstruction(s_element(w, 0, 3))
    assert cert.is_valid()
    assert cert.m_odd and cert.ramified
    assert "not a square" in cert.reason

    verdict = s_is_sum_of_squares(s_element(w, 0, 3))
    assert verdict.kind is SKind.OBSTRUCTED
    assert verdict.certificate is not None and verdict.certificate.is_valid()


def test_no_obstruction_for_even_modulus(ctx6):
    w = ramified_obstruction_witness(ctx6)
    assert s_obstruction(s_element(w, 0, 2)) is None


def test_no_obstruction_when_two_is_unramified(ctx5):
    # 2 unramified: every residue is a square, nothing to obstruct.
    alpha = ctx5.element(3, 1)
    assert s_obstruction(s_element(alpha, 0, 3)) is None


def test_no_obstruction_for_square_residue(ctx6):
    assert s_obstruction(s_element(ctx6.from_int(3), 0, 3)) is None


@given(st.sampled_from([2, 3, 6, 7, 11]), st.integers(-15, 15), st.integers(-15, 15), st.sampled_from([3, 5, 7, 9]))
@settings(max_examples=60, deadline=None)
def test_obstruction_is_escalation_stable(d, u, v, m):
    """Scaling by m^2 never changes the certificate's validity."""
    ctx = RingContext(d)
    gamma = ctx.element(u, v)
    base = s_obstruction(s_element(gamma, 0, m))
    up = s_obstruction(s_element(gamma * (m * m), 0, m))
    assert (base is None) == (up is None)


# ---------------------------------------------------------------------------
# decision procedure


def test_representable_with_escalation_d6(ctx6):
    # 4 + sqrt6 is not a sum of squares in O, but is in O[1/2]:
    # 4(4 + sqrt6) = (2 + sqrt6)^2 + 2^2 + 1 + 1.
    xi = s_element(ctx6.from_sqrt_pair(4, 1), 0, 2)
    verdict = s_is_sum_of_squares(xi)
    assert verdict.kind is SKind.REPRESENTABLE
    assert verdict.j_used == 1
    assert [str(t) for t in verdict.terms] == ["2+sqrt6", "2", "1", "1"]


def test_representable_without_escalation_d5(ctx5):
    xi = s_element(ctx5.element(2, 1), 0, 3)  # 2 + omega = 1^2 + omega^2
    verdict = s_is_sum_of_squares(xi)
    assert verdict.kind is SKind.REPRESENTABLE
    assert verdict.j_used == 0
    assert [str(t) for t in verdict.terms] == ["1", "w"]


def test_obstructed_element_never_resolves(ctx6):
    xi = s_element(ctx6.element(3, 1), 0, 3)  # odd m, non-square residue
    verdict = s_is_sum_of_squares(xi)
    assert verdict.kind is SKind.OBSTRUCTED
    assert verdict.terms is None


def test_rejects_non_totally_positive(ctx6):
    with pytest.raises(NotTotallyPositive):
        s_is_sum_of_squares(s_element(ctx6.element(-1, 0), 0, 2))


def test_certificate_short_circuits_the_ladder(ctx6):
    # 3 + sqrt6 with m = 5: odd modulus fixes the residue (1, 1) at every
    # level, so the certificate settles it without searching at all.
    xi = s_element(ctx6.element(3, 1), 0, 5)
    verdict = s_is_sum_of_squares(xi, j_budget=1)
    assert verdict.kind is SKind.OBSTRUCTED
    assert verdict.nodes == 0


def test_unknown_after_exhausting_ladder(ctx6):
    # 3 + sqrt6 with m = 2: no certificate applies (the modulus is even),
    # and with a zero-level budget the single refuted level proves nothing
    # about higher levels, so the honest answer is UNKNOWN.
    xi = s_element(ctx6.element(3, 1), 0, 2)
    verdict = s_is_sum_of_squares(xi, j_budget=0)
    assert verdict.kind is SKind.UNKNOWN
    assert verdict.gave_up_at_j == 0
    # One more level finds 4(3 + sqrt6) = (2 + sqrt6)^2 + 1 + 1.
    verdict = s_is_sum_of_squares(xi, j_budget=1)
    assert verdict.kind is SKind.REPRESENTABLE
    assert verdict.j_used == 1
    assert [str(t) for t in verdict.terms] == ["2+sqrt6", "1", "1"]


def test_verdict_reverifies_terms(ctx6):
    xi = s_element(ctx6.from_sqrt_pair(4, 1), 0, 2)
    verdict = s_is_sum_of_squares(xi)
    total = ctx6.zero
    for t in verdict.terms:
        total = total + t.square()
    scale = 2 ** (2 * (verdict.j_used - xi.j))
    assert total == xi.numerator * scale


@given(st.sampled_from([2, 3, 5, 6, 7, 13]), st.integers(0, 40))
@settings(max_examples=50, deadline=None)
def test_integral_sums_stay_representable(d, idx):
    """Anything already a sum of squares in O is one in every O[1/m]."""
    ctx = RingContext(d)
    pool = [a for a in scan_totally_positive(ctx, 12)]
    alpha = pool[idx % len(pool)]
    from soslab import is_sum_of_squares

    if is_sum_of_squares(alpha, node_budget=10**7):
        verdict = s_is_sum_of_squares(s_element(alpha, 0, 2), j_budget=2)
        assert verdict.kind is SKind.REPRESENTABLE


# ---------------------------------------------------------------------------
# verdict invariants (checked with exceptions, so they survive python -O)


def test_obstructed_verdict_needs_a_certificate(ctx6):
    xi = s_element(ctx6.element(3, 1), 0, 5)
    with pytest.raises(ValueError):
        SVerdict(SKind.OBSTRUCTED, xi, certificate=None)


def test_obstructed_verdict_rejects_an_invalid_certificate(ctx6):
    xi = s_element(ctx6.element(3, 1), 0, 5)
    bogus = dataclasses.replace(s_obstruction(xi), m_odd=False)
    with pytest.raises(ValueError):
        SVerdict(SKind.OBSTRUCTED, xi, certificate=bogus)


def test_representable_verdict_needs_terms_and_a_level(ctx6):
    xi = s_element(ctx6.from_int(2), 1, 2)  # 2/4, already canonical
    ones = (ctx6.one, ctx6.one)
    with pytest.raises(ValueError):
        SVerdict(SKind.REPRESENTABLE, xi, terms=None, j_used=1)
    with pytest.raises(ValueError):
        SVerdict(SKind.REPRESENTABLE, xi, terms=ones, j_used=None)
    with pytest.raises(ValueError):
        SVerdict(SKind.REPRESENTABLE, xi, terms=ones, j_used=0)  # below xi.j
    assert SVerdict(SKind.REPRESENTABLE, xi, terms=ones, j_used=1).j_used == 1


def test_verdict_invariants_hold_under_optimize_flag():
    # Under -O every assert is stripped; the checks must still fire.
    script = (
        "from soslab import RingContext, SKind, SVerdict, s_element\n"
        "xi = s_element(RingContext(6).element(3, 1), 0, 5)\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    SVerdict(SKind.OBSTRUCTED, xi, certificate=None)\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(soslab.__file__))}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "rejected\n"


# ---------------------------------------------------------------------------
# the uniform bound


def test_pythagoras_upper_bound(ctx6):
    bound = s_pythagoras_upper(ctx6, 2)
    assert bound.value == 5
    assert "five" in bound.note or "5" in bound.note
    with pytest.raises(BadModulus):
        s_pythagoras_upper(ctx6, 1)
