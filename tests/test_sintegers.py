"""Sums of squares in O[1/m]: escalation, obstruction certificates."""

import os
import subprocess
import sys
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soslab
from soslab import (
    BadModulus,
    ContextMismatch,
    NotTotallyPositive,
    RingContext,
    SKind,
    SVerdict,
    Sweep,
    is_square_mod_two,
    ramified_obstruction_witness,
    residue_mod_two,
    s_element,
    s_is_sum_of_squares,
    peters_guaranteed,
    s_obstruction,
    scan_totally_positive,
    squares_mod_two,
)
from soslab.decompose import SearchVerdict, VerdictKind
from soslab.quadfield import square_factor
from soslab.sintegers import PYTHAGORAS_CAP

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
    assert cert.residue == residue_mod_two(w)
    assert cert.residue not in squares_mod_two(ctx6)
    assert "m=3 is odd" in cert.reason and "not a square" in cert.reason

    verdict = s_is_sum_of_squares(s_element(w, 0, 3))
    assert verdict.kind is SKind.OBSTRUCTED
    assert verdict.certificate == cert


def test_no_obstruction_for_even_modulus(ctx6):
    w = ramified_obstruction_witness(ctx6)
    assert s_obstruction(s_element(w, 0, 2)) is None


def test_no_obstruction_when_two_is_unramified(ctx5):
    # 2 unramified: every residue is a square, nothing to obstruct.
    alpha = ctx5.element(3, 1)
    assert s_obstruction(s_element(alpha, 0, 3)) is None


def test_no_obstruction_for_square_residue(ctx6):
    assert s_obstruction(s_element(ctx6.from_int(3), 0, 3)) is None


def _one_per_residue(ctx):
    """A totally positive u + v*sqrt(D) for each (u mod 2, v mod 2)."""
    out = []
    for v in (0, 1):
        u = isqrt(ctx.D * v * v) + 1
        out.extend(ctx.element(u + k, v) for k in (0, 1))
    return out


def test_obstruction_certificates_are_valid_in_every_ramified_ring():
    rings = [RingContext(d) for d in range(2, 200) if d % 4 != 1 and square_factor(d) is None]
    for ctx in rings:
        elements = _one_per_residue(ctx) + [ramified_obstruction_witness(ctx)]
        for m in range(3, 16, 2):
            for gamma in elements:
                cert = s_obstruction(s_element(gamma, 0, m))
                if is_square_mod_two(gamma):
                    assert cert is None, (ctx.D, str(gamma), m)
                else:
                    xi = s_element(gamma, 0, m)
                    assert cert is not None, (ctx.D, str(gamma), m)
                    assert cert.residue not in squares_mod_two(ctx), (ctx.D, str(gamma), m)
                    # The verdict accepts exactly the element's own certificate.
                    assert SVerdict(SKind.OBSTRUCTED, xi, certificate=cert).certificate == cert


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
    verdict = s_is_sum_of_squares(xi)
    assert verdict.kind is SKind.OBSTRUCTED
    assert verdict.nodes == 0


def test_refuted_level_moves_up_the_ladder(ctx6):
    # 3 + sqrt6 with m = 2: no certificate applies (the modulus is even).
    # Level 0 is refuted (odd sqrt6-coefficient), which proves nothing
    # about higher levels; level 1 finds 4(3 + sqrt6) = (2 + sqrt6)^2 + 1 + 1.
    gamma = ctx6.element(3, 1)
    assert soslab.decompose_sos(gamma).kind is VerdictKind.EXHAUSTED_NONE
    verdict = s_is_sum_of_squares(s_element(gamma, 0, 2))
    assert verdict.kind is SKind.REPRESENTABLE
    assert verdict.j_used == 1
    assert [str(t) for t in verdict.terms] == ["2+sqrt6", "1", "1"]


def test_one_capped_search_per_level(ctx6, monkeypatch):
    calls = []
    search = soslab.sintegers.decompose_sos

    def counting(alpha, max_terms=None, **kwargs):
        calls.append(max_terms)
        return search(alpha, max_terms=max_terms, **kwargs)

    monkeypatch.setattr(soslab.sintegers, "decompose_sos", counting)
    verdict = s_is_sum_of_squares(s_element(ctx6.element(3, 1), 0, 2))
    assert verdict.kind is SKind.REPRESENTABLE
    assert calls == [PYTHAGORAS_CAP, PYTHAGORAS_CAP]


def test_node_budget_bounds_the_whole_ladder(ctx6, monkeypatch):
    # 6 + 2 sqrt6 is not a sum of squares in O: level 0 exhausts after
    # some nodes, and level 1 may spend only what is left.
    budgets, spent = [], []
    search = soslab.sintegers.decompose_sos

    def recording(alpha, max_terms=None, *, node_budget):
        budgets.append(node_budget)
        verdict = search(alpha, max_terms=max_terms, node_budget=node_budget)
        spent.append(verdict.nodes)
        return verdict

    monkeypatch.setattr(soslab.sintegers, "decompose_sos", recording)
    xi = s_element(ctx6.from_sqrt_pair(6, 2), 0, 2)
    verdict = s_is_sum_of_squares(xi, node_budget=1000)
    assert verdict.kind is SKind.REPRESENTABLE and verdict.j_used == 1
    assert spent[0] > 0
    assert budgets == [1000, 1000 - spent[0]]
    assert verdict.nodes == sum(spent)

    # Level 1's candidate scan of 24 + 8 sqrt6 costs 23 units (9 rows, 14
    # roots tried): one unit less than that after level 0 stops the ladder
    # there, and exactly that much lets its 4-node hit through.
    verdict = s_is_sum_of_squares(xi, node_budget=spent[0] + 22)
    assert verdict.kind is SKind.UNKNOWN
    assert verdict.gave_up_at_j == 1
    verdict = s_is_sum_of_squares(xi, node_budget=spent[0] + 23)
    assert verdict.kind is SKind.REPRESENTABLE
    assert verdict.nodes == spent[0] + 4


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13])
def test_level_zero_agrees_with_the_sweep(d):
    """O[1/2] stops at level 0 exactly for the sums of squares in O."""
    ctx = RingContext(d)
    lengths = Sweep(ctx, 24)
    for beta in scan_totally_positive(ctx, 24):
        verdict = s_is_sum_of_squares(s_element(beta, 0, 2))
        assert verdict.kind is SKind.REPRESENTABLE, str(beta)
        assert (verdict.j_used == 0) is lengths.is_sum_of_squares(beta), str(beta)
        assert len(verdict.terms) <= PYTHAGORAS_CAP, str(beta)


def _first_guaranteed_level(gamma, m):
    level = 0
    while not peters_guaranteed(gamma * m ** (2 * level)):
        level += 1
    return level


def test_the_ladder_decides_every_element():
    """The paper's characterisation, as the procedure answers it.

    gamma in O+ is a sum of squares in O[1/m] unless m is odd, 2 ramifies
    and gamma is not a square mod 2*O; the ladder stops no later than the
    first level that Peters' bound covers, and never answers Unknown.
    """
    triples = 0
    for d in range(2, 50):
        if square_factor(d) is not None:
            continue
        ctx = RingContext(d)
        for gamma in scan_totally_positive(ctx, 16):
            for m in range(2, 8):
                triples += 1
                verdict = s_is_sum_of_squares(s_element(gamma, 0, m))
                where = (d, str(gamma), m)
                obstructed = m % 2 == 1 and ctx.kappa == 2 and not is_square_mod_two(gamma)
                if obstructed:
                    assert verdict.kind is SKind.OBSTRUCTED, where
                else:
                    assert verdict.kind is SKind.REPRESENTABLE, where
                    assert verdict.j_used <= _first_guaranteed_level(gamma, m), where
    assert triples == 4056


def test_a_miss_where_peters_guarantees_five_squares_raises(ctx6, monkeypatch):
    levels = []

    def never_found(alpha, max_terms=None, **kwargs):
        levels.append(alpha)
        if len(levels) > 50:
            pytest.fail("the ladder climbed past the level Peters guarantees")
        return SearchVerdict(VerdictKind.EXHAUSTED_NONE, None, 0)

    monkeypatch.setattr(soslab.sintegers, "decompose_sos", never_found)
    gamma = ctx6.element(3, 1)
    level = _first_guaranteed_level(gamma, 2)
    with pytest.raises(RuntimeError, match=rf"3\+sqrt6 at level {level},"):
        s_is_sum_of_squares(s_element(gamma, 0, 2))


def test_a_miss_where_peters_guarantees_five_squares_raises_under_optimize_flag():
    script = (
        "import soslab.sintegers as s\n"
        "from soslab import RingContext\n"
        "from soslab.decompose import SearchVerdict, VerdictKind\n"
        "s.decompose_sos = lambda *a, **k: SearchVerdict(VerdictKind.EXHAUSTED_NONE, None, 0)\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    s.s_is_sum_of_squares(s.s_element(RingContext(5).element(2, 1), 0, 2))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(soslab.__file__))}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "2+w at level" in result.stdout


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
        verdict = s_is_sum_of_squares(s_element(alpha, 0, 2))
        assert verdict.kind is SKind.REPRESENTABLE


# ---------------------------------------------------------------------------
# verdict invariants (checked with exceptions, so they survive python -O)


def test_obstructed_verdict_needs_a_certificate(ctx6):
    xi = s_element(ctx6.element(3, 1), 0, 5)
    with pytest.raises(ValueError):
        SVerdict(SKind.OBSTRUCTED, xi, certificate=None)


def test_obstructed_verdict_rejects_an_invalid_certificate(ctx6):
    xi = s_element(ctx6.element(3, 1), 0, 5)
    # The same numerator over another odd modulus: same ring and residue,
    # but a certificate for another element.
    bogus = s_obstruction(s_element(ctx6.element(3, 1), 0, 3))
    assert bogus is not None and bogus.residue == s_obstruction(xi).residue
    with pytest.raises(ValueError):
        SVerdict(SKind.OBSTRUCTED, xi, certificate=bogus)


def test_obstructed_verdict_rejects_another_elements_certificate(ctx2, ctx5):
    cert = s_obstruction(s_element(ctx2.element(2, 1), 0, 3))
    assert cert is not None
    # 3 = 1 + 1 + 1 and the modulus is even, so nothing obstructs this.
    with pytest.raises(ValueError):
        SVerdict(SKind.OBSTRUCTED, s_element(ctx2.from_int(3), 0, 2), certificate=cert)
    # Nor does a certificate of D = 2 speak for an element of D = 5.
    with pytest.raises(ValueError):
        SVerdict(SKind.OBSTRUCTED, s_element(ctx5.element(2, 1), 0, 3), certificate=cert)


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


def test_representable_verdict_verifies_the_scaled_identity(ctx6, ctx2):
    xi = s_element(ctx6.from_int(2), 1, 2)  # 2/4
    # At one level up the squares must sum to 2*4 = 8.
    twos = (ctx6.from_int(2), ctx6.from_int(2))
    assert SVerdict(SKind.REPRESENTABLE, xi, terms=twos, j_used=2).terms == twos
    with pytest.raises(ValueError):
        SVerdict(SKind.REPRESENTABLE, xi, terms=twos, j_used=1)
    with pytest.raises(ValueError):
        SVerdict(SKind.REPRESENTABLE, xi, terms=(ctx6.one,), j_used=1)
    with pytest.raises(ContextMismatch):
        SVerdict(SKind.REPRESENTABLE, xi, terms=(ctx6.one, ctx2.one), j_used=1)


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


def test_pythagoras_upper_bound():
    assert PYTHAGORAS_CAP == 5
