"""Squares modulo 2*O and the dyadic valuation."""

import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soslab import (
    NotRamified,
    Residue2,
    RingContext,
    ZeroElement,
    dyadic_valuation,
    is_square_mod_two,
    residue_mod_two,
    squares_mod_two,
)
from soslab.quadfield import square_factor

SQUAREFREE_DS = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 17, 21, 29, 33])
COORDS = st.integers(min_value=-30, max_value=30)


# ---------------------------------------------------------------------------
# splitting of 2 and the square classes


class DyadicClass(enum.Enum):
    """How 2 factors in O, as the tests name it: the ring itself keeps only
    whether 2 ramifies, as kappa, since no verdict reads the rest."""

    RAMIFIED = "ramified"  # D = 2, 3 (mod 4): 2*O = p^2
    SPLIT = "split"  # D = 1 (mod 8)
    INERT = "inert"  # D = 5 (mod 8)


@pytest.mark.parametrize(
    "d,expected",
    [
        (2, DyadicClass.RAMIFIED),
        (3, DyadicClass.RAMIFIED),
        (6, DyadicClass.RAMIFIED),
        (7, DyadicClass.RAMIFIED),
        (5, DyadicClass.INERT),
        (13, DyadicClass.INERT),
        (21, DyadicClass.INERT),
        (17, DyadicClass.SPLIT),
        (33, DyadicClass.SPLIT),
        (41, DyadicClass.SPLIT),
    ],
)
def test_dyadic_splitting(d, expected):
    # kappa = 2 exactly where 2 ramifies.  The rest is read off O/2O: it is
    # F2 x F2, with four idempotents, where 2 splits, and F2[t]/(t^2) or
    # the field F4, with two, where it ramifies or stays inert.
    ctx = RingContext(d)
    assert ctx.kappa == (2 if expected is DyadicClass.RAMIFIED else 1)
    classes = [ctx.element(u, v) for u in (0, 1) for v in (0, 1)]
    idempotents = sum(residue_mod_two(x.square()) == residue_mod_two(x) for x in classes)
    assert idempotents == (4 if expected is DyadicClass.SPLIT else 2)


@pytest.mark.parametrize(
    "d,squares",
    [
        # 2 ramified: exactly the rational residues are squares.
        (2, {(0, 0), (1, 0)}),
        (3, {(0, 0), (1, 0)}),
        (6, {(0, 0), (1, 0)}),
        # 2 unramified (inert or split): squaring permutes all four classes.
        (5, {(0, 0), (0, 1), (1, 0), (1, 1)}),
        (13, {(0, 0), (0, 1), (1, 0), (1, 1)}),
        (17, {(0, 0), (0, 1), (1, 0), (1, 1)}),
    ],
)
def test_square_classes_mod_two(d, squares):
    got = squares_mod_two(RingContext(d))
    assert got == {Residue2(*r) for r in squares}


def test_ramified_square_classes_are_the_even_coefficients():
    # The closed form the search's root parity rule and the witnesses rest on.
    ramified = [d for d in range(2, 500) if d % 4 in (2, 3) and square_factor(d) is None]
    assert len(ramified) > 150
    for d in ramified:
        assert squares_mod_two(RingContext(d)) == {Residue2(0, 0), Residue2(1, 0)}, d


GRID_DS = (2, 3, 5, 6, 7, 13, 17, 21, 33, 41)  # ramified, inert and split
GRID = range(-12, 13)


def test_closed_form_square_rule_matches_the_enumeration():
    for d in GRID_DS:
        ctx = RingContext(d)
        squares = squares_mod_two(ctx)
        for u in GRID:
            for v in GRID:
                alpha = ctx.element(u, v)
                assert is_square_mod_two(alpha) == (residue_mod_two(alpha) in squares), (d, u, v)


@given(SQUAREFREE_DS, COORDS, COORDS)
def test_squaring_lands_in_a_square_class(d, u, v):
    ctx = RingContext(d)
    alpha = ctx.element(u, v)
    assert is_square_mod_two(alpha.square())
    assert residue_mod_two(alpha.square()) in squares_mod_two(ctx)


@given(SQUAREFREE_DS, COORDS, COORDS, COORDS, COORDS)
def test_freshmans_dream_mod_two(d, u1, v1, u2, v2):
    # (a + b)^2 = a^2 + b^2 (mod 2*O)
    ctx = RingContext(d)
    a, b = ctx.element(u1, v1), ctx.element(u2, v2)
    lhs = residue_mod_two((a + b).square())
    s = (a.square() + b.square())
    assert lhs == residue_mod_two(s)


def test_residue_examples(ctx6):
    assert residue_mod_two(ctx6.element(3, 1)) == Residue2(1, 1)
    assert residue_mod_two(ctx6.element(4, 2)) == Residue2(0, 0)
    assert not is_square_mod_two(ctx6.sqrt_d)
    assert not is_square_mod_two(ctx6.element(3, 1))
    assert is_square_mod_two(ctx6.from_int(3))


# ---------------------------------------------------------------------------
# dyadic valuation (ramified contexts only)


def test_valuation_examples(ctx6):
    assert dyadic_valuation(ctx6.one) == 0
    assert dyadic_valuation(ctx6.sqrt_d) == 1
    assert dyadic_valuation(ctx6.from_int(2)) == 2
    assert dyadic_valuation(ctx6.from_int(4)) == 4
    assert dyadic_valuation(ctx6.from_sqrt_pair(0, 2)) == 3
    assert dyadic_valuation(ctx6.element(3, 1)) == 0  # odd rational part
    assert dyadic_valuation(ctx6.element(4, 1)) == 1  # 4 and sqrt6 both lie in p

    ctx2 = RingContext(2)
    assert dyadic_valuation(ctx2.sqrt_d) == 1
    assert dyadic_valuation(ctx2.element(1, 1)) == 0

    ctx3 = RingContext(3)
    assert dyadic_valuation(ctx3.element(1, 1)) == 1  # 1 + sqrt3 generates p


def _reference_valuation(alpha):
    """Strips powers of 2 by the coordinates (u, v), then asks whether what
    is left lies in p = (2, w0), by enumerating w0*O mod 2*O."""
    ctx = alpha.ctx
    u, v, t = alpha.u, alpha.v, 0
    while u % 2 == 0 and v % 2 == 0:
        u, v, t = u // 2, v // 2, t + 1
    w0 = ctx.sqrt_d if ctx.D % 2 == 0 else ctx.one + ctx.sqrt_d
    in_p = {Residue2(0, 0)} | {
        residue_mod_two(w0 * ctx.element(x, y)) for x in (0, 1) for y in (0, 1)
    }
    return 2 * t + (Residue2(u & 1, v & 1) in in_p)


def test_valuation_matches_the_enumerated_prime():
    for d in GRID_DS:
        ctx = RingContext(d)
        if ctx.kappa == 1:
            continue
        for u in GRID:
            for v in GRID:
                alpha = ctx.element(u, v)
                if alpha:
                    assert dyadic_valuation(alpha) == _reference_valuation(alpha), (d, u, v)


def test_valuation_requires_ramified_and_nonzero(ctx5, ctx6):
    with pytest.raises(NotRamified):
        dyadic_valuation(ctx5.one)
    with pytest.raises(ZeroElement):
        dyadic_valuation(ctx6.zero)


@given(st.sampled_from([2, 3, 6, 7, 11]), COORDS, COORDS, COORDS, COORDS)
def test_valuation_is_additive(d, u1, v1, u2, v2):
    ctx = RingContext(d)
    a, b = ctx.element(u1, v1), ctx.element(u2, v2)
    if bool(a) and bool(b):
        assert dyadic_valuation(a * b) == dyadic_valuation(a) + dyadic_valuation(b)


@given(st.sampled_from([2, 3, 6, 7, 11]), COORDS, COORDS)
def test_valuation_of_square_is_even(d, u, v):
    ctx = RingContext(d)
    alpha = ctx.element(u, v)
    if bool(alpha):
        assert dyadic_valuation(alpha.square()) == 2 * dyadic_valuation(alpha)


# ---------------------------------------------------------------------------
# the mod-2*O local test


def _everywhere_local(alpha):
    """A sum of five squares at every place: the real places ask for total
    positivity, the even ones for a square mod 2*O."""
    return alpha.is_totally_positive() and is_square_mod_two(alpha)


def test_everywhere_local_examples(ctx6):
    # 6 + 2 sqrt6 passes locally everywhere yet is not a sum of squares.
    assert _everywhere_local(ctx6.from_sqrt_pair(6, 2))
    # 3 + sqrt6 is totally positive but fails mod 2*O.
    assert not _everywhere_local(ctx6.element(3, 1))
    # 4 + 2 sqrt6 has a negative conjugate, so it fails at an infinite place.
    assert not _everywhere_local(ctx6.from_sqrt_pair(4, 2))
    assert not _everywhere_local(ctx6.zero - ctx6.one)


@given(SQUAREFREE_DS, COORDS, COORDS)
def test_everywhere_local_is_necessary_for_squares(d, u, v):
    ctx = RingContext(d)
    alpha = ctx.element(u, v)
    sq = alpha.square() + alpha.square()  # clearly a sum of two squares
    if sq.is_totally_positive():
        assert _everywhere_local(sq)
