"""Ring contexts and exact arithmetic in Z[omega_D]."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslab import (
    ContextMismatch,
    NotSquarefree,
    OmegaKind,
    QuadInt,
    RingContext,
    TooSmall,
    real_sign,
)
from soslab.quadfield import square_factor

SQUAREFREE_DS = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 17, 21, 29, 33, 101])
SMALL_COORDS = st.integers(min_value=-40, max_value=40)


def elements(d_strategy=SQUAREFREE_DS, coords=SMALL_COORDS):
    return st.builds(lambda d, u, v: RingContext(d).element(u, v), d_strategy, coords, coords)


# ---------------------------------------------------------------------------
# context construction


def test_context_basics():
    ctx = RingContext(6)
    assert ctx.D == 6
    assert ctx.kappa == 2
    assert ctx.omega_kind is OmegaKind.SQRT_D
    assert ctx.isqrt_d == 2
    assert ctx.floor_omega == 2

    ctx = RingContext(5)
    assert ctx.kappa == 1
    assert ctx.omega_kind is OmegaKind.HALF_ONE_PLUS_SQRT_D
    # omega = (1 + sqrt 5)/2 = 1.618..., so floor is 1
    assert ctx.floor_omega == 1

    ctx = RingContext(13)
    assert ctx.floor_omega == 2  # (1 + 3.605...)/2 = 2.302...


@pytest.mark.parametrize("bad", [1, 0, -5])
def test_context_rejects_small_d(bad):
    with pytest.raises(TooSmall):
        RingContext(bad)


@pytest.mark.parametrize(
    "bad,p", [(4, 2), (12, 2), (18, 3), (50, 5), (9, 3), (1_000_000_007**2, 1_000_000_007)]
)
def test_context_rejects_squareful_d(bad, p):
    with pytest.raises(NotSquarefree) as exc:
        RingContext(bad)
    assert exc.value.p == p


def _naive_square_factor(d):
    return next((p for p in range(2, math.isqrt(d) + 1) if d % (p * p) == 0), None)


def test_square_factor_matches_trial_division_below_20000():
    for d in range(1, 20_000):
        assert square_factor(d) == _naive_square_factor(d), d


# Primes just above 10^9: their products lie far beyond trial division to
# sqrt(D), but only primes up to the cube root of D are ever divided out.
P, Q = 1_000_000_007, 1_000_000_009


@pytest.mark.parametrize(
    "d,p", [(Q * Q, Q), (6 * Q * Q, Q), (P * Q, None), (6 * P * Q, None)]
)
def test_square_factor_near_1e9(d, p):
    assert square_factor(d) == p


def test_context_rejects_non_int():
    with pytest.raises(TooSmall):
        RingContext(2.5)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# constructors and coordinates


def test_sqrt_pair_round_trip():
    ctx = RingContext(5)
    alpha = ctx.from_sqrt_pair(3, 1)  # 3 + sqrt5 = 2 + 2*omega
    assert (alpha.u, alpha.v) == (2, 2)
    assert alpha.trace == 6
    assert alpha.norm == 4

    ctx = RingContext(6)
    beta = ctx.from_sqrt_pair(3, 1)
    assert (beta.u, beta.v) == (3, 1)
    assert beta.trace == 6
    assert beta.norm == 3


def test_half_coords_agree_with_trace():
    ctx = RingContext(13)
    alpha = ctx.element(1, 1)  # 1 + omega = (3 + sqrt13)/2
    assert alpha.half_coords == (3, 1)
    assert alpha.trace == 3
    assert alpha.norm == -1  # ((3)^2 - 13)/4

    ctx = RingContext(2)
    beta = ctx.element(1, 1)
    assert beta.half_coords == (2, 2)
    assert beta.trace == 2


def test_from_half_pair_validates_parity():
    ctx = RingContext(13)
    assert ctx.from_half_pair(3, 1) == ctx.element(1, 1)
    with pytest.raises(ValueError):
        ctx.from_half_pair(3, 2)

    ctx = RingContext(6)
    assert ctx.from_half_pair(6, 2) == ctx.element(3, 1)
    with pytest.raises(ValueError):
        ctx.from_half_pair(3, 2)


def test_named_elements():
    ctx = RingContext(6)
    assert ctx.zero == 0
    assert ctx.one == 1
    assert ctx.omega == ctx.sqrt_d
    ctx = RingContext(5)
    assert ctx.sqrt_d == ctx.element(-1, 2)  # 2*omega - 1 = sqrt5
    assert ctx.sqrt_d.norm == -5


# ---------------------------------------------------------------------------
# arithmetic


def test_omega_square_reduction():
    # omega^2 = (D-1)/4 + omega when omega = (1+sqrtD)/2
    ctx = RingContext(5)
    assert ctx.omega * ctx.omega == ctx.element(1, 1)
    ctx = RingContext(13)
    assert ctx.omega * ctx.omega == ctx.element(3, 1)
    # and omega^2 = D when omega = sqrtD
    ctx = RingContext(6)
    assert ctx.omega * ctx.omega == ctx.from_int(6)


def test_mixed_int_arithmetic():
    ctx = RingContext(6)
    alpha = ctx.from_sqrt_pair(3, 1)
    assert 2 * alpha == ctx.from_sqrt_pair(6, 2)
    assert alpha + 1 == ctx.from_sqrt_pair(4, 1)
    assert 1 + alpha == alpha + 1
    assert alpha - 3 == ctx.sqrt_d
    assert (alpha - alpha) == 0
    assert -alpha == ctx.from_sqrt_pair(-3, -1)


def test_cross_context_arithmetic_rejected():
    with pytest.raises(ContextMismatch):
        RingContext(2).one + RingContext(3).one


def test_pow_matches_repeated_multiplication():
    ctx = RingContext(7)
    alpha = ctx.element(2, 1)
    acc = ctx.one
    for k in range(6):
        assert alpha**k == acc
        acc = acc * alpha
    with pytest.raises(ValueError):
        alpha ** (-1)


@given(elements())
def test_square_is_product(alpha: QuadInt):
    assert alpha.square() == alpha * alpha


@given(elements(), elements())
def test_norm_is_multiplicative(a, b):
    if a.ctx.D != b.ctx.D:
        b = a.ctx.element(b.u, b.v)
    assert (a * b).norm == a.norm * b.norm


@given(elements())
def test_conjugation_involution_and_invariants(alpha):
    conj = alpha.conjugate()
    assert conj.conjugate() == alpha
    assert alpha + conj == alpha.trace
    assert alpha * conj == alpha.norm


@given(elements())
def test_trace_norm_match_floating_embeddings(alpha):
    root = math.sqrt(alpha.ctx.D)
    a, b = alpha.half_coords
    s1 = (a + b * root) / 2
    s2 = (a - b * root) / 2
    assert math.isclose(s1 + s2, alpha.trace, rel_tol=0, abs_tol=1e-6 * (1 + abs(alpha.trace)))
    assert math.isclose(s1 * s2, alpha.norm, rel_tol=1e-9, abs_tol=1e-3)


# ---------------------------------------------------------------------------
# order and positivity


def test_real_sign_exact_cases():
    ctx = RingContext(2)
    assert real_sign(ctx, 0, 0) == 0
    assert real_sign(ctx, 3, -2) > 0  # 3 - 2*sqrt2 = 0.17...
    assert real_sign(ctx, -3, 2) < 0
    assert real_sign(ctx, 1, -1) < 0  # 1 - sqrt2
    assert real_sign(ctx, -1, 1) > 0
    assert real_sign(ctx, 5, 0) > 0
    assert real_sign(ctx, 0, -4) < 0


@given(SQUAREFREE_DS, SMALL_COORDS, SMALL_COORDS)
def test_real_sign_matches_float(d, p, q):
    ctx = RingContext(d)
    approx = p + q * math.sqrt(d)
    got = real_sign(ctx, p, q)
    if abs(approx) > 1e-6:
        assert got == (1 if approx > 0 else -1)
    else:
        assert got == 0 or (p, q) != (0, 0)


def test_total_positivity_examples(ctx6):
    assert ctx6.from_sqrt_pair(3, 1).is_totally_positive()  # 3 +- sqrt6 > 0
    assert not ctx6.from_sqrt_pair(2, 1).is_totally_positive()  # 2 - sqrt6 < 0
    assert not ctx6.from_sqrt_pair(4, 2).is_totally_positive()  # 4 - 2 sqrt6 < 0
    assert ctx6.zero.is_totally_nonnegative()
    assert not ctx6.zero.is_totally_positive()


@given(elements(), elements())
def test_totally_positive_closed_under_product(a, b):
    if a.ctx.D != b.ctx.D:
        b = a.ctx.element(b.u, b.v)
    if a.is_totally_positive() and b.is_totally_positive():
        assert (a * b).is_totally_positive()
        assert (a + b).is_totally_positive()


@given(elements())
def test_square_is_totally_nonnegative(alpha):
    assert alpha.square().is_totally_nonnegative()
    # AM-GM: Tr(alpha^2) >= 2 |N(alpha)|
    assert alpha.square().trace >= 2 * abs(alpha.norm)


# ---------------------------------------------------------------------------
# equality, hashing, display


def test_eq_hash_contract():
    ctx = RingContext(6)
    assert ctx.from_int(3) == 3
    assert 3 == ctx.from_int(3)
    assert ctx.element(3, 1) != 3
    assert hash(ctx.from_int(3)) == hash(RingContext(6).from_int(3))
    assert len({ctx.element(1, 2), ctx.element(1, 2), ctx.element(2, 1)}) == 2


def test_str_canonical_forms():
    ctx6 = RingContext(6)
    assert str(ctx6.element(3, 1)) == "3+sqrt6"
    assert str(ctx6.element(0, -2)) == "-2sqrt6"
    assert str(ctx6.element(-1, 0)) == "-1"
    assert str(ctx6.element(5, -1)) == "5-sqrt6"
    ctx5 = RingContext(5)
    assert str(ctx5.element(1, 1)) == "1+w"
    assert str(ctx5.element(0, 3)) == "3w"
    assert str(ctx5.element(2, -1)) == "2-w"
    assert str(ctx5.zero) == "0"


@given(elements())
def test_repr_names_all_coordinates(alpha):
    assert repr(alpha) == f"QuadInt(D={alpha.ctx.D}, u={alpha.u}, v={alpha.v})"
