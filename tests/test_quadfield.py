"""Ring contexts and exact arithmetic in Z[omega_D]."""

import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soslab
from soslab import (
    ContextMismatch,
    NotSquarefree,
    PetersInterval,
    QuadInt,
    RingContext,
    ScanSpec,
    TooSmall,
    decompose_sos,
    doubling_witness,
    peters_interval,
    real_sign,
    s_element,
    s_obstruction,
    scan_totally_positive,
)
from soslab.quadfield import count_totally_positive, cube_root, square_factor, squares_sum_to

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
    assert str(doubling_witness(ctx)) == "3+sqrt6"  # floor(sqrt 6) + 1 = 3

    ctx = RingContext(5)
    assert ctx.kappa == 1
    # omega = (1 + sqrt 5)/2 = 1.618..., so 1 + conj(omega) = 0.38... > 0
    assert str(doubling_witness(ctx)) == "1+w"

    ctx = RingContext(13)
    assert str(doubling_witness(ctx)) == "2+w"  # (1 + 3.605...)/2 = 2.302...


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

    # The one rule: (A, B) is integral exactly when it is the doubled pair
    # (2u + (2 - kappa)v, kappa*v) of some u + v*w, and from_half_pair
    # refuses exactly the pairs that are not.
    for d in (2, 3, 5, 6, 7, 13):
        ctx = RingContext(d)
        t, k = 2 - ctx.kappa, ctx.kappa
        pairs = {(2 * u + t * v, k * v) for u in range(-12, 13) for v in range(-12, 13)}
        for big_a in range(-12, 13):
            for big_b in range(-12, 13):
                integral = (big_a, big_b) in pairs
                assert ctx.is_integral(big_a, big_b) is integral, (d, big_a, big_b)
                if integral:
                    assert ctx.from_half_pair(big_a, big_b).half_coords == (big_a, big_b)
                else:
                    with pytest.raises(ValueError, match="not integral"):
                        ctx.from_half_pair(big_a, big_b)


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
    assert 3 - ctx.from_sqrt_pair(1, 1) == ctx.from_sqrt_pair(2, -1)  # 2 - sqrt6
    assert (alpha - alpha) == 0
    assert -alpha == ctx.from_sqrt_pair(-3, -1)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 13, 17])
def test_integer_scaling_matches_the_ring_product(d):
    ctx = RingContext(d)
    for alpha in (ctx.element(3, -2), ctx.omega, ctx.zero, ctx.element(-1, 4)):
        for k in (*range(-3, 4), True, False):
            scaled = k * alpha
            assert scaled == alpha * k == ctx.from_int(k) * alpha
            assert type(scaled.half_coords[0]) is int and scaled.ctx is ctx


def test_cross_context_arithmetic_rejected():
    with pytest.raises(ContextMismatch):
        RingContext(2).one + RingContext(3).one


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_squares_sum_to_matches_the_ring_sum(d):
    ctx = RingContext(d)
    small = [ctx.element(u, v) for u in range(-2, 3) for v in range(-2, 3)]
    for x in small:
        for y in small:
            total = x.square() + y.square()
            for target in (total, total + 1, total + ctx.omega, total - ctx.omega):
                same = squares_sum_to(ctx, (x, y), *target.half_coords)
                assert same is (target == total), (d, str(x), str(y), str(target))


def test_squares_sum_to_rejects_a_term_of_another_ring():
    with pytest.raises(ContextMismatch, match="mixing D=2 and D=3"):
        squares_sum_to(RingContext(2), (RingContext(2).one, RingContext(3).one), 4, 0)


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


def _omega_product(d, u1, v1, u2, v2):
    """(u1 + v1*w)(u2 + v2*w) in the w basis, reduced by w^2 = (D-1)/4 + w
    when D = 1 (mod 4) and by w^2 = D otherwise."""
    if d % 4 == 1:
        c = (d - 1) // 4
        return u1 * u2 + c * v1 * v2, u1 * v2 + v1 * u2 + v1 * v2
    return u1 * u2 + d * v1 * v2, u1 * v2 + v1 * u2


@given(elements(), elements())
def test_product_matches_the_omega_basis_formula(a, b):
    b = a.ctx.element(b.u, b.v)
    product = a * b
    assert (product.u, product.v) == _omega_product(a.ctx.D, a.u, a.v, b.u, b.v)


@given(SQUAREFREE_DS, SMALL_COORDS, SMALL_COORDS)
def test_omega_coordinates_round_trip(d, u, v):
    ctx = RingContext(d)
    alpha = QuadInt(ctx, u, v)
    assert alpha == ctx.element(u, v)
    assert (alpha.u, alpha.v) == (u, v)
    assert ctx.from_half_pair(*alpha.half_coords) == alpha


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


def test_real_sign_accepts_fractions():
    ctx = RingContext(2)
    # Convergents of sqrt2 on either side of it: 7/5 < sqrt2 < 17/12.
    assert real_sign(ctx, Fraction(7, 5), -1) < 0
    assert real_sign(ctx, Fraction(17, 12), Fraction(-1)) > 0
    assert real_sign(ctx, Fraction(-17, 12), 1) < 0
    assert real_sign(ctx, Fraction(1, 3), Fraction(1, 7)) > 0
    assert real_sign(ctx, 0, Fraction(-1, 9)) < 0
    assert real_sign(ctx, Fraction(0), Fraction(0)) == 0


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


def _embeddings(alpha):
    """The two real embeddings of u + v*w, each as (p, q) meaning p + q*sqrt(D)."""
    if alpha.ctx.D % 4 == 1:
        half = Fraction(alpha.v, 2)
        return (alpha.u + half, half), (alpha.u + half, -half)
    return (alpha.u, alpha.v), (alpha.u, -alpha.v)


def test_total_positivity_matches_real_sign():
    # A whole grid, so that the elements nearest the boundary A^2 = D*B^2
    # are all tested.
    for d in (2, 3, 5, 6, 7, 13, 101):
        ctx = RingContext(d)
        for u in range(-12, 13):
            for v in range(-12, 13):
                alpha = ctx.element(u, v)
                signs = [real_sign(ctx, p, q) for p, q in _embeddings(alpha)]
                assert alpha.is_totally_positive() is (min(signs) > 0), (d, u, v)
                assert alpha.is_totally_nonnegative() is (min(signs) >= 0), (d, u, v)


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


def test_box_count_matches_the_scan_and_brute_force():
    top = 30
    for d in (d for d in range(2, 40) if square_factor(d) is None):
        ctx = RingContext(d)
        coords = range(-top, top + 1)
        box = [ctx.element(u, v) for u in coords for v in coords]
        box = sorted(
            (a.half_coords, (a.u, a.v)) for a in box if a.is_totally_positive() and a.trace <= top
        )
        for trace_bound in range(top + 1):
            scanned = list(scan_totally_positive(ctx, trace_bound))
            n = len(scanned)
            assert count_totally_positive(ctx, trace_bound, n) == n, (d, trace_bound)
            if n:
                # Past its limit the count stops, at some number above it.
                assert count_totally_positive(ctx, trace_bound, n - 1) > n - 1
            brute = [uv for (big_a, _), uv in box if big_a <= trace_bound]
            assert [(a.u, a.v) for a in scanned] == brute, (d, trace_bound)


def test_box_count_of_a_huge_trace_bound_stops_at_its_limit():
    assert count_totally_positive(RingContext(7), 10**30, 1000) > 1000


@given(st.integers(min_value=0, max_value=10**60))
def test_cube_root_is_exact(n):
    r = cube_root(n)
    assert r**3 <= n < (r + 1) ** 3


@pytest.mark.parametrize("r", [1, 2, 3, 100, 10**20 + 7])
def test_cube_root_at_a_cube_and_just_below(r):
    assert cube_root(r**3) == r
    assert cube_root(r**3 - 1) == r - 1

# ---------------------------------------------------------------------------
# equality, hashing, display


def test_eq_hash_contract():
    ctx = RingContext(6)
    assert ctx.from_int(3) == 3
    assert 3 == ctx.from_int(3)
    assert ctx.element(3, 1) != 3
    assert hash(ctx.from_int(3)) == hash(RingContext(6).from_int(3))
    assert len({ctx.element(1, 2), ctx.element(1, 2), ctx.element(2, 1)}) == 2
    ctx = RingContext(5)
    assert ctx.from_int(3) == 3 == ctx.from_half_pair(6, 0)
    assert ctx.element(3, 1) != 3 and ctx.element(3, 1) != 4
    assert ctx.element(1, 1) == QuadInt(ctx, 1, 1) == ctx.from_half_pair(3, 1)
    assert hash(ctx.element(1, 1)) == hash(ctx.from_half_pair(3, 1))
    assert ctx.element(1, 1) != RingContext(13).element(1, 1)


def test_integers_are_equal_across_rings():
    a6, a5 = RingContext(6).from_int(3), RingContext(5).from_int(3)
    assert a6 == a5 == 3
    assert len({3, a6, a5}) == len({a6, a5, 3}) == 1
    with pytest.raises(ContextMismatch):
        a6 + a5
    assert RingContext(6).from_sqrt_pair(3, 1) != RingContext(7).from_sqrt_pair(3, 1)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 13, 101])
def test_an_integer_element_hashes_as_its_int(d):
    # Equal objects must hash equal, or sets and dicts hold both.
    ctx = RingContext(d)
    for k in range(-3, 4):
        alpha = ctx.from_int(k)
        assert alpha == k and hash(alpha) == hash(k)
        assert len({alpha, k}) == 1 and len({k, alpha}) == 1
        assert {k: "int"}.get(alpha) == "int"
        assert {alpha: "element"}.get(k) == "element"
        assert hash(ctx.from_half_pair(2 * k, 0)) == hash(ctx.element(k)) == hash(alpha)
    assert hash(ctx.element(3, 1)) == hash(QuadInt(ctx, 3, 1))


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


# ---------------------------------------------------------------------------
# value semantics of the package's records


def test_records_are_immutable_values(ctx6):
    alpha = ctx6.element(3, 1)
    records = [
        ctx6,
        alpha,
        RingContext(5).element(2, -3),
        decompose_sos(ctx6.element(7, 2)).decomposition,  # (1+sqrt6)^2
        ScanSpec((2, 6), 10, m_range=(1, 3)),
        peters_interval(ctx6.element(7, 2)),
        s_obstruction(s_element(alpha, 0, 3)),
    ]
    for record in records:
        field = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        assert repr(copy) == repr(record)
    assert RingContext(6) == ctx6 != RingContext(7)
    assert ScanSpec((2,), 10) != ScanSpec((2,), 11)
    assert repr(ScanSpec((2,), 10)) == (
        "ScanSpec(d_list=(2,), trace_bound=10, m_range=None, node_budget=100000000, workers=1)"
    )
    assert PetersInterval(1, 2, 3, None) == PetersInterval(1, 2, 3, None)
    for fields in [(1, 2, 3), (1, 2, 3, None, 5)]:
        with pytest.raises(TypeError, match="PetersInterval"):
            PetersInterval(*fields)


def test_scan_spec_keeps_its_d_list_as_a_tuple():
    spec = ScanSpec(d_list=[2, 3], trace_bound=10)
    assert spec == ScanSpec(d_list=(2, 3), trace_bound=10)
    assert hash(spec) == hash(ScanSpec(d_list=(2, 3), trace_bound=10))
    assert repr(spec) == repr(ScanSpec(d_list=(2, 3), trace_bound=10))
    # So is its multiplier range.
    spec = ScanSpec((2,), 10, m_range=[1, 3])
    assert spec == ScanSpec((2,), 10, m_range=(1, 3))
    assert hash(spec) == hash(ScanSpec((2,), 10, m_range=(1, 3)))
    assert repr(spec) == repr(ScanSpec((2,), 10, m_range=(1, 3)))


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # They would cost about 1 MB of resident memory and 10 ms of start-up.
    script = "import sys, soslab; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(soslab.__file__))}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_every_context_runs_its_post_init_hook(monkeypatch):
    # perfbench's tracer counts the contexts built by wrapping this hook.
    built = []
    hook = RingContext.__post_init__

    def counting_hook(self):
        built.append(self.D)
        hook(self)

    monkeypatch.setattr(RingContext, "__post_init__", counting_hook)
    RingContext(6)
    ScanSpec((2, 3), 10)
    assert built == [6, 2, 3]
    with pytest.raises(NotSquarefree):
        RingContext(12)
    assert built == [6, 2, 3, 12]
