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
    QuadInt,
    RingContext,
    ScanSpec,
    TooSmall,
    decompose_sos,
    doubling_witness,
    real_sign,
    scan_totally_positive,
)
from soslab.quadfield import count_totally_positive, square_factor, squares_sum_to

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


# ---------------------------------------------------------------------------
# value semantics of the package's records


def test_records_are_immutable_values(ctx6):
    alpha = ctx6.element(3, 1)
    records = [
        ctx6,
        alpha,
        decompose_sos(ctx6.element(7, 2)).decomposition,  # (1+sqrt6)^2
        ScanSpec((2, 6), 10, m_range=(1, 3)),
    ]
    for record in records:
        field = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
    assert RingContext(6) == ctx6 != RingContext(7)
    assert ScanSpec((2,), 10) != ScanSpec((2,), 11)
    assert repr(ScanSpec((2,), 10)) == (
        "ScanSpec(d_list=(2,), trace_bound=10, m_range=None, node_budget=100000000, workers=1)"
    )


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
