import random

import pytest

from erpg.field import FieldCtx, factor_prime_power, field_for_order, make_field

from reference import (affine_values_reference, digitwise, field_op_cases,
                       field_ops, field_ops_reference)


def test_prime_field_modulus():
    f = make_field(3, 1)
    assert f.q == 3
    assert f.modulus == (0, 1)  # x


def test_gf8_modulus_is_least_irreducible_cubic():
    # scan order over monic cubics over GF(2) finds x^3 + x + 1 first
    assert make_field(2, 3).modulus == (1, 1, 0, 1)


def test_gf9_modulus_found_by_scan():
    f = make_field(3, 2)
    # x^2 + 1 is the least monic irreducible quadratic over GF(3)
    assert f.modulus == (1, 0, 1)


def test_rejects_non_prime_and_too_large():
    with pytest.raises(ValueError):
        FieldCtx(6, 1)
    with pytest.raises(ValueError):
        FieldCtx(2, 21)
    with pytest.raises(ValueError):
        FieldCtx(2, 17)
    with pytest.raises(ValueError):
        FieldCtx(65537, 1)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (3, 4)])
def test_field_axioms_exhaustive(p, n):
    f = make_field(p, n)
    els = list(f.elements())
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q) == a  # Frobenius fixed by q-th power
    # spot-check associativity/distributivity on a grid
    sample = els if f.q <= 9 else els[:: max(1, f.q // 9)]
    for a in sample:
        for b in sample:
            assert f.mul(a, b) == f.mul(b, a)
            for c in sample:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_lagrange_in_gf8():
    f = make_field(2, 3)
    for g in range(1, 8):
        assert f.pow(g, 7) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(3, 1).inv(0)
    # div reads the tables itself: a zero divisor must not index them
    for q in (3, 8, 9, 512):
        for a in (0, 1, q - 1):
            with pytest.raises(ZeroDivisionError):
                field_for_order(q).div(a, 0)


def test_is_square_basics():
    f3 = make_field(3, 1)
    assert f3.is_square(0) and f3.is_square(1)
    assert not f3.is_square(2)  # squares mod 3 are {0, 1}
    f9 = make_field(3, 2)
    # element with square -1 (it exists since 9 = 1 mod 4) is itself a square
    i = next(a for a in f9.elements() if f9.mul(a, a) == f9.neg(1))
    assert f9.is_square(i)


def test_square_counts_odd_q():
    for q in (3, 5, 9, 25, 49):
        f = field_for_order(q)
        nonzero_squares = {f.mul(a, a) for a in range(1, q)}
        assert len(nonzero_squares) == (q - 1) // 2
        assert sum(f.is_square(a) for a in range(1, q)) == (q - 1) // 2


def test_every_element_square_even_q():
    f = make_field(2, 3)
    assert all(f.is_square(a) for a in f.elements())


@pytest.mark.parametrize("q", [9, 25, 49, 81])
def test_norm_square_criterion_exhaustive(q):
    # norm to the subfield is a square there exactly when the element is
    # a square upstairs
    f = field_for_order(q)
    sub = f.subfield()
    for a in f.elements():
        assert sub.is_square(f.norm_to_subfield(a)) == f.is_square(a)


@pytest.mark.parametrize("q", [25, 81])
def test_norm_one_elements_have_square_a2_plus_1(q):
    # sqrt(q) = 1 mod 4 here
    f = field_for_order(q)
    r = f.sqrt_q()
    assert r % 4 == 1
    norm_one = [a for a in range(1, q) if f.pow(a, r + 1) == 1]
    assert len(norm_one) == r + 1
    for a in norm_one:
        assert f.is_square(f.add(f.mul(a, a), 1))


def test_norm_examples_gf9():
    f = make_field(3, 2)
    assert f.norm_to_subfield(0) == 0
    assert f.norm_to_subfield(1) == 1
    i = next(a for a in f.elements() if f.mul(a, a) == f.neg(1))
    assert f.norm_to_subfield(i) == 1  # i^4 = (i^2)^2 = 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_abs_trace_linear_and_surjective(n):
    f = make_field(2, n)
    for a in f.elements():
        for b in f.elements():
            assert f.abs_trace(a ^ b) == f.abs_trace(a) ^ f.abs_trace(b)
    zeros = sum(f.abs_trace(a) == 0 for a in f.elements())
    assert zeros == f.q // 2  # kernel of a nonzero linear functional


def test_abs_trace_examples():
    assert make_field(2, 1).abs_trace(1) == 1
    assert make_field(2, 3).abs_trace(0) == 0
    with pytest.raises(ValueError):
        make_field(3, 1).abs_trace(1)


def test_find_first_elements():
    assert make_field(3, 1).find_nonsquare() == 2
    f2 = make_field(2, 1)
    assert f2.find_trace_one() == 1
    f8 = make_field(2, 3)
    t1 = f8.find_trace_one()
    assert f8.abs_trace(t1) == 1
    assert all(f8.abs_trace(a) == 0 for a in range(t1))


def test_subfield_embedding_is_ring_embedding():
    f = make_field(3, 2)
    sub = f.subfield()
    assert f.embed_subfield(0) == 0 and f.embed_subfield(1) == 1
    images = set()
    for x in sub.elements():
        ex = f.embed_subfield(x)
        images.add(ex)
        assert f.pow(ex, sub.q) == ex  # fixed field of Frobenius
        for y in sub.elements():
            assert f.embed_subfield(sub.mul(x, y)) == f.mul(ex, f.embed_subfield(y))
            assert f.embed_subfield(sub.add(x, y)) == f.add(ex, f.embed_subfield(y))
    assert len(images) == sub.q
    # the image is exactly the fixed field of the sqrt(q)-power map
    fixed = {a for a in f.elements() if f.pow(a, sub.q) == a}
    assert images == fixed


def test_subfield_is_the_cached_field():
    # GF(9)'s tables are built once, for GF(9) and for GF(81)'s subfield
    assert field_for_order(81).subfield() is field_for_order(9)


def test_subfield_requires_even_degree():
    with pytest.raises(ValueError):
        make_field(3, 1).subfield()


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(121) == (11, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49])
def test_zech_add_neg_sub_exhaustive(q):
    f = field_for_order(q)
    for a in f.elements():
        assert f.neg(a) == digitwise(f, 0, a, -1)
        for b in f.elements():
            assert f.add(a, b) == digitwise(f, a, b, 1)
            assert f.sub(a, b) == digitwise(f, a, b, -1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_affine_values_exhaustive(q):
    f = field_for_order(q)
    for u in f.elements():
        for v in f.elements():
            assert f.affine_values(u, v) == affine_values_reference(f, u, v)


@pytest.mark.parametrize("q", [243, 256, 257, 343, 512])
def test_affine_values_across_the_byte_boundary(q):
    # byte tables up to q = 256, rotated lists from q = 257 on; u or v = 0,
    # 1 and q - 1 take the ends of the table windows
    f = field_for_order(q)
    rng = random.Random(q)
    ends = [0, 1, q - 1]
    pairs = [(u, v) for u in ends for v in ends]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(30)]
    for u, v in pairs:
        assert f.affine_values(u, v) == affine_values_reference(f, u, v)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27, 256, 257])
def test_division_tables_multiply_and_divide(q):
    f = field_for_order(q)
    L, D = f.division_tables()
    some = range(q) if q < 256 else random.Random(q).sample(range(q), 40)
    for a in [0, 1, q - 1, *some]:
        for b in [0, 1, q - 1, *some]:
            assert D[L[a] + L[b]] == f.mul(a, b)
            if a:
                assert D[L[b] - L[a] + q - 1] == f.div(b, a)


@pytest.mark.parametrize("q", [243, 256, 257, 343, 512])
def test_scalar_ops_match_the_polynomial_path(q):
    # mul, div, inv, pow and is_square against polynomial products, add
    # and neg against base-p digit sums, on the ends of the tables (0, 1,
    # q - 1) and random pairs, since the division-table test above reads
    # the same tables as mul
    f = field_for_order(q)
    for a, b, e in field_op_cases(q, 60):
        assert field_ops(f, a, b, e) == field_ops_reference(f, a, b, e), (
            a, b, e)


SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]


def _power_by_mul(f, a, e):
    """Reference: a^|e| by repeated mul, inverted for e < 0."""
    r = 1
    for _ in range(abs(e)):
        r = f.mul(r, a)
    if e < 0:
        r = next(x for x in f.elements() if f.mul(r, x) == 1)
    return r


@pytest.mark.parametrize("q", SMALL_Q)
def test_pow_matches_repeated_mul(q):
    f = field_for_order(q)
    for a in f.elements():
        for e in range(-q, 2 * q + 1):
            if a == 0 and e < 0:
                with pytest.raises(ZeroDivisionError):
                    f.pow(a, e)
            else:
                assert f.pow(a, e) == _power_by_mul(f, a, e), (a, e)


@pytest.mark.parametrize("q", SMALL_Q)
def test_inv_and_is_square_match_mul(q):
    f = field_for_order(q)
    squares = {f.mul(a, a) for a in f.elements()}
    for a in f.elements():
        assert f.is_square(a) == (a in squares)
        if a:
            assert [x for x in f.elements() if f.mul(a, x) == 1] == [f.inv(a)]


def test_field_for_order_rejects_above_cap():
    for q in (65537, 2 ** 17, 2 ** 21, (1 << 61) - 1):
        with pytest.raises(ValueError, match="exceeds the supported cap"):
            field_for_order(q)
    # a non-int q ended in TypeError, from the cap comparison or range()
    for q in (4.0, 9.0, "4", None, 1e300):
        for call in (field_for_order, factor_prime_power):
            with pytest.raises(ValueError, match="not a prime power: not an int"):
                call(q)


def _least_primitive_by_walk(f):
    """Least g whose powers under polynomial multiplication reach 1 only
    after q - 1 steps."""
    for g in range(1, f.q):
        v, order = g, 1
        while v != 1:
            v, order = f._mul_raw(v, g), order + 1
        if order == f.q - 1:
            return g


def test_generator_is_least_primitive_element():
    for q in range(2, 1025):
        try:
            p, n = factor_prime_power(q)
        except ValueError:
            continue
        assert make_field(p, n).generator == _least_primitive_by_walk(
            make_field(p, n)), q


def test_large_field_generators():
    assert make_field(3, 10).generator == 34
    assert make_field(2, 16).generator == 3
