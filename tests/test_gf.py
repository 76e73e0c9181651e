"""Field arithmetic checked against carry-less multiplication from scratch."""

from types import SimpleNamespace

import numpy as np
import pytest

from sienna.gf import DEFAULT_POLYS, FieldSpec, GaloisField, gf_mul


def clmul_reduce(a: int, b: int, poly: int, k: int) -> int:
    """Oracle: schoolbook carry-less multiply, then XOR-reduce by poly."""
    prod = 0
    for i in range(k):
        if (b >> i) & 1:
            prod ^= a << i
    for deg in range(2 * k - 2, k - 1, -1):
        if (prod >> deg) & 1:
            prod ^= poly << (deg - k)
    return prod


def test_annihilator_and_identity():
    field = FieldSpec(8)
    for a in (0, 1, 2, 0x53, 0xFF):
        assert gf_mul(a, 0, field) == 0
        assert gf_mul(a, 1, field) == a


def test_worked_example_poly_0x11d():
    # 0x02 * 0x80 = x^8, reduced by x^8+x^4+x^3+x^2+1 -> 0x1D.
    assert gf_mul(0x02, 0x80, FieldSpec(8)) == 0x1D
    assert clmul_reduce(0x02, 0x80, 0x11D, 8) == 0x1D


@pytest.mark.parametrize("k", [2, 3, 4])
def test_multiplication_matches_clmul_exhaustively(k):
    field = FieldSpec(k)
    poly = DEFAULT_POLYS[k]
    for a in range(field.size):
        for b in range(field.size):
            assert gf_mul(a, b, field) == clmul_reduce(a, b, poly, k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_field_axioms_exhaustive(k):
    field = FieldSpec(k)
    q = field.size
    for a in range(q):
        for b in range(q):
            assert gf_mul(a, b, field) == gf_mul(b, a, field)
            for c in range(q):
                left = gf_mul(gf_mul(a, b, field), c, field)
                right = gf_mul(a, gf_mul(b, c, field), field)
                assert left == right
                distrib = gf_mul(a, b ^ c, field)
                assert distrib == gf_mul(a, b, field) ^ gf_mul(a, c, field)


def test_field_axioms_random_triples_gf256():
    field = FieldSpec(8)
    gf = field.tables()
    rng = np.random.default_rng(2024)
    a, b, c = (rng.integers(0, 256, size=100_000) for _ in range(3))
    ab = gf.mul(a, b)
    assert np.array_equal(ab, gf.mul(b, a))
    assert np.array_equal(gf.mul(ab, c), gf.mul(a, gf.mul(b, c)))
    assert np.array_equal(gf.mul(a, b ^ c), gf.mul(a, b) ^ gf.mul(a, c))


def test_vectorized_matches_scalar():
    field = FieldSpec(8)
    gf = field.tables()
    rng = np.random.default_rng(7)
    a = rng.integers(0, 256, size=500)
    b = rng.integers(0, 256, size=500)
    vec = gf.mul(a, b)
    for i in range(a.size):
        assert vec[i] == gf_mul(int(a[i]), int(b[i]), field)


def test_inverse_round_trips():
    for k in (3, 8):
        gf = FieldSpec(k).tables()
        for a in range(1, gf.spec.size):
            assert gf.mul(a, int(gf.exp[gf.inv_log[a]])) == 1


def test_out_of_range_elements_rejected():
    field = FieldSpec(3)
    with pytest.raises(ValueError):
        gf_mul(8, 1, field)
    with pytest.raises(ValueError):
        gf_mul(1, -1, field)


def test_spec_validation():
    for k in (1, 9, 17):
        with pytest.raises(ValueError, match=r"\[2, 8\]"):
            FieldSpec(k)
    for k, poly in DEFAULT_POLYS.items():
        assert FieldSpec(k).reduction_poly == poly
    # The table builder still refuses a polynomial that is not primitive (x^8).
    not_primitive = SimpleNamespace(k_bits=8, size=256, reduction_poly=0x100)
    with pytest.raises(ValueError, match="not primitive"):
        GaloisField(not_primitive)


@pytest.mark.parametrize("k", range(2, 9))
def test_product_rows_match_clmul(k):
    """Row c of the translate table maps v < 2^K to c * v and every other byte to 0."""
    field = FieldSpec(k)
    rows = field.tables().product_rows
    assert len(rows) == field.size
    for c, row in enumerate(rows):
        assert len(row) == 256
        for v in range(field.size):
            assert row[v] == clmul_reduce(c, v, field.reduction_poly, k)
        assert not any(row[field.size :])


@pytest.mark.parametrize("k", range(2, 9))
def test_quotient_rows_invert_product_rows(k):
    """Row b of the quotient table maps a < 2^K to a / b; row 0 and every
    byte >= 2^K map to 0."""
    field = FieldSpec(k)
    gf = field.tables()
    products, quotients = gf.product_rows, gf.quotient_rows
    assert len(quotients) == field.size
    for b, row in enumerate(quotients):
        assert len(row) == 256
        assert not any(row[field.size :])
        if b == 0:
            assert not any(row)
            continue
        for a in range(field.size):
            assert products[b][row[a]] == a


@pytest.mark.parametrize("k", [3, 4])
def test_quotient_through_inverse_log_table(k):
    """exp[log[a] + inv_log[b]] is a / b, and 0 when either operand is 0."""
    gf = FieldSpec(k).tables()
    for a in range(gf.spec.size):
        for b in range(gf.spec.size):
            quotient = int(gf.exp[gf.log[a] + gf.inv_log[b]])
            if a == 0 or b == 0:
                assert quotient == 0
            else:
                assert gf.mul(quotient, b) == a
