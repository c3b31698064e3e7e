from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcomplex.exact import (
    SparseRationalMatrix,
    cohomology_dims,
    echelon_from_matrix,
    membership,
    rank,
    rank_kernel_image,
)


def dense(rows):
    return SparseRationalMatrix.from_dense(rows)


def test_entry_accumulation_and_zero_dropping():
    m = SparseRationalMatrix(2, 2)
    m.add_to(0, 1, Fraction(1, 2))
    m.add_to(0, 1, Fraction(-1, 2))
    assert m.nnz() == 0
    m.set_entry(1, 0, 3)
    assert m.get(1, 0) == 3
    m.set_entry(1, 0, 0)
    assert m.is_zero()


def test_out_of_range_rejected():
    m = SparseRationalMatrix(2, 3)
    with pytest.raises(IndexError):
        m.set_entry(2, 0, 1)
    with pytest.raises(IndexError):
        m.get(0, 3)


def test_matmul_against_hand_product():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert (a @ b) == dense([[2, 1], [4, 3]])


def test_rank_small_examples():
    assert rank(dense([[1, 2], [2, 4]])) == 1
    assert rank(dense([[1, 0], [0, 1]])) == 2
    assert rank(SparseRationalMatrix(3, 3)) == 0
    # 3x3 with rational entries, rank 2
    m = dense([[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 5]])
    assert rank(m) == 2


def test_kernel_is_exact_and_spans():
    m = dense([[1, 1, 1], [1, 2, 3]])
    r, kernel, pivots = rank_kernel_image(m)
    assert r == 2 and len(kernel) == 1
    k = kernel[0]
    assert m.apply(k) == {}
    # known kernel direction (1, -2, 1)
    scale = k[0]
    assert {c: v / scale for c, v in k.items()} == {0: 1, 1: -2, 2: 1}
    assert pivots == [0, 1]


def test_membership_positive_and_negative():
    m = dense([[1, 0], [0, 1], [1, 1]])
    sol, cert = membership(m, {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)})
    assert cert is None
    assert m.apply(sol) == {0: 2, 1: 3, 2: 5}
    sol, cert = membership(m, {0: Fraction(1), 2: Fraction(5)})
    assert sol is None
    # certificate is orthogonal to the columns but not to the target
    mt = m.transpose()
    assert mt.apply(cert) == {}
    assert sum(cert.get(r, Fraction(0)) * v for r, v in {0: 1, 2: 5}.items()) != 0


def test_cohomology_dims_on_known_complex():
    # 0 -> Q -> Q^2 -> Q -> 0 with d_in = (1, 1)^T, d_out = (1, -1): exact in the middle
    d_in = dense([[1], [1]])
    d_out = dense([[1, -1]])
    assert cohomology_dims(d_in, d_out) == 0
    # composite nonzero must raise
    with pytest.raises(ArithmeticError):
        cohomology_dims(d_in, dense([[1, 1]]))


def test_dump_parse_round_trip_and_stability():
    m = dense([[Fraction(1, 3), 0], [0, Fraction(-7, 2)]])
    text = m.dump()
    assert text == "2 2 2\n0 0 1/3\n1 1 -7/2\n"
    assert SparseRationalMatrix.parse(text) == m


@pytest.mark.parametrize("text", [
    "1 1 1\n0 0 1/0\n",                # zero denominator
    "1 1 1\n1 0 1/1\n",                # row out of range
    "1 1 1\n0 3 1/1\n",                # column out of range
    "2 2 2\n0 0 1/1\n0 0 2/1\n",      # repeated position: the header's nnz is 2
    "1 1 1\n0 0 0/1\n",                # zero entry: the header's nnz is 1
])
def test_parse_rejects_malformed_dump(text):
    with pytest.raises(ValueError):
        SparseRationalMatrix.parse(text)


fraction_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(fraction_st, min_size=4, max_size=4),
        min_size=3,
        max_size=5,
    )
)
def test_rank_nullity_and_kernel_membership(rows):
    m = dense(rows)
    r, kernel, pivots = rank_kernel_image(m)
    assert r + len(kernel) == m.ncols
    assert len(pivots) == r
    for k in kernel:
        assert m.apply(k) == {}
    # every column is in the span of the pivot columns
    for c in range(m.ncols):
        target = {i: row.get(c) for i, row in enumerate(m.rows) if c in row}
        sol, cert = membership(m, {i: v for i, v in target.items() if v})
        assert cert is None and sol is not None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(fraction_st, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(fraction_st, min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_rank_of_product_bounded(rows_a, rows_b):
    a, b = dense(rows_a), dense(rows_b)
    assert rank(a @ b) <= min(rank(a), rank(b))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=4))
def test_normal_form_is_unit_vector_modulo_row_span(rows):
    m = dense(rows)
    ech = echelon_from_matrix(m)
    ech.back_reduce()
    for j in range(m.ncols):
        nf = ech.normal_form(j)
        assert all(v for v in nf.values())
        assert not set(nf) & set(ech.pivots)
        diff = {j: Fraction(1)}
        for c, v in nf.items():
            diff[c] = diff.get(c, 0) - v
        sol, cert = membership(m.transpose(), {c: v for c, v in diff.items() if v})
        assert cert is None and sol is not None
