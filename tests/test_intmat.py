"""Exact integer matrix helpers and the certified operator-norm bound."""

import math
from fractions import Fraction as F

import pytest

from tamecuts.errors import InputError
from tamecuts.groups.intmat import (
    as_int_matrix,
    certified_operator_norm_pair,
    certified_spectral_sup,
    det,
    identity_matrix,
    inverse_unimodular,
    mat_mul,
    mat_pow,
    mat_vec,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_validation():
    with pytest.raises(InputError):
        as_int_matrix([[1, 2], [3]])
    with pytest.raises(InputError):
        as_int_matrix([])
    with pytest.raises(InputError):
        as_int_matrix([["x", 1], [0, 1]])


def test_det_and_inverse():
    a = as_int_matrix([[1, 1], [0, 1]])
    assert det(a) == 1
    assert mat_mul(a, inverse_unimodular(a)) == identity_matrix(2)
    b = as_int_matrix([[0, 1], [1, 0]])  # det -1
    assert det(b) == -1
    assert mat_mul(b, inverse_unimodular(b)) == identity_matrix(2)
    c = as_int_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert mat_mul(c, inverse_unimodular(c)) == identity_matrix(3)
    with pytest.raises(ValueError):
        inverse_unimodular(as_int_matrix([[2, 0], [0, 1]]))


def test_det_exact_on_fractions():
    """Sarrus' rule, written out here, on a 3x3 matrix of Fractions."""
    m = ((F(1, 2), F(-3, 7), F(2, 5)),
         (F(5, 3), F(1, 11), F(-4, 9)),
         (F(-2, 13), F(7, 4), F(3, 8)))
    (a, b, c), (d, e, f), (g, h, i) = m
    sarrus = a * e * i + b * f * g + c * d * h - c * e * g - a * f * h - b * d * i
    assert det(m) == sarrus
    assert isinstance(det(m), F) and sarrus != 0


def test_mat_pow_and_vec():
    a = as_int_matrix([[1, 1], [0, 1]])
    assert mat_pow(a, 5) == ((1, 5), (0, 1))
    assert mat_pow(a, -3) == ((1, -3), (0, 1))
    assert mat_pow(a, 0) == identity_matrix(2)
    assert mat_vec(a, (2, 1)) == (3, 1)


def test_certified_norm_exact_cases():
    # identity and permutation matrices have operator norm exactly 1
    assert certified_spectral_sup(identity_matrix(2)) == 1.0
    rot = as_int_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert certified_spectral_sup(rot) == 1.0


def test_certified_norm_is_tight_overestimate():
    shear = as_int_matrix([[1, 1], [0, 1]])
    c = certified_spectral_sup(shear)
    assert c >= GOLDEN - 1e-15
    assert c - GOLDEN <= 1e-9
    # [[2,1],[1,1]] has top singular value golden^2 (eigenvalue of the
    # symmetric matrix itself, which is A^T A of the shear)
    fib = as_int_matrix([[2, 1], [1, 1]])
    c2 = certified_spectral_sup(fib)
    assert c2 >= GOLDEN ** 2 - 1e-14
    assert c2 - GOLDEN ** 2 <= 1e-8
    # pairs: the shear and its inverse share the same norm
    assert certified_operator_norm_pair(shear) == c
