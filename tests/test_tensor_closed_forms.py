"""The closed-form tensor operators against the Gram-matrix chain rule.

``tensor_pde_residual`` and the oracle ``lapv`` are sums of closed forms over the
monomials of their argument. The oracle here composes the same operators from
first-order pieces instead: gradients in d1, d2 and v decomposed along the
basis (d1, d2, v), dot products through the Gram matrix of that basis, and
divergences with div(d_i) = div(v) = 4.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.poly import MultiPoly
from exactcft.tensor_ops import IVARS, tensor_pde_residual
from oracles import igen, ipoly, is_canonical, lapv

SPACETIME_DIM = 4


# -- the chain-rule oracle ------------------------------------------------------
# a vector a d1 + b d2 + c v is the tuple (a, b, c) of invariant polynomials


def _gram():
    t12, b1, b2, s1, s2, V = (igen(n) for n in IVARS)
    return ((b1, t12, s1), (t12, b2, s2), (s1, s2, V))


def grad1(f):
    return (2 * f.differentiate("b1"), f.differentiate("t12"), f.differentiate("s1"))


def grad2(f):
    return (f.differentiate("t12"), 2 * f.differentiate("b2"), f.differentiate("s2"))


def gradv(f):
    return (f.differentiate("s1"), f.differentiate("s2"), 2 * f.differentiate("V"))


def dot_basis(x, basis_index):
    g = _gram()
    out = ipoly()
    for k in range(3):
        out = out + x[k] * g[k][basis_index]
    return out


def divergence(x, grad, self_index):
    out = dot_basis(grad(x[0]), 0) + dot_basis(grad(x[1]), 1) + dot_basis(grad(x[2]), 2)
    return out + SPACETIME_DIM * x[self_index]


def chain_lap1(f):
    return divergence(grad1(f), grad1, 0)


def chain_lap2(f):
    return divergence(grad2(f), grad2, 1)


def chain_lapv(f):
    return divergence(gradv(f), gradv, 2)


def euler_vector(x, grad, self_index):
    """(d_i . grad_i) applied to a vector: each component's Euler derivative,
    plus the component along d_i itself."""
    out = [dot_basis(grad(comp), self_index) for comp in x]
    out[self_index] = out[self_index] + x[self_index]
    return out


def chain_residual(f, gap):
    g1, g2 = grad1(f), grad2(f)
    e1, e2 = euler_vector(g1, grad1, 0), euler_vector(g2, grad2, 1)
    a = 2 * e1[0] - chain_lap1(f) + 2 * e2[0] + gap * (g1[0] - g2[0])
    b = 2 * e1[1] + 2 * e2[1] - chain_lap2(f) + gap * (g1[1] - g2[1])
    c = 2 * e1[2] + 2 * e2[2] + gap * (g1[2] - g2[2])
    return a, b, c


# -- random polynomials in the six invariants -----------------------------------

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
exponents = st.tuples(*[st.integers(0, 3)] * len(IVARS))
polys = st.dictionaries(exponents, coefficients, max_size=6).map(lambda t: MultiPoly(IVARS, t))
gaps = st.sampled_from([Fraction(0), Fraction(2), Fraction(-2), Fraction(4), Fraction(1),
                        Fraction(1, 2), Fraction(-3, 2)])


@given(polys, gaps)
@settings(max_examples=150, deadline=None)
def test_residual_equals_the_chain_rule(f, gap):
    res = tensor_pde_residual(f, gap)
    assert (res.a, res.b, res.c) == chain_residual(f, gap)
    assert all(is_canonical(comp) for comp in (res.a, res.b, res.c))


@given(polys)
@settings(max_examples=150, deadline=None)
def test_lapv_equals_the_chain_rule(f):
    out = lapv(f)
    assert out == chain_lapv(f)
    assert is_canonical(out)


def test_zero_polynomial():
    for gap in (0, 2, Fraction(1, 2)):
        assert tensor_pde_residual(ipoly(), gap).is_zero()
    assert lapv(ipoly()).is_zero()


def test_each_monomial_of_low_degree():
    """Every monomial with exponents 0..2, one at a time, at an even, an odd
    and a half-integer gap: no random draw can miss a term of the closed form."""
    for exps in product(range(3), repeat=len(IVARS)):
        f = MultiPoly(IVARS, {exps: Fraction(3, 7)})
        assert lapv(f) == chain_lapv(f)
        for gap in (Fraction(0), Fraction(-2), Fraction(1, 2)):
            res = tensor_pde_residual(f, gap)
            assert (res.a, res.b, res.c) == chain_residual(f, gap)
