"""Component-wise oracle for the tensor intertwining machinery.

Expands operators into explicit 4-vector components with sympy and applies
the vector-calculus operators directly, independently of the invariant-algebra
route used by the library. Slowish, so the sample is kept small.
"""

import sympy as sp

from exactcft.tensor_ops import (
    IVARS,
    assemble_tensor_intertwiner,
    solve_intertwiner_space,
    tensor_pde_residual,
)
from oracles import coeffs, harmonic_project_poly, igen, lapv

P = sp.symbols("p0:4")
Q = sp.symbols("q0:4")
VV = sp.symbols("v0:4")


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


SUBS = {
    "t12": dot(P, Q),
    "b1": dot(P, P),
    "b2": dot(Q, Q),
    "s1": dot(VV, P),
    "s2": dot(VV, Q),
    "V": dot(VV, VV),
}


def to_components(poly):
    expr = sp.Integer(0)
    for exps, c in coeffs(poly).items():
        term = sp.Rational(c.numerator, c.denominator)
        for name, e in zip(IVARS, exps):
            if e:
                term *= SUBS[name] ** e
        expr += term
    return sp.expand(expr)


def condition_components(expr, gap=0):
    out = []
    for mu in range(4):
        term = sp.Integer(0)
        for vec, sign in ((P, 1), (Q, -1)):
            grad = [sp.diff(expr, vec[nu]) for nu in range(4)]
            euler_mu = sum(vec[nu] * sp.diff(grad[mu], vec[nu]) for nu in range(4))
            lap = sum(sp.diff(grad[nu], vec[nu]) for nu in range(4))
            term += 2 * euler_mu - vec[mu] * lap
            if gap:
                term += sign * gap * grad[mu]
        out.append(sp.expand(term))
    return out


def v_laplacian(expr):
    return sp.expand(sum(sp.diff(expr, VV[nu], 2) for nu in range(4)))


def test_assembled_operators_component_wise():
    for kappa, L in ((0, 2), (1, 1), (1, 2), (2, 0), (2, 1)):
        op = assemble_tensor_intertwiner(kappa, L)
        expr = to_components(op.poly)
        assert all(w == 0 for w in condition_components(expr)), (kappa, L)
        assert v_laplacian(expr) == 0, (kappa, L)


def test_residual_agreement_on_non_solutions():
    probes = [
        igen("s1") * igen("s1"),
        igen("t12") * igen("t12") * (igen("s1") - igen("s2")),
        igen("b1") * igen("s2") + igen("t12") * igen("s1"),
    ]
    for poly in probes:
        mine = tensor_pde_residual(poly).is_zero()
        brute = all(w == 0 for w in condition_components(to_components(poly)))
        assert mine == brute


def test_unequal_dims_kernel_component_wise():
    basis = solve_intertwiner_space(1, 0, 3, 1)
    assert basis
    for op in basis:
        expr = to_components(op.poly)
        assert all(w == 0 for w in condition_components(expr, gap=2))


def test_harmonic_projection_component_wise():
    probe = igen("s1") * igen("s2") * igen("t12") + igen("V") * igen("b1")
    projected = harmonic_project_poly(probe)
    assert lapv(projected).is_zero()
    assert v_laplacian(to_components(projected)) == 0
