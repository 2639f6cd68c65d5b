"""Independent checks of exactcft CLI outputs.

Each check recomputes what a job printed by the benchmark's own code, from
the defining formula, or tests a property the method must have. None of
them imports exactcft. A check raises CheckError on the first mismatch.

Check functions take (job, out, ctx): the job (workloads.Job), its parsed
stdout, and a Context holding the pass's other outputs, a random source
for evaluation points and a runner for reference CLI commands.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Callable


class CheckError(Exception):
    pass


@dataclass
class Context:
    outputs: dict[str, bytes]  # stdout of every job of the pass, by job name
    rng: random.Random
    run_cli: Callable[[list[str]], bytes]  # stdout of a reference CLI command


def expect(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@lru_cache(maxsize=None)
def rising(x: Fraction, n: int) -> Fraction:
    """(x)_n = x (x+1) ... (x+n-1)."""
    return Fraction(1) if n == 0 else rising(x, n - 1) * (x + n - 1)


def compositions(parts: int, total_max: int):
    """All tuples of `parts` non-negative integers with sum <= total_max."""
    if parts == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in compositions(parts - 1, total_max - first):
            yield (first,) + rest


def series_dict(items) -> dict[tuple[int, ...], Fraction]:
    return {tuple(t["exponents"]): Fraction(t["coeff"]) for t in items}


# -- exact linear algebra ---------------------------------------------------------


def row_reduce(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon basis of the row space."""
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in rows:
        v = list(row)
        for b, p in zip(basis, pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, b)]
        lead = next((k for k, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = 1 / v[lead]
        v = [x * inv for x in v]
        for i, (b, p) in enumerate(zip(basis, pivots)):
            if b[lead]:
                f = b[lead]
                basis[i] = [x - f * y for x, y in zip(b, v)]
        basis.append(v)
        pivots.append(lead)
    return basis


def charpoly_inertia(matrix: list[list[Fraction]]) -> tuple[int, int, int]:
    """Inertia of a symmetric matrix from its characteristic polynomial.

    The polynomial of a real symmetric matrix has only real roots, so
    Descartes' rule of signs counts the positive roots exactly; the zero
    roots are the multiplicity of x = 0. The polynomial comes from the
    Faddeev-LeVerrier recursion on the matrix scaled to integers (a positive
    scale leaves the inertia unchanged).
    """
    n = len(matrix)
    scale = lcm(1, *(v.denominator for row in matrix for v in row))
    a = [[int(v * scale) for v in row] for row in matrix]
    coeffs = [0] * (n + 1)  # coeffs[k] multiplies x^k
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        trace = sum(am[i][i] for i in range(n))
        expect(trace % k == 0, "characteristic polynomial is not integral")
        coeffs[n - k] = -trace // k
        m = am
    zero = next((k for k, c in enumerate(coeffs) if c), n)

    def sign_changes(seq):
        signs = [c > 0 for c in seq if c]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    pos = sign_changes(coeffs[zero:])
    neg = sign_changes([c * (-1) ** k for k, c in enumerate(coeffs)][zero:])
    expect(pos + neg + zero == n, "characteristic polynomial is not real-rooted")
    return pos, neg, zero


# -- sixpoint ---------------------------------------------------------------------


def parity_constant(structure: str, hp: int, hm: int) -> int:
    """Channel constant of a helicity pair: +-2 on odd helicity, else 0."""
    h = hp - hm
    if h % 2 == 0:
        return 0
    if structure == "B":
        return 2
    return 2 if h > 0 else -2


def amplitude_table(h: int, hp: int, cap: int) -> list[Fraction]:
    """B^{3/2+n}, n <= cap, from 1 = sum_n B_n u^n 2F1(n+h, n+h'; 2n+3; u)."""

    def f21(a, b, c, ell):
        return rising(Fraction(a), ell) * rising(Fraction(b), ell) / (
            factorial(ell) * rising(Fraction(c), ell))

    table = [Fraction(1)]
    for m in range(1, cap + 1):
        table.append(-sum(table[n] * f21(n + h, n + hp, 2 * n + 3, m - n) for n in range(m)))
    return table


def cross_ratio(w, i, j, k, l) -> Fraction:
    """w_ij w_kl / (w_ik w_jl) for 1-based point labels."""
    return ((w[i - 1] - w[j - 1]) * (w[k - 1] - w[l - 1])
            / ((w[i - 1] - w[k - 1]) * (w[j - 1] - w[l - 1])))


def check_restrict(job, out, ctx):
    name, cap = job.params["name"], job.params["cap"]
    expect(out["name"] == name, "structure name")
    numerator = series_dict(out["numerator"])
    prefactor = {tuple(int(p) for p in k.split(",")): Fraction(e)
                 for k, e in out["prefactor"].items()}
    # series of numerator / prod (1 - u_i): every geometric coefficient is 1
    expected = {}
    for k in compositions(4, cap):
        c = sum((v for e, v in numerator.items() if all(x <= y for x, y in zip(e, k))),
                Fraction(0))
        if c:
            expected[k] = c
    expect(series_dict(out["series"]) == expected, "series differs from numerator/prod(1-u)")
    # the closed 2D form must equal the 4D monomials with X_ij = z_ij zbar_ij
    build = json.loads(ctx.run_cli(["exotic", "build", "--name", name]))
    monomials = [(Fraction(m["coeff"]),
                  {tuple(int(p) for p in k.split(",")): int(Fraction(e))
                   for k, e in m["factors"].items()})
                 for m in build["monomials"]]
    for _ in range(3):
        while True:
            z = [Fraction(ctx.rng.randint(-60, 60), ctx.rng.randint(1, 9)) for _ in range(6)]
            zb = [Fraction(ctx.rng.randint(-60, 60), ctx.rng.randint(1, 9)) for _ in range(6)]
            if len(set(z)) < 6 or len(set(zb)) < 6:
                continue
            u = (cross_ratio(z, 1, 2, 3, 4), cross_ratio(zb, 1, 2, 3, 4),
                 cross_ratio(z, 3, 4, 5, 6), cross_ratio(zb, 3, 4, 5, 6))
            if all(x != 1 for x in u):
                break

        def x2(i, j):
            return (z[i - 1] - z[j - 1]) * (zb[i - 1] - zb[j - 1])

        four_d = Fraction(0)
        for c, exps in monomials:
            term = c
            for (i, j), e in exps.items():
                term *= x2(i, j) ** e
            four_d += term
        closed = Fraction(1)
        for (i, j), e in prefactor.items():
            closed *= x2(i, j) ** int(e)
        num = Fraction(0)
        for e, c in numerator.items():
            t = c
            for ui, ei in zip(u, e):
                t *= ui ** ei
            num += t
        for ui in u:
            num /= 1 - ui
        expect(closed * num == four_d, f"2D form differs from the 4D monomials at z={z}, zbar={zb}")


def check_gseries(job, out, ctx):
    cap = job.params["cap"]
    expect(out["cap"] == cap and out["method"] == job.params["method"], "cap/method")
    expect(out["biharmonic_residual_zero"] is True, "biharmonic residual is not zero")
    expected = {(0, 0): Fraction(1)}
    for a in range(1, cap):
        for b in range(1, cap - a + 1):
            s = a + b
            expected[(a, b)] = Fraction(2 * a * b, s * (s * s - 1))
    expect(series_dict(out["series"]) == expected, "coefficient differs from 2ab/(s(s^2-1))")


def check_exotic_reduce(job, out, ctx):
    s = job.params["structure"]
    hp, hm, hpp, hmp = job.params["weights"]
    expect(out["weights"] == [hp, hm, hpp, hmp] and out["structure"] == s, "echoed parameters")
    value = parity_constant(s, hp, hm) * parity_constant(s, hpp, hmp)
    expect(Fraction(out["coefficient"]) == value,
           f"coefficient {out['coefficient']} != product of parity constants {value}")
    ref = {"2,3": hp + hpp - 3, "1,2": -hp, "1,3": -hp, "2,4": -hpp, "3,4": -hpp}
    expect(out["reference"]["plus_exponents"] == {k: str(v) for k, v in ref.items()},
           "reference 4-point exponents")


def check_amplitudes(job, out, ctx):
    h, hp, cap = job.params["h"], job.params["h_prime"], job.params["cap"]
    expect(out["h"] == h and out["h_prime"] == hp, "echoed weights")
    expect(out["reconstruction_residual_zero"] is True, "reconstruction residual is not zero")
    table = amplitude_table(h, hp, cap)
    expected = {fmt(Fraction(3, 2) + n): fmt(v) for n, v in enumerate(table)}
    expect(out["amplitudes"] == expected, "amplitudes differ from the triangular solve")


def check_positivity(job, out, ctx):
    structure, hmax, kmax = (job.params[k] for k in ("structure", "hmax", "kmax"))
    expect((out["structure"], out["h_max"], out["k_max"]) == (structure, hmax, kmax),
           "echoed parameters")
    amps = {}

    def amp(h1, h2, n):
        key = (min(h1, h2), max(h1, h2))
        if key not in amps:
            amps[key] = amplitude_table(key[0], key[1], kmax)
        return amps[key][n]

    def weight(r, c):
        if structure == "E2":
            return 2 * (parity_constant("B", *r) * parity_constant("B", *c)
                        - parity_constant("H", *r) * parity_constant("H", *c))
        return parity_constant(structure, *r) * parity_constant(structure, *c)

    blocks = iter(out["blocks"])
    for n_plus in range(kmax + 1):
        for n_minus in range(kmax + 1):
            for sign in (1, -1):
                block = next(blocks, None)
                expect(block is not None, "missing blocks")
                where = f"block (n+={n_plus}, n-={n_minus}, sign={sign})"
                labels = sorted((hp, hm) for hp in range(1, hmax + 1) for hm in range(1, hmax + 1)
                                if (hp - hm) % 2 and (hp - hm > 0) == (sign > 0))
                expect(block["k_plus"] == fmt(Fraction(3, 2) + n_plus)
                       and block["k_minus"] == fmt(Fraction(3, 2) + n_minus)
                       and block["helicity_sign"] == ("+" if sign > 0 else "-")
                       and block["labels"] == [list(l) for l in labels], f"{where}: labels")
                entries = [[weight(r, c) * amp(r[0], c[0], n_plus) * amp(r[1], c[1], n_minus)
                            for c in labels] for r in labels]
                expect([[Fraction(v) for v in row] for row in block["entries"]] == entries,
                       f"{where}: entries differ from parity constants x amplitudes")
                inertia = block["inertia"]
                reported = (inertia["positive"], inertia["negative"], inertia["zero"])
                expect(reported == charpoly_inertia(entries),
                       f"{where}: inertia {reported} differs from the characteristic polynomial")
    expect(next(blocks, None) is None, "extra blocks")


# -- waves ------------------------------------------------------------------------


def wave_spec(params) -> tuple[list[Fraction], list[Fraction]]:
    """(d_1..d_n, a_1..a_{n-1}) with a_1 = d_1 and a_{n-1} = d_n."""
    d = [Fraction(x) for x in params["dims"]]
    a = [d[0]] + [Fraction(x) for x in params["middle"]] + [d[-1]]
    return d, a


def check_wave(job, out, ctx):
    n, cap = job.params["n"], job.params["cap"]
    d, a = wave_spec(job.params)
    expect(out["spec"] == {"n": n, "dims": [fmt(x) for x in d], "proj": [fmt(x) for x in a]},
           "spec")
    expect(out["cap"] == cap, "cap")

    def dd(i):  # 1-based, zero outside 1..n
        return d[i - 1] if 1 <= i <= n else Fraction(0)

    def aa(i):
        return a[i - 1] if 1 <= i <= n - 1 else Fraction(0)

    factors = {}
    for j in range(1, n - 1):
        factors[f"{j},{j + 2}"] = dd(j + 1) - aa(j) - aa(j + 1)
    for i in range(1, n):
        factors[f"{i},{i + 1}"] = -(dd(i) + dd(i + 1) - aa(i - 1) - aa(i + 1))
    expect(out["prefactor"] == {"numerator": "1",
                                "factors": {k: fmt(v) for k, v in factors.items() if v}},
           "prefactor")
    upper = [aa(j) + aa(j + 1) - dd(j + 1) for j in range(1, n - 1)]
    lower = [2 * aa(k + 1) for k in range(1, n - 2)]
    got = series_dict(out["series"])
    expected_terms = 0
    for ells in compositions(n - 3, cap):
        padded = (0,) + ells + (0,)
        c = Fraction(1)
        for j in range(1, n - 1):
            c *= rising(upper[j - 1], padded[j - 1] + padded[j])
        for k, lk in enumerate(ells):
            c /= factorial(lk) * rising(lower[k], lk)
        if c:
            expected_terms += 1
            expect(got.get(ells) == c, f"coefficient of u^{ells}: {got.get(ells)} != {c}")
    expect(len(got) == expected_terms, "series has extra terms")


def check_casimir(job, out, ctx):
    expect(out["cap"] == job.params["cap"] and out["spec"]["n"] == job.params["n"], "echo")
    expect(sorted(out["residuals"]) == ["1", "2", "3"], "residual set")
    for w, res in out["residuals"].items():
        expect(res["zero"] is True and res["terms"] == [], f"Casimir residual {w} is not zero")


def check_wave_reduce(job, out, ctx):
    pair = [int(x) for x in job.params["pair"].split(",")]
    h = job.params["h"]
    d, _ = wave_spec(job.params["wave"])
    expect(out["pair"] == pair and out["h"] == h, "echoed parameters")
    expect(out["reliable_order"] == job.params["wave"]["cap"], "reliable order")
    if job.params["expect"] == "mismatched":
        expect(out["zero"] is True and "constant" not in out,
               "mismatched channel is not annihilated")
        return
    b = d[pair[0] - 1] - d[pair[1] - 1]
    lam = factorial(h) * sum(rising(h - p - b, p) * rising(p + b, h - p)
                             / (factorial(p) * factorial(h - p)) for p in range(h + 1))
    expect(out["zero"] is False and out["matches_reduced_wave"] is True,
           "matched channel does not reproduce the reduced wave")
    expect(Fraction(out["constant"]) == lam, f"constant {out['constant']} != {fmt(lam)}")


# -- operators --------------------------------------------------------------------

IVARS = ("t12", "b1", "b2", "s1", "s2", "V")


def parse_invariant_poly(coeffs: dict[str, str]) -> dict[tuple[int, ...], Fraction]:
    """{"t12^2*b1*V": "3/2", "1": ...} -> {exponents over IVARS: coefficient}."""
    poly = {}
    for key, val in coeffs.items():
        exps = [0] * len(IVARS)
        if key != "1":
            for factor in key.split("*"):
                var, _, power = factor.partition("^")
                exps[IVARS.index(var)] += int(power or 1)
        poly[tuple(exps)] = Fraction(val)
    return poly


NCOORD = 12  # d1 (0..3), d2 (4..7), v (8..11) in four Euclidean dimensions
PAIRS = [(i, j) for i in range(NCOORD) for j in range(i, NCOORD)]
PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}


class Jet:
    """Value, gradient and Hessian (upper triangle) of a function at a point,
    over integers. Products follow the Leibniz rule to second order."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __add__(self, o):
        return Jet(self.v + o.v, [x + y for x, y in zip(self.g, o.g)],
                   [x + y for x, y in zip(self.h, o.h)])

    def __mul__(self, o):
        a0, b0, ag, bg = self.v, o.v, self.g, o.g
        return Jet(a0 * b0, [a0 * y + b0 * x for x, y in zip(ag, bg)],
                   [a0 * bh + b0 * ah + ag[i] * bg[j] + ag[j] * bg[i]
                    for (i, j), ah, bh in zip(PAIRS, self.h, o.h)])

    def scale(self, c: int):
        return Jet(self.v * c, [x * c for x in self.g], [x * c for x in self.h])

    def second(self, i, j):
        return self.h[PAIR_INDEX[(min(i, j), max(i, j))]]


def pde_residuals(poly, gap: int, point: list[int]) -> tuple[list[int], int]:
    """Intertwining residual vector and v-Laplacian of the operator at a point.

    The operator is expanded in Cartesian components of d1, d2, v; the
    residual is sum_i [2 (d_i.grad_i) grad_i P - d_i lap_i P]
    + gap (grad_1 - grad_2) P, with exact derivatives from second-order jets.
    """
    coords = []
    for c, x in enumerate(point):
        g = [0] * NCOORD
        g[c] = 1
        coords.append(Jet(x, g, [0] * len(PAIRS)))

    def dot(p, q):
        out = coords[p] * coords[q]
        for mu in range(1, 4):
            out = out + coords[p + mu] * coords[q + mu]
        return out

    inv = [dot(0, 4), dot(0, 0), dot(4, 4), dot(8, 0), dot(8, 4), dot(8, 8)]
    scale = lcm(1, *(c.denominator for c in poly.values()))
    total = Jet(0, [0] * NCOORD, [0] * len(PAIRS))
    powers = [[Jet(1, [0] * NCOORD, [0] * len(PAIRS))] for _ in IVARS]
    for exps, c in poly.items():
        term = None
        for k, e in enumerate(exps):
            while len(powers[k]) <= e:
                powers[k].append(powers[k][-1] * inv[k])
            if e:
                term = powers[k][e] if term is None else term * powers[k][e]
        if term is None:
            term = powers[0][0]
        total = total + term.scale(int(c * scale))
    res = []
    for mu in range(4):
        r = gap * (total.g[mu] - total.g[4 + mu])
        for base in (0, 4):
            r += 2 * sum(point[base + nu] * total.second(base + nu, base + mu) for nu in range(4))
            r -= point[base + mu] * sum(total.second(base + nu, base + nu) for nu in range(4))
        res.append(r)
    lap_v = sum(total.second(8 + mu, 8 + mu) for mu in range(4))
    return res, lap_v


def check_operator_poly(poly, kappa: int, L: int, gap: int, rng: random.Random, where: str):
    expect(bool(poly), f"{where}: operator is zero")
    for e in poly:
        d_deg = 2 * (e[0] + e[1] + e[2]) + e[3] + e[4]
        v_deg = e[3] + e[4] + 2 * e[5]
        expect((d_deg, v_deg) == (2 * kappa + L, L), f"{where}: term {e} is not homogeneous")
    for _ in range(2):
        point = [rng.randint(-10**6, 10**6) for _ in range(NCOORD)]
        res, lap_v = pde_residuals(poly, gap, point)
        expect(all(r == 0 for r in res), f"{where}: intertwining residual nonzero at {point}")
        expect(lap_v == 0, f"{where}: not harmonic in v at {point}")


def check_tensor_kernel(job, out, ctx):
    kappa, L, gap = job.params["kappa"], job.params["L"], job.params["gap"]
    expect((out["kappa"], out["L"]) == (kappa, L), "echoed parameters")
    expect(Fraction(out["d1"]) - Fraction(out["d2"]) == gap, "dimension gap")
    basis = [parse_invariant_poly(b) for b in out["basis"]]
    expect(out["kernel_dimension"] == len(basis) > 0, "kernel dimension")
    for k, poly in enumerate(basis):
        check_operator_poly(poly, kappa, L, gap, ctx.rng, f"basis element {k}")
    monos = sorted({e for p in basis for e in p})
    rank = len(row_reduce([[p.get(e, Fraction(0)) for e in monos] for p in basis]))
    expect(rank == len(basis), "kernel basis is linearly dependent")


def check_tensor_assembled(job, out, ctx):
    kappa, L = job.params["kappa"], job.params["L"]
    expect((out["kappa"], out["L"]) == (kappa, L), "echoed parameters")
    expect(out["intertwines"] is True, "CLI reports intertwines: false")
    poly = parse_invariant_poly(out["coefficients"])
    check_operator_poly(poly, kappa, L, 0, ctx.rng, "assembled operator")
    span_of = job.params.get("span_of")
    if span_of:
        basis = [parse_invariant_poly(b) for b in json.loads(ctx.outputs[span_of])["basis"]]
        monos = sorted({e for p in basis + [poly] for e in p})

        def vec(p):
            return [p.get(e, Fraction(0)) for e in monos]

        rank = len(row_reduce([vec(p) for p in basis]))
        expect(len(row_reduce([vec(p) for p in basis] + [vec(poly)])) == rank,
               f"assembled operator is not in the span of the {span_of} basis")


def check_chiral(job, out, ctx):
    h = job.params["h"]
    expect(out["h"] == h and out["intertwines"] is True, "echo / intertwines")
    expected = {}
    if job.params["normalized"]:
        expect(out["kind"] == "D", "kind")
        for p in range(h):
            q = h - 1 - p
            expected[(p, q)] = Fraction((-1) ** q,
                                        factorial(h - 1) * factorial(p) ** 2 * factorial(q) ** 2)
    else:
        expect(out["kind"] == "E", "kind")
        b = Fraction(job.params["d1"]) - Fraction(job.params["d2"])
        for p in range(h + 1):
            q = h - p
            expected[(p, q)] = (-1) ** q * rising(q - b, p) * rising(p + b, q) / (
                factorial(p) * factorial(q))
    expect(out["coefficients"] == {f"({p},{q})": fmt(c) for (p, q), c in sorted(expected.items())
                                   if c},
           "table differs from the closed form")


CHECKS = {
    "restrict": check_restrict,
    "gseries": check_gseries,
    "exotic_reduce": check_exotic_reduce,
    "amplitudes": check_amplitudes,
    "positivity": check_positivity,
    "wave": check_wave,
    "casimir": check_casimir,
    "wave_reduce": check_wave_reduce,
    "tensor_kernel": check_tensor_kernel,
    "tensor_assembled": check_tensor_assembled,
    "chiral": check_chiral,
}


def verdict(job, returncode: int, stdout: bytes, stderr: str, ctx: Context) -> str | None:
    """None when the operation succeeded; otherwise why it failed.

    A failure whose reason starts with "wrong output" means the command
    exited cleanly but printed a wrong result.
    """
    if job.kind == "fault":
        lines = stderr.strip().splitlines()
        if returncode == job.expect_exit and len(lines) == 1 and "Traceback" not in stderr:
            return None
        return f"exit {returncode}, {len(lines)} stderr lines (want exit {job.expect_exit}, one line)"
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {returncode}: {tail[0][:200]}"
    try:
        CHECKS[job.kind](job, json.loads(stdout), ctx)
    except (CheckError, AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        return f"wrong output: {type(exc).__name__}: {exc}"
    return None
