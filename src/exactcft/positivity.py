"""Positivity data of the restricted six-point structures.

For each middle-channel weight pair (k+, k-) = (3/2 + n+, 3/2 + n-), the
block entry between the helicity labels r = (h+, h-) and c = (h+', h-') is

    C(r) C(c) * B^{k+}(h+, h+') * B^{k-}(h-, h-'),

with C a label's channel constant and B the chiral 4-point amplitudes. Their
closed form B^{3/2 + n}(h, h') = g_n (h)_n (h')_n splits each entry into a
row and a column factor: with g = g_{n+} g_{n-} and
v_r = C(r) (h+)_{n+} (h-)_{n-}, a B or H block is the outer product g v v^T.
The E2 structure, the twist-2 part of the exotic one, weights a label pair
by 2 (C_B(r) C_B(c) - C_H(r) C_H(c)), so its block is 2g v_B v_B^T -
2g v_H v_H^T. Each block is thus symmetric by construction, and its exact
inertia follows from the k x k Gram form of its k = 1 or 2 factors. After
projecting onto odd helicity and a fixed helicity sign, the report carries
the blocks and their inertia and stops there, with no admissibility verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .amplitudes import amplitude_scale
from .channels import channel_coefficients
from .linsolve import symmetric_inertia
from .special import format_rational, pochhammer

# each structure's blocks as a sum of outer products: (multiple of g, weighting)
TERMS = {"B": ((1, "B"),), "H": ((1, "H"),), "E2": ((2, "B"), (-2, "H"))}
STRUCTURES = tuple(TERMS)


def helicity_labels(h_max: int, sign: int) -> list[tuple[int, int]]:
    """Odd-helicity pairs (h+, h-) with the given helicity sign, sorted."""
    hs = range(1, h_max + 1)
    return [(hp, hm) for hp in hs for hm in hs if (hp - hm) % 2 and (hp - hm) * sign > 0]


class PositivityBlock(NamedTuple):
    k_plus: Fraction
    k_minus: Fraction
    sign: int
    labels: list[tuple[int, int]]
    entries: list[list[Fraction]]
    inertia: tuple[int, int, int]

    def to_json(self) -> dict:
        return {
            "k_plus": format_rational(self.k_plus),
            "k_minus": format_rational(self.k_minus),
            "helicity_sign": "+" if self.sign > 0 else "-",
            "labels": [list(l) for l in self.labels],
            "entries": [[format_rational(v) for v in row] for row in self.entries],
            "inertia": {
                "positive": self.inertia[0],
                "negative": self.inertia[1],
                "zero": self.inertia[2],
            },
        }


class PositivityReport(NamedTuple):
    structure: str
    h_max: int
    k_max: int
    blocks: list[PositivityBlock]

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "h_max": self.h_max,
            "k_max": self.k_max,
            "blocks": [b.to_json() for b in self.blocks],
        }


def positivity_report(structure: str, h_max: int, k_max: int) -> PositivityReport:
    """Assemble all odd-projected, sign-projected blocks with exact inertia.

    structure "B" and "H" follow the two weightings; "E2" is the twist-2 part
    of the exotic structure (twice the difference of the two), whose
    equal-sign blocks vanish identically. No admissibility verdict is drawn
    from the signatures.
    """
    if structure not in STRUCTURES:
        raise ValueError(f"structure must be one of {STRUCTURES}")
    if h_max < 2:
        raise ValueError("h_max must be >= 2 to contain any odd helicity pair")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    sides = {}
    for sign in (1, -1):
        labels = helicity_labels(h_max, sign)
        constants = [[channel_coefficients(*r, w) for _, w in TERMS[structure]] for r in labels]
        sides[sign] = labels, constants
    blocks = []
    for n_plus in range(k_max + 1):
        for n_minus in range(k_max + 1):
            g = amplitude_scale(n_plus) * amplitude_scale(n_minus)
            scales = [m * g for m, _ in TERMS[structure]]
            for sign in (1, -1):
                labels, constants = sides[sign]
                amps = (pochhammer(hp, n_plus) * pochhammer(hm, n_minus) for hp, hm in labels)
                factor = [[c * a for c in row] for row, a in zip(constants, amps)]
                rows = [[0] * len(factor) for _ in factor]
                for i, wr in enumerate(factor):  # the upper triangle, mirrored
                    sw = [s * x for s, x in zip(scales, wr)]
                    for j in range(i, len(factor)):
                        rows[i][j] = rows[j][i] = sum(a * y for a, y in zip(sw, factor[j]))
                blocks.append(
                    PositivityBlock(
                        Fraction(3, 2) + n_plus,
                        Fraction(3, 2) + n_minus,
                        sign,
                        labels,
                        rows,
                        symmetric_inertia(factor, scales),
                    )
                )
    return PositivityReport(structure, h_max, k_max, blocks)
