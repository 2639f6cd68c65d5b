"""Positivity data of the restricted six-point structures.

For each middle-channel weight pair (k+, k-) = (3/2 + n+, 3/2 + n-), the
block entry between the helicity labels r = (h+, h-) and c = (h+', h-') is

    W(r, c) * B^{k+}(h+, h+') * B^{k-}(h-, h-'),

with W the product of the two labels' channel constants (for E2 the twist-2
exotic combination) and B the chiral 4-point amplitudes. W depends only on
the label pair and each amplitude table only on its unordered weight pair,
so a report builds one weight matrix per helicity sign and one table per
weight pair, whatever the number of (k+, k-) blocks. After projecting onto
odd helicity and a fixed helicity sign, each block is symmetric with exact
rational entries; the report carries the blocks and their exact inertia and
stops there, with no admissibility verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .amplitudes import AmplitudeMatrix, fourpoint_amplitudes
from .channels import channel_coefficients, twist_two_exotic_coefficient
from .errors import ConsistencyError
from .linsolve import symmetric_inertia
from .special import format_rational

STRUCTURES = ("B", "H", "E2")


def helicity_labels(h_max: int, sign: int) -> list[tuple[int, int]]:
    """Odd-helicity pairs (h+, h-) with the given helicity sign, sorted."""
    out = []
    for hp in range(1, h_max + 1):
        for hm in range(1, h_max + 1):
            h = hp - hm
            if h % 2 == 0:
                continue
            if sign > 0 and h > 0:
                out.append((hp, hm))
            if sign < 0 and h < 0:
                out.append((hp, hm))
    return sorted(out)


@dataclass(frozen=True)
class PositivityBlock:
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


@dataclass(frozen=True)
class PositivityReport:
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


def _weight(structure: str, row: tuple[int, int], col: tuple[int, int]) -> Fraction:
    """Product of the channel constants of two helicity labels."""
    if structure == "E2":
        return twist_two_exotic_coefficient(*row, *col)
    return channel_coefficients(*row, structure) * channel_coefficients(*col, structure)


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
    tables: dict[tuple[int, int], AmplitudeMatrix] = {}

    def amplitude(h: int, h_prime: int, n: int) -> Fraction:
        key = (min(h, h_prime), max(h, h_prime))
        if key not in tables:
            tables[key] = fourpoint_amplitudes(*key, k_max)
        return tables[key].value(n)

    sides = {}
    for sign in (1, -1):
        labels = helicity_labels(h_max, sign)
        sides[sign] = labels, [[_weight(structure, r, c) for c in labels] for r in labels]
    blocks = []
    for n_plus in range(k_max + 1):
        for n_minus in range(k_max + 1):
            for sign in (1, -1):
                labels, weights = sides[sign]
                rows = [
                    [
                        w * amplitude(r[0], c[0], n_plus) * amplitude(r[1], c[1], n_minus)
                        for c, w in zip(labels, weight_row)
                    ]
                    for r, weight_row in zip(labels, weights)
                ]
                for i in range(len(labels)):
                    for j in range(len(labels)):
                        if rows[i][j] != rows[j][i]:
                            raise ConsistencyError(
                                "assembled block is not symmetric"
                            )
                blocks.append(
                    PositivityBlock(
                        Fraction(3, 2) + n_plus,
                        Fraction(3, 2) + n_minus,
                        sign,
                        labels,
                        rows,
                        symmetric_inertia(rows),
                    )
                )
    return PositivityReport(structure, h_max, k_max, blocks)
