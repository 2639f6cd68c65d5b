import hashlib
from fractions import Fraction

import pytest

from exactcft.amplitudes import fourpoint_amplitudes
from exactcft.channels import channel_coefficients
from exactcft import positivity
from exactcft.cli import canonical_json
from exactcft.positivity import helicity_labels, positivity_report
from oracles import report_block, symmetric_inertia_eliminated

F = Fraction


def test_helicity_labels():
    assert helicity_labels(2, 1) == [(2, 1)]
    assert helicity_labels(2, -1) == [(1, 2)]
    assert helicity_labels(4, 1) == [(2, 1), (3, 2), (4, 1), (4, 3)]


def test_blocks_are_symmetric_with_consistent_inertia():
    rep = positivity_report("B", 4, 2)
    assert rep.blocks
    for b in rep.blocks:
        n = len(b.labels)
        assert len(b.entries) == n
        for i in range(n):
            for j in range(n):
                assert b.entries[i][j] == b.entries[j][i]
        p, m, z = b.inertia
        assert p + m + z == n


def test_b_and_h_agree_on_sign_projected_blocks():
    # with both helicities on the same side, the sign factors square away
    rb = positivity_report("B", 4, 1)
    rh = positivity_report("H", 4, 1)
    for bb, bh in zip(rb.blocks, rh.blocks):
        assert bb.entries == bh.entries


@pytest.mark.parametrize("sign", [1, -1])
def test_channel_constants_on_odd_helicity_labels(sign):
    # C_B = 2 on every odd-helicity label: F(1) = (-1)^{h-1} by Chu-Vandermonde,
    # so C_B = (-1)^{h+ + h-} (F+(1) F-(1) - 1) = 2 when h+ - h- is odd; and
    # C_H = +-2 on the +- side. So the B and H reports are equal, and every
    # E2 block is zero
    for r in helicity_labels(16, sign):
        assert channel_coefficients(*r, "B") == 2
        assert channel_coefficients(*r, "H") == 2 * sign


def test_twist_two_exotic_blocks_vanish():
    rep = positivity_report("E2", 4, 1)
    for b in rep.blocks:
        for row in b.entries:
            assert all(v == 0 for v in row)
        assert b.inertia == (0, 0, len(b.labels))


def test_truncation_stability():
    small = positivity_report("B", 3, 1)
    large = positivity_report("B", 5, 3)
    for b in small.blocks:
        big = report_block(
            large, int(b.k_plus - F(3, 2)), int(b.k_minus - F(3, 2)), b.sign
        )
        pos = {lab: i for i, lab in enumerate(big.labels)}
        for i, ri in enumerate(b.labels):
            for j, rj in enumerate(b.labels):
                assert b.entries[i][j] == big.entries[pos[ri]][pos[rj]]


@pytest.mark.parametrize("structure", ["B", "H"])
def test_inertia_is_the_amplitude_products_inertia(structure):
    # each entry is C(r) C(c) M(r, c), with C the labels' channel constants
    # and M(r, c) = A^(n+)(r+, c+) A^(n-)(r-, c-) from the amplitude tables;
    # Sylvester: with D the diagonal of the constants the block is D M D, so
    # its inertia is M's on the labels with a nonzero constant, plus one
    # zero per dropped label (no B or H constant vanishes up to hmax 14, so
    # none drops here)
    rep = positivity_report(structure, 8, 2)
    assert len(rep.blocks) == 18
    tables = {}

    def amplitude(h, h_prime, n):
        if (h, h_prime) not in tables:
            tables[h, h_prime] = fourpoint_amplitudes(h, h_prime, 2)
        return tables[h, h_prime].entries[n]

    for b in rep.blocks:
        n_plus, n_minus = int(b.k_plus - F(3, 2)), int(b.k_minus - F(3, 2))
        m = {
            (r, c): amplitude(r[0], c[0], n_plus) * amplitude(r[1], c[1], n_minus)
            for r in b.labels
            for c in b.labels
        }
        const = {r: channel_coefficients(*r, structure) for r in b.labels}
        assert b.entries == [[const[r] * const[c] * m[r, c] for c in b.labels] for r in b.labels]
        kept = [r for r in b.labels if const[r]]
        pos, neg, zero = symmetric_inertia_eliminated([[m[r, c] for c in kept] for r in kept])
        assert b.inertia == (pos, neg, zero + len(b.labels) - len(kept))


def test_block_values_spot_check():
    rep = positivity_report("B", 2, 0)
    b = report_block(rep, 0, 0, 1)
    assert b.labels == [(2, 1)]
    # C_B(2,1)^2 * B^{3/2} B^{3/2} = 4
    assert b.entries == [[F(4)]]
    assert b.inertia == (1, 0, 0)


def test_bad_parameters():
    with pytest.raises(ValueError):
        positivity_report("X", 4, 1)
    with pytest.raises(ValueError):
        positivity_report("B", 1, 1)


def test_large_report_digest():
    # SHA-256 of the canonical JSON of the hmax = 10, kmax = 4 report; it
    # runs in well under a second only while channel constants and amplitude
    # tables are computed once per report, not once per entry
    rep = positivity_report("H", 10, 4)
    digest = hashlib.sha256(canonical_json(rep.to_json()).encode()).hexdigest()
    assert digest == "091edce65db0fb0cdef827eaf0f7ad7233af1bc509e72df10132fd56d1ebf16f"


def test_channel_constants_computed_once_per_label(monkeypatch):
    calls = []
    monkeypatch.setattr(positivity, "channel_coefficients", lambda *args: calls.append(args) or F(1))
    positivity_report("H", 6, 1)
    labels = helicity_labels(6, 1) + helicity_labels(6, -1)
    assert sorted(calls) == sorted((*r, "H") for r in labels)
