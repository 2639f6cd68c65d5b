"""Job lists of the three workloads.

A job is one exactcft CLI command. Every pass of a workload runs the same
jobs in the same order; the seed only picks parameters from small sets of
values that cost the same, so that the figures of two seeds are comparable.
Jobs marked ``expect_exit=2`` exercise a known CLI fault: the command should
end with exit code 2 and a one-line error, and counts as failed until it does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sixpoint", "waves", "operators")


@dataclass
class Job:
    name: str
    argv: list[str]
    kind: str  # selects the output check in checks.py
    params: dict = field(default_factory=dict)
    expect_exit: int = 0


# -- sixpoint -------------------------------------------------------------------

# (h+, h-, h'+, h'-) for `exotic reduce`; every choice needs the same cap-12
# series, so the cost does not depend on the pick.
SIXPOINT_REDUCE_WEIGHTS = ((2, 1, 2, 1), (3, 2, 2, 3), (4, 1, 1, 2), (2, 3, 4, 3))
SIXPOINT_AMPLITUDE_WEIGHTS = ((2, 3), (3, 4), (4, 3), (3, 2))


def _sixpoint(rng: random.Random, tmp: Path) -> list[Job]:
    jobs = []
    for name in ("E6", "B", "BminusHalfE"):
        jobs.append(Job(f"restrict-{name}", ["exotic", "restrict", "--name", name, "--cap", "8"],
                        "restrict", {"name": name, "cap": 8}))
    for method in ("closed", "recursion"):
        jobs.append(Job(f"g-{method}",
                        ["exotic", "g", "--cap", "24", "--method", method, "--check-biharmonic"],
                        "gseries", {"cap": 24, "method": method}))
    for structure in ("B", "H"):
        w = rng.choice(SIXPOINT_REDUCE_WEIGHTS)
        jobs.append(Job(f"reduce-{structure}",
                        ["exotic", "reduce", "--structure", structure,
                         "--hplus", str(w[0]), "--hminus", str(w[1]),
                         "--hplusprime", str(w[2]), "--hminusprime", str(w[3]), "--cap", "12"],
                        "exotic_reduce", {"structure": structure, "weights": list(w)}))
    h, hp = rng.choice(SIXPOINT_AMPLITUDE_WEIGHTS)
    jobs.append(Job("amplitudes", ["exotic", "amplitudes", "--h", str(h), "--hprime", str(hp),
                                   "--cap", "16"],
                    "amplitudes", {"h": h, "h_prime": hp, "cap": 16}))
    for structure, hmax, kmax in (("B", 6, 1), ("H", 6, 1), ("E2", 4, 1)):
        jobs.append(Job(f"positivity-{structure}",
                        ["exotic", "positivity", "--structure", structure,
                         "--hmax", str(hmax), "--kmax", str(kmax)],
                        "positivity", {"structure": structure, "hmax": hmax, "kmax": kmax}))
    # fault: the report is written after the error handling in cli.main, so a
    # missing output directory ends in a FileNotFoundError traceback
    jobs.append(Job("fault-positivity-out",
                    ["exotic", "positivity", "--structure", "B", "--hmax", "3", "--kmax", "0",
                     "--out", str(tmp / "no-such-dir" / "report.json")],
                    "fault", expect_exit=2))
    return jobs


# -- waves ----------------------------------------------------------------------

# (d1, d2) of the waves; the rest of each spec is fixed. Swapping the first
# two dimensions keeps every Pochhammer argument positive and the numbers of
# the same size, so all four picks cost the same within a few percent.
WAVE_HEAD_DIMS = (("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"))
WAVE6_TAIL = ("2", "2", "1", "1")
WAVE6_MIDDLE = ("2", "2", "5/2")  # a2 = 2 is integral: the (1,2) channel matches h = 2
WAVE8_TAIL = ("2", "2", "1", "1", "2", "2")
WAVE8_MIDDLE = ("2", "2", "5/2", "2", "3/2")
WAVE10_TAIL = ("2", "2", "1", "1", "2", "2", "1", "1")
WAVE10_MIDDLE = ("2", "2", "5/2", "2", "3/2", "2", "5/2")
WAVE6_CAP = 8
REDUCE_H = 2

# wave JSON whose cap is a string: `reduce --wave` raises TypeError on it
BAD_CAP_WAVE = {
    "spec": {"n": 4, "dims": ["1", "1", "1", "1"], "proj": ["1", "2", "1"]},
    "cap": "x",
    "prefactor": {"numerator": "1", "factors": {}},
    "series": [],
}


def _wave_job(name: str, n: int, dims, middle, cap: int) -> Job:
    return Job(name, ["wave", "--n", str(n), "--dims", ",".join(dims),
                      "--proj", ",".join(middle), "--cap", str(cap)],
               "wave", {"n": n, "dims": list(dims), "middle": list(middle), "cap": cap})


def _waves(rng: random.Random, tmp: Path) -> list[Job]:
    head = rng.choice(WAVE_HEAD_DIMS)
    dims6 = head + WAVE6_TAIL
    wave6 = _wave_job("wave-n6", 6, dims6, WAVE6_MIDDLE, WAVE6_CAP)
    wave_file = str(tmp / "wave-n6.out")  # the runner writes each job's stdout there
    jobs = [wave6]
    # a2 = h: matched channel; a4 = 5/2 > h: mismatched, annihilated
    for pair, kind in (("1,2", "matched"), ("5,6", "mismatched")):
        jobs.append(Job(f"reduce-{kind}",
                        ["reduce", "--wave", wave_file, "--pair", pair, "--h", str(REDUCE_H)],
                        "wave_reduce",
                        {"pair": pair, "h": REDUCE_H, "expect": kind, "wave": wave6.params}))
    jobs.append(Job("casimir-n6", ["casimir-check", "--n", "6", "--dims", ",".join(dims6),
                                   "--proj", ",".join(WAVE6_MIDDLE), "--cap", "14"],
                    "casimir", {"n": 6, "cap": 14}))
    jobs.append(_wave_job("wave-n8", 8, head + WAVE8_TAIL, WAVE8_MIDDLE, 8))
    jobs.append(_wave_job("wave-n10", 10, head + WAVE10_TAIL, WAVE10_MIDDLE, 8))
    jobs.append(Job("fault-wave-proj", ["wave", "--n", "4", "--dims", "1,1,1,1",
                                        "--proj", "1/0", "--cap", "2"],
                    "fault", expect_exit=2))
    jobs.append(Job("fault-reduce-cap", ["reduce", "--wave", str(tmp / "bad-cap.json"),
                                         "--pair", "1,2", "--h", "2"],
                    "fault", expect_exit=2))
    return jobs


# -- operators ------------------------------------------------------------------

# The kernel system depends on d1 - d2 only, so every pick costs the same.
OPERATOR_GAP2_D1 = ("3", "4", "5", "7/2")
OPERATOR_EQUAL_D = ("1", "2", "3", "5/2")
CHIRAL_DIMS = (("3/2", "5/2"), ("5/2", "3/2"), ("1", "3"), ("3", "1"))
TENSOR_KAPPA, TENSOR_L = 4, 3


def _operators(rng: random.Random) -> list[Job]:
    d1 = Fraction(rng.choice(OPERATOR_GAP2_D1))
    d_eq = rng.choice(OPERATOR_EQUAL_D)
    kl = ["--kappa", str(TENSOR_KAPPA), "--L", str(TENSOR_L)]
    jobs = [
        Job("kernel-gap2", ["intertwiner", "tensor", *kl, "--d1", str(d1), "--d2", str(d1 - 2)],
            "tensor_kernel", {"kappa": TENSOR_KAPPA, "L": TENSOR_L, "gap": 2}),
        Job("kernel-equal", ["intertwiner", "tensor", *kl, "--d1", d_eq, "--d2", d_eq],
            "tensor_kernel", {"kappa": TENSOR_KAPPA, "L": TENSOR_L, "gap": 0}),
        # the assembled operator must lie in the span of the kernel-equal basis
        Job("assembled-4-3", ["intertwiner", "tensor", *kl], "tensor_assembled",
            {"kappa": TENSOR_KAPPA, "L": TENSOR_L, "span_of": "kernel-equal"}),
        Job("assembled-8-4", ["intertwiner", "tensor", "--kappa", "8", "--L", "4"],
            "tensor_assembled", {"kappa": 8, "L": 4}),
    ]
    cd1, cd2 = rng.choice(CHIRAL_DIMS)
    jobs.append(Job("chiral-E", ["intertwiner", "chiral", "--h", "12", "--d1", cd1, "--d2", cd2],
                    "chiral", {"h": 12, "d1": cd1, "d2": cd2, "normalized": False}))
    # --normalized ignores the dimensions, but the CLI still demands them
    jobs.append(Job("chiral-D", ["intertwiner", "chiral", "--h", "10", "--normalized",
                                 "--d1", "0", "--d2", "0"],
                    "chiral", {"h": 10, "normalized": True}))
    return jobs


def build(workload: str, seed: int, tmp: Path) -> list[Job]:
    """The job list of one pass; writes the input files the jobs read into tmp."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sixpoint":
        return _sixpoint(rng, tmp)
    if workload == "waves":
        (tmp / "bad-cap.json").write_text(json.dumps(BAD_CAP_WAVE), encoding="utf-8")
        return _waves(rng, tmp)
    if workload == "operators":
        return _operators(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
