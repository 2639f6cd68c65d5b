"""Self-test of the output checks: every check must be able to fail.

    python3 cftbench/selftest.py

Runs one pass of each workload, confirms that every output passes its check
and that each fault job fails, then corrupts one value of each captured
output (a coefficient, an inertia count, a flag) and confirms that the
matching check reports the operation as failed with a wrong output. Also
confirms that a fault job which ends with exit 2 and a one-line error
counts as succeeded. Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from fractions import Fraction

import checks
import run
import workloads


def bump(text: str) -> str:
    return checks.fmt(Fraction(text) + 1)


def set_coeff(items: list, k: int):
    items[k]["coeff"] = bump(items[k]["coeff"])


def shift_inertia(o):
    """Move one count between signs; the sum still equals the dimension."""
    inertia = o["blocks"][0]["inertia"]
    src = "zero" if inertia["zero"] else "positive"
    inertia[src] -= 1
    inertia["negative" if src == "positive" else "positive"] += 1


def bump_entry(o):
    entries = o["blocks"][0]["entries"]
    entries[0][0] = bump(entries[0][0])


def bump_key(d: dict, key=None):
    key = key if key is not None else sorted(d)[len(d) // 2]
    d[key] = bump(d[key])


# kind -> [(what is corrupted, mutation of the parsed output)]
MUTATIONS = {
    "restrict": [
        ("one series coefficient", lambda o: set_coeff(o["series"], len(o["series"]) // 2)),
        ("one prefactor exponent", lambda o: bump_key(o["prefactor"], "1,2")),
    ],
    "gseries": [
        ("one series coefficient", lambda o: set_coeff(o["series"], len(o["series"]) // 2)),
        ("the biharmonic flag", lambda o: o.update(biharmonic_residual_zero=False)),
    ],
    "exotic_reduce": [("the coefficient", lambda o: o.update(coefficient=bump(o["coefficient"])))],
    "amplitudes": [("one amplitude", lambda o: bump_key(o["amplitudes"]))],
    "positivity": [("one inertia count", shift_inertia), ("one block entry", bump_entry)],
    "wave": [
        ("one series coefficient", lambda o: set_coeff(o["series"], len(o["series"]) // 2)),
        ("one prefactor exponent", lambda o: bump_key(o["prefactor"]["factors"])),
    ],
    "casimir": [("one residual flag", lambda o: o["residuals"]["2"].update(zero=False))],
    "wave_reduce": [("the zero flag", lambda o: o.update(zero=not o["zero"]))],
    "tensor_kernel": [("one basis coefficient", lambda o: bump_key(o["basis"][0]))],
    "tensor_assembled": [("one operator coefficient", lambda o: bump_key(o["coefficients"]))],
    "chiral": [("one table entry", lambda o: bump_key(o["coefficients"]))],
}

MATCHED_CONSTANT = ("the matched constant", lambda o: o.update(constant=bump(o["constant"])))


def main() -> int:
    tmp = run.ROOT / ".cftbench_tmp" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    problems = []
    try:
        for workload in workloads.WORKLOADS:
            bench = run.Bench(workload, 1, tmp)
            p = bench.run_pass(traced=False)
            failed = dict(bench.verify(p))
            for job in bench.jobs:
                out = p.runs[job.name]
                if job.kind == "fault":
                    if job.name not in failed:
                        print(f"note: {job.name} already passes (fault mended)")
                    ctx = checks.Context({}, random.Random(0), bench.reference_cli)
                    if checks.verdict(job, 2, b"", "error: bad input\n", ctx) is not None:
                        problems.append(f"{job.name}: a one-line exit-2 error is not accepted")
                    continue
                if job.name in failed:
                    problems.append(f"{job.name}: unmodified output fails: {failed[job.name]}")
                    continue
                mutations = list(MUTATIONS[job.kind])
                if job.kind == "wave_reduce" and job.params["expect"] == "matched":
                    mutations.append(MATCHED_CONSTANT)
                for what, mutate in mutations:
                    obj = json.loads(out.stdout)
                    mutate(obj)
                    ctx = checks.Context({n: r.stdout for n, r in p.runs.items()},
                                         random.Random(0), bench.reference_cli)
                    reason = checks.verdict(job, 0, json.dumps(obj).encode(), "", ctx)
                    ok = reason is not None and reason.startswith("wrong output")
                    print(f"{'caught' if ok else 'MISSED'}: {workload}/{job.name}: {what}: {reason}")
                    if not ok:
                        problems.append(f"{job.name}: corrupted {what} passes its check")
                span_of = job.params.get("span_of")
                if span_of:
                    # a valid kernel basis of another dimension gap must not span it
                    outputs = {n: r.stdout for n, r in p.runs.items()}
                    outputs[span_of] = outputs["kernel-gap2"]
                    ctx = checks.Context(outputs, random.Random(0), bench.reference_cli)
                    reason = checks.verdict(job, 0, out.stdout, "", ctx)
                    ok = reason is not None and reason.startswith("wrong output")
                    print(f"{'caught' if ok else 'MISSED'}: {workload}/{job.name}:"
                          f" span of the gap-2 basis: {reason}")
                    if not ok:
                        problems.append(f"{job.name}: span check accepts the gap-2 basis")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
