import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft import cli
from exactcft.cli import SERIES_TERM_BUDGET, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wave_example(capsys):
    code, out, err = run_cli(
        capsys, "wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "2", "--cap", "2"
    )
    assert code == 0
    data = json.loads(out)
    coeffs = [item["coeff"] for item in data["series"]]
    assert coeffs == ["1", "1", "9/10"]
    manifest = json.loads(err)
    assert manifest["tool_version"]
    assert len(manifest["output_digest"]) == 64


def test_manifest_digest_is_sha256_of_the_payload(capsys):
    _, out, err = run_cli(capsys, "exotic", "coeff", "--hplus", "2", "--hminus", "1",
                          "--structure", "H")
    payload = out.removesuffix("\n")
    assert json.loads(err)["output_digest"] == hashlib.sha256(payload.encode()).hexdigest()


def test_determinism(capsys):
    args = ("wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "2", "--cap", "3")
    _, out1, err1 = run_cli(capsys, *args)
    _, out2, err2 = run_cli(capsys, *args)
    assert out1 == out2
    assert err1 == err2


def test_intertwiner_chiral_example(capsys):
    code, out, _ = run_cli(
        capsys, "intertwiner", "chiral", "--h", "2", "--d1", "1", "--d2", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == {"(1,1)": "-1"}
    assert data["intertwines"] is True


def test_exotic_coeff_example(capsys):
    code, out, _ = run_cli(
        capsys, "exotic", "coeff", "--hplus", "2", "--hminus", "1", "--structure", "H"
    )
    assert code == 0
    assert json.loads(out)["coefficient"] == "2"


def test_casimir_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "casimir-check",
        "--n", "4", "--dims", "1,1,1,1", "--proj", "2", "--cap", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert all(v["zero"] for v in data["residuals"].values())


@pytest.mark.parametrize("n, dims, proj", [
    ("4", "1,1,1,1", "2"),
    ("5", "1,2,1,2,1", "2,5/2"),
    ("7", "1,5,5,5,5,5,1", "2,2,2,2"),
    ("8", "1,1,2,2,1,1,2,2", "2,2,5/2,2,3/2"),
])
def test_casimir_check_runs_one_equation_per_cross_ratio(capsys, n, dims, proj):
    base = ("casimir-check", "--n", n, "--dims", dims, "--proj", proj, "--cap", "3")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    residuals = json.loads(out)["residuals"]
    assert sorted(residuals) == [str(k) for k in range(1, int(n) - 2)]
    assert all(v == {"zero": True, "terms": []} for v in residuals.values())
    code, out, _ = run_cli(capsys, *base, "--which", str(int(n) - 3))
    assert code == 0
    assert list(json.loads(out)["residuals"]) == [str(int(n) - 3)]
    for which in ("-1", str(int(n) - 2)):
        code, out, err = run_cli(capsys, *base, "--which", which)
        assert (code, out) == (2, "")
        assert err == f"error: --which must be in 0..{int(n) - 3} for n = {n}, got {which}\n"


@pytest.mark.parametrize("which", ["0", "1", "5"])
def test_casimir_check_refuses_three_points(capsys, which):
    code, out, err = run_cli(capsys, "casimir-check", "--n", "3", "--dims", "1,1,1",
                             "--which", which)
    assert (code, out) == (3, "")
    assert err == "error: casimir check needs n >= 4; a 3-point wave has no cross ratio\n"


@pytest.mark.parametrize("command", ["wave", "casimir-check"])
@pytest.mark.parametrize("n, dims", [("2", "1,1"), ("1", "1"), ("0", "")])
def test_fewer_than_three_points_names_the_minimum(capsys, command, n, dims):
    # the point count is checked before the count of middle projections
    code, out, err = run_cli(capsys, command, "--n", n, "--dims", dims)
    assert (code, out) == (2, "")
    assert err == f"error: need at least 3 points, got {n}\n"


@pytest.mark.parametrize("command", ["wave", "casimir-check"])
@pytest.mark.parametrize("n, cap, terms", [(30, 30, comb(57, 27)), (12, 11, comb(20, 9))])
def test_a_series_above_the_term_budget_is_refused_before_the_walk(capsys, command, n, cap, terms):
    # C(cap + n - 3, n - 3) terms: about 1.4e16 at n = 30, cap 30, a walk that would not end
    code, out, err = run_cli(capsys, command, "--n", str(n), "--dims", ",".join(["1"] * n),
                             "--proj", ",".join(["2"] * (n - 3)), "--cap", str(cap))
    assert (code, out) == (2, "")
    assert err == (f"error: --n {n} --cap {cap} asks for {terms} series terms,"
                   f" above the budget of {SERIES_TERM_BUDGET}\n")
    # the benchmark's wave-n10 (n = 10, cap 8) and an n = 12, cap 8 wave stay within it
    assert comb(15, 7) < comb(17, 9) <= SERIES_TERM_BUDGET < terms


@pytest.mark.parametrize("command", ["wave", "casimir-check"])
@pytest.mark.parametrize("n, cap", [(7203, 7200), (100_003, 10**9), (67, 10**70)])
def test_a_series_far_above_the_term_budget_is_refused_uncounted(capsys, monkeypatch, command, n, cap):
    # C(14400, 7200) and C(10**70 + 64, 64) have over 4,300 digits, past str's limit for a message,
    # and C(10**9 + 10**5, 10**5) takes a second to compute; with n - 3 and cap both past 64, or both
    # >= 1 and one past the budget, the count is far above the budget and is not computed
    monkeypatch.setattr(cli, "comb", lambda *args: pytest.fail(f"counted C{args}"))
    code, out, err = run_cli(capsys, command, "--n", str(n), "--dims", ",".join(["1"] * n),
                             "--proj", ",".join(["2"] * (n - 3)), "--cap", str(cap))
    assert (code, out) == (2, "")
    assert err == (f"error: --n {n} --cap {cap} asks for more series terms than the budget"
                   f" of {SERIES_TERM_BUDGET}\n")
    assert comb(130, 65) > SERIES_TERM_BUDGET


def test_reduce_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "2", "--cap", "5"
    )
    assert code == 0
    wave_path = tmp_path / "wave.json"
    wave_path.write_text(out)
    code, out, _ = run_cli(
        capsys, "reduce", "--wave", str(wave_path), "--pair", "1,2", "--h", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["zero"] is False
    assert data["matches_reduced_wave"] is True


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "0", "--cap", "2"
    )
    assert code == 3
    assert "degenerate" in err.lower()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wave", "--n", "4", "--badflag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--pair", "1,2", "--h", "2"])
    assert exc.value.code == 2
    code, _, _ = run_cli(capsys, "wave", "--n", "5", "--dims", "1,1", "--cap", "2")
    assert code == 2


def test_a_reader_that_closes_stdout_early_gets_exit_141_and_no_message():
    """`exactcft wave ... | head -c 10`: the write fails with a broken pipe,
    which is no usage error (exit 2) but exit 128 + SIGPIPE, as a shell reports it."""
    argv = ["wave", "--n", "10", "--dims", "1,1,2,2,1,1,2,2,1,1", "--proj", "2,2,5/2,2,3/2,2,5/2",
            "--cap", "8"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    with subprocess.Popen([sys.executable, "-m", "exactcft.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


def test_manifest_to_file(tmp_path, capsys):
    mpath = tmp_path / "manifest.json"
    code, out, err = run_cli(
        capsys,
        "--manifest", str(mpath),
        "exotic", "amplitudes", "--h", "2", "--hprime", "2", "--cap", "4",
    )
    assert code == 0
    assert err == ""
    manifest = json.loads(mpath.read_text())
    assert manifest["parameters"]["h"] == "2"
    data = json.loads(out)
    assert data["amplitudes"]["5/2"] == "-4/3"
    assert data["reconstruction_residual_zero"] is True


def test_positivity_report_out_file(tmp_path, capsys):
    rpath = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "exotic", "positivity", "--structure", "B", "--hmax", "2", "--kmax", "1",
        "--out", str(rpath),
    )
    assert code == 0
    report = json.loads(rpath.read_text())
    assert report["structure"] == "B"
    assert report["blocks"]
    for block in report["blocks"]:
        inertia = block["inertia"]
        assert inertia["positive"] + inertia["negative"] + inertia["zero"] == len(
            block["labels"]
        )


def test_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "table",
        "exotic", "coeff", "--hplus", "2", "--hminus", "1", "--structure", "B",
    )
    assert code == 0
    assert "coefficient: 2" in out


def test_exotic_build_and_g(capsys):
    code, out, _ = run_cli(capsys, "exotic", "build", "--name", "B")
    assert code == 0
    assert len(json.loads(out)["monomials"]) == 4
    code, out, _ = run_cli(
        capsys, "exotic", "g", "--cap", "6", "--method", "recursion",
        "--check-biharmonic",
    )
    assert code == 0
    assert json.loads(out)["biharmonic_residual_zero"] is True


def test_exotic_restrict_and_reduce(capsys):
    code, out, _ = run_cli(
        capsys, "exotic", "restrict", "--name", "BminusHalfE", "--cap", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["prefactor"]["1,2"] == "-2"
    code, out, _ = run_cli(
        capsys,
        "exotic", "reduce", "--structure", "H",
        "--hplus", "2", "--hminus", "1", "--hplusprime", "1", "--hminusprime", "2",
    )
    assert code == 0
    assert json.loads(out)["coefficient"] == "-4"


def test_tensor_intertwiner_cli(capsys):
    code, out, _ = run_cli(capsys, "intertwiner", "tensor", "--kappa", "1", "--L", "0")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == {"t12": "1"}
    assert data["intertwines"] is True
    code, out, _ = run_cli(
        capsys, "intertwiner", "tensor", "--kappa", "0", "--L", "2",
        "--d1", "1", "--d2", "1",
    )
    assert code == 0
    assert json.loads(out)["kernel_dimension"] == 1


def _one_line_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")


def test_positivity_out_into_missing_directory(tmp_path, capsys):
    _one_line_usage_error(*run_cli(
        capsys,
        "exotic", "positivity", "--structure", "B", "--hmax", "3", "--kmax", "0",
        "--out", str(tmp_path / "no-such-dir" / "report.json"),
    ))


def test_wave_zero_denominator(capsys):
    _one_line_usage_error(*run_cli(
        capsys, "wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "1/0", "--cap", "2"
    ))


def test_reduce_rejects_string_cap(tmp_path, capsys):
    bad = {
        "spec": {"n": 4, "dims": ["1", "1", "1", "1"], "proj": ["1", "2", "1"]},
        "cap": "x",
        "prefactor": {"numerator": "1", "factors": {}},
        "series": [],
    }
    wave_path = tmp_path / "bad-cap.json"
    wave_path.write_text(json.dumps(bad))
    _one_line_usage_error(*run_cli(
        capsys, "reduce", "--wave", str(wave_path), "--pair", "1,2", "--h", "2"
    ))


GOOD_WAVE4 = {
    "spec": {"n": 4, "dims": ["1", "1", "1", "1"], "proj": ["1", "2", "1"]},
    "cap": 0,
    "prefactor": {"numerator": "1", "factors": {"1,3": "-2", "2,4": "-2"}},
    "series": [{"exponents": [0], "coeff": "1"}],
}


@pytest.mark.parametrize(
    "change",
    [{"spec": []}, {"series": ["x"]}, {"prefactor": []}],
    ids=["spec", "series", "prefactor"],
)
def test_reduce_rejects_non_object_nodes(tmp_path, capsys, change):
    wave_path = tmp_path / "bad.json"
    wave_path.write_text(json.dumps({**GOOD_WAVE4, **change}))
    _one_line_usage_error(*run_cli(
        capsys, "reduce", "--wave", str(wave_path), "--pair", "1,2", "--h", "2"
    ))


def test_reduce_accepts_the_unchanged_wave(tmp_path, capsys):
    wave_path = tmp_path / "good.json"
    wave_path.write_text(json.dumps(GOOD_WAVE4))
    code, _, _ = run_cli(capsys, "reduce", "--wave", str(wave_path), "--pair", "1,2", "--h", "2")
    assert code == 0


def test_reduce_rejects_a_series_term_above_the_cap(tmp_path, capsys):
    # the constructor's truncation would drop the term silently
    wave_path = tmp_path / "past-cap.json"
    wave_path.write_text(json.dumps({**GOOD_WAVE4, "cap": 1,
                                     "series": [{"exponents": [5], "coeff": "7"}]}))
    code, out, err = run_cli(capsys, "reduce", "--wave", str(wave_path), "--pair", "1,2", "--h", "2")
    _one_line_usage_error(code, out, err)
    assert "(5,)" in err and "cap 1" in err


@pytest.mark.parametrize("h", ["-1", "0"])
def test_amplitudes_reject_weight_below_one(capsys, h):
    code, out, err = run_cli(
        capsys, "exotic", "amplitudes", "--h", h, "--hprime", "2", "--cap", "2"
    )
    assert code == 3
    assert out == ""
    assert err == "error: only chiral dimensions h >= 1 occur\n"


def test_normalized_chiral_needs_no_dimensions(capsys):
    code, out, _ = run_cli(capsys, "intertwiner", "chiral", "--h", "10", "--normalized")
    assert code == 0
    assert json.loads(out)["kind"] == "D"
    code, with_dims, _ = run_cli(
        capsys, "intertwiner", "chiral", "--h", "10", "--normalized", "--d1", "0", "--d2", "0"
    )
    assert code == 0
    assert with_dims == out
    code, _, err = run_cli(capsys, "intertwiner", "chiral", "--h", "10")
    assert code == 2
    assert "--d1" in err


@pytest.mark.parametrize("dimension", [("--d1", "3"), ("--d2", "1")], ids=["d1", "d2"])
def test_tensor_kernel_needs_both_dimensions(capsys, dimension):
    _one_line_usage_error(*run_cli(
        capsys, "intertwiner", "tensor", "--kappa", "2", "--L", "1", *dimension
    ))


def _result(capsys, argv):
    """Exit code, stdout, and stderr without the manifest's echo of the argv."""
    code, out, err = run_cli(capsys, *argv)
    if code == 0:
        manifest = json.loads(err)
        del manifest["command"]
        return code, out, manifest
    return code, out, err


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("intertwiner", "chiral", "--h", "2", "--d2", "0"), "--d1", "-1/2"),
        (("wave", "--n", "5", "--dims", "1,1,1,1,1"), "--proj", "-1/2,0"),
        (("wave", "--n", "4", "--dims", "1,1,1,1", "--cap", "3"), "--proj", "-5/2"),
        (("intertwiner", "tensor", "--kappa", "1", "--L", "1", "--d2", "1"), "--d1", "-3/2"),
    ],
    ids=["chiral-d1", "wave-proj-list", "wave-proj", "tensor-d1"],
)
def test_negative_rational_is_a_value(capsys, argv, option, value):
    attached = _result(capsys, argv + (f"{option}={value}",))
    assert _result(capsys, argv + (option, value)) == attached
    assert attached[0] in (0, 3)


@pytest.mark.parametrize("pair", ["1", "x,y"])
def test_malformed_pair_names_the_option(tmp_path, capsys, pair):
    wave_path = tmp_path / "good.json"
    wave_path.write_text(json.dumps(GOOD_WAVE4))
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--wave", str(wave_path), "--pair", pair, "--h", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1] == (
        f"exactcft reduce: error: argument --pair: expected two integers 'i,j', got {pair!r}"
    )
    assert "Traceback" not in captured.err


# -- the command line ------------------------------------------------------------

# one argv per leaf command and the manifest parameters it records; WAVE, OUT and
# MANIFEST stand for files under tmp_path
LEAF_PARAMETERS = {
    "wave": (
        ("wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "2", "--cap", "2"),
        {"cap": "2", "command": "wave", "dims": "1,1,1,1", "format": "json", "n": "4",
         "proj": "2"},
    ),
    "casimir-check": (
        ("--format", "table", "casimir-check", "--n", "5", "--dims", "1,1,1,1,1", "--proj",
         "2,2", "--cap", "2", "--which", "1"),
        {"cap": "2", "command": "casimir-check", "dims": "1,1,1,1,1", "format": "table",
         "n": "5", "proj": "2,2", "which": "1"},
    ),
    "intertwiner chiral": (
        ("intertwiner", "chiral", "--h", "2", "--d1", "1", "--d2", "-1/2"),
        {"command": "intertwiner", "d1": "1", "d2": "-1/2", "flavor": "chiral",
         "format": "json", "h": "2", "normalized": "False"},
    ),
    "intertwiner tensor": (
        ("intertwiner", "tensor", "--kappa", "1", "--L", "2"),
        {"L": "2", "command": "intertwiner", "flavor": "tensor", "format": "json",
         "kappa": "1"},
    ),
    "reduce": (
        ("reduce", "--wave", "WAVE", "--h", "2"),
        {"command": "reduce", "format": "json", "h": "2", "pair": "(1, 2)", "wave": "WAVE"},
    ),
    "exotic build": (
        ("--manifest", "MANIFEST", "exotic", "build", "--name", "E6"),
        {"command": "exotic", "exotic_cmd": "build", "format": "json", "manifest": "MANIFEST",
         "name": "E6"},
    ),
    "exotic g": (
        ("exotic", "g", "--cap", "4", "--check-biharmonic"),
        {"cap": "4", "check_biharmonic": "True", "command": "exotic", "exotic_cmd": "g",
         "format": "json", "method": "closed"},
    ),
    "exotic coeff": (
        ("exotic", "coeff", "--hplus", "2", "--hminus", "1", "--structure", "H"),
        {"command": "exotic", "exotic_cmd": "coeff", "format": "json", "hminus": "1",
         "hplus": "2", "structure": "H"},
    ),
    "exotic restrict": (
        ("exotic", "restrict", "--name", "B"),
        {"cap": "0", "command": "exotic", "exotic_cmd": "restrict", "format": "json",
         "name": "B"},
    ),
    "exotic reduce": (
        ("exotic", "reduce", "--structure", "B", "--hplus", "2", "--hminus", "1",
         "--hplusprime", "2", "--hminusprime", "1"),
        {"cap": "12", "command": "exotic", "exotic_cmd": "reduce", "format": "json",
         "hminus": "1", "hminusprime": "1", "hplus": "2", "hplusprime": "2", "structure": "B"},
    ),
    "exotic amplitudes": (
        ("exotic", "amplitudes", "--h", "2", "--hprime", "3", "--cap", "3"),
        {"cap": "3", "command": "exotic", "exotic_cmd": "amplitudes", "format": "json",
         "h": "2", "hprime": "3"},
    ),
    "exotic positivity": (
        ("exotic", "positivity", "--structure", "E2", "--hmax", "2", "--kmax", "0",
         "--out", "OUT"),
        {"command": "exotic", "exotic_cmd": "positivity", "format": "json", "hmax": "2",
         "kmax": "0", "out": "OUT", "structure": "E2"},
    ),
}


@pytest.mark.parametrize("leaf", list(LEAF_PARAMETERS))
def test_manifest_parameters_of_every_leaf_command(tmp_path, capsys, leaf):
    argv, parameters = LEAF_PARAMETERS[leaf]
    files = {name: str(tmp_path / name.lower()) for name in ("WAVE", "OUT", "MANIFEST")}
    (tmp_path / "wave").write_text(json.dumps(GOOD_WAVE4))
    code, _, err = run_cli(capsys, *(files.get(token, token) for token in argv))
    assert code == 0
    if "--manifest" in argv:
        err = (tmp_path / "manifest").read_text()
    assert json.loads(err)["parameters"] == {k: files.get(v, v) for k, v in parameters.items()}


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (("wave", "--n", "4", "--dims", "1,1,1,1", "--badflag"),
         "exactcft: error: unrecognized arguments: --badflag"),
        (("wave", "--n", "4", "--dims", "1,1,1,1", "2", "--cap", "2"),
         "exactcft: error: unrecognized arguments: 2"),
        (("wave",), "exactcft wave: error: the following arguments are required: --n, --dims"),
        (("exotic", "positivity", "--structure", "B", "--hmax", "2"),
         "exactcft exotic positivity: error: the following arguments are required: --kmax"),
        (("wave", "--n", "x", "--dims", "1"),
         "exactcft wave: error: argument --n: invalid int value: 'x'"),
        (("exotic", "build", "--name", "x"),
         "exactcft exotic build: error: argument --name: invalid choice: 'x'"
         " (choose from 'E6', 'B', 'BminusHalfE')"),
        (("wave", "--dims", "1", "--n"), "exactcft wave: error: argument --n: expected one argument"),
        (("wave", "--n", "4", "--dims", "--"),
         "exactcft wave: error: argument --dims: expected one argument"),
        (("wave", "--n", "4", "--dims=--"),
         "exactcft: error: an option was given '--' as its value"),
        (("intertwiner", "chiral", "--h", "2", "--normalized=x"),
         "exactcft intertwiner chiral: error: argument --normalized: ignored explicit argument 'x'"),
        (("exotic", "reduce", "--structure", "B", "--hp", "2", "--hminus", "1"),
         "exactcft exotic reduce: error: ambiguous option: --hp could match --hplus, --hplusprime"),
        ((), "exactcft: error: the following arguments are required: command"),
        (("exotic",), "exactcft exotic: error: the following arguments are required: exotic_cmd"),
        (("intertwiner", "vector"),
         "exactcft intertwiner: error: argument flavor: invalid choice: 'vector'"
         " (choose from 'chiral', 'tensor')"),
    ],
    ids=["unknown-option", "stray-token", "missing-required", "missing-required-leaf",
         "bad-int", "bad-choice", "missing-value", "dashes-as-value", "dashes-attached",
         "flag-with-value", "ambiguous-prefix", "missing-command", "missing-subcommand",
         "unknown-subcommand"],
)
def test_usage_error_ends_in_one_named_message(capsys, argv, last_line):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: exactcft")
    assert captured.err.splitlines()[-1] == last_line


@pytest.mark.parametrize(
    "argv, prefix, full, value",
    [
        (("exotic", "positivity", "--structure", "B", "--kmax", "1"), "--hma", "hmax", "6"),
        (("exotic", "reduce", "--structure", "B", "--hminus", "1", "--hplusp", "2",
          "--hminusp", "1"), "--hplus", "hplus", "3"),
    ],
    ids=["unique-prefix", "exact-over-longer"],
)
def test_option_prefix_reads_as_its_option(capsys, argv, prefix, full, value):
    code, out, manifest = _result(capsys, argv + (prefix, value))
    assert code == 0
    assert manifest["parameters"][full] == value
    assert _result(capsys, argv + (f"--{full}", value)) == (code, out, manifest)
    assert _result(capsys, argv + (f"{prefix}={value}",)) == (code, out, manifest)


# every command level and the subcommands or options its help must name
HELP_NAMES = {
    (): ("--format", "--manifest", "wave", "casimir-check", "intertwiner", "reduce", "exotic"),
    ("intertwiner",): ("chiral", "tensor"),
    ("exotic",): ("build", "g", "coeff", "restrict", "reduce", "amplitudes", "positivity"),
    ("wave",): ("--n", "--dims", "--proj", "--cap"),
    ("casimir-check",): ("--n", "--dims", "--proj", "--cap", "--which"),
    ("intertwiner", "chiral"): ("--h", "--d1", "--d2", "--normalized"),
    ("intertwiner", "tensor"): ("--kappa", "--L", "--d1", "--d2"),
    ("reduce",): ("--wave", "--pair", "--h"),
    ("exotic", "build"): ("--name",),
    ("exotic", "g"): ("--cap", "--method", "--check-biharmonic"),
    ("exotic", "coeff"): ("--hplus", "--hminus", "--structure"),
    ("exotic", "restrict"): ("--name", "--cap"),
    ("exotic", "reduce"): ("--structure", "--hplus", "--hminus", "--hplusprime",
                           "--hminusprime", "--cap"),
    ("exotic", "amplitudes"): ("--h", "--hprime", "--cap"),
    ("exotic", "positivity"): ("--structure", "--hmax", "--kmax", "--out"),
}


@pytest.mark.parametrize("words", list(HELP_NAMES), ids=lambda w: " ".join(w) or "exactcft")
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_names_every_choice_at_its_level(capsys, words, flag):
    with pytest.raises(SystemExit) as exc:
        main([*words, flag])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: exactcft")
    named = set(re.split(r"[\s{},\[\]]+", captured.out))
    assert set(HELP_NAMES[words]) <= named


# -- argv fuzzing --------------------------------------------------------------

MALFORMED = ("", "x", "1.5", "1/0", "--")


def _ints(hi):
    """Small integer tokens from -2 to hi, now and then malformed text."""
    return st.sampled_from([str(k) for k in range(-2, hi + 1)] * 3 + list(MALFORMED))


RATIONALS = st.sampled_from(("1", "2", "3", "3/2", "5/2", "0", "-1", "-1/2") * 3 + MALFORMED)
RATIONAL_LISTS = st.lists(RATIONALS, max_size=6).map(",".join)


POINTS = st.sampled_from((4, 5, 7, 3, 2, 0, -1))  # n; the first ones give real waves


def _rational_lists(size):
    """Mostly lists of the length the command needs, sometimes of any length."""
    return st.lists(RATIONALS, min_size=size, max_size=size).map(",".join) | RATIONAL_LISTS


def _opt(flag, values):
    """Give the option one drawn value, or now and then leave it out. The value
    is attached with '=' or passed as the next token, so that values starting
    with '-' are read both ways."""
    return st.tuples(st.integers(0, 4), st.booleans(), values).map(
        lambda t: ([f"{flag}={t[2]}"] if t[1] else [flag, t[2]]) if t[0] else []
    )


def _argv(*words_and_options):
    words = [w for w in words_and_options if isinstance(w, str)]
    options = [o for o in words_and_options if not isinstance(o, str)]
    return st.tuples(st.sampled_from(([], ["--format", "table"])), *options).map(
        lambda parts: parts[0] + words + [tok for part in parts[1:] for tok in part]
    )


def _argvs(wave_paths):
    def wave(n):
        return [_opt("--n", st.just(str(n))), _opt("--dims", _rational_lists(max(n, 0))),
                _opt("--proj", _rational_lists(max(n - 3, 0))), _opt("--cap", _ints(4))]

    names = st.sampled_from(("E6", "B", "BminusHalfE", "x"))
    structures = st.sampled_from(("B", "H", "E2", "x"))
    flag = st.sampled_from(([], ["--normalized"], ["--check-biharmonic"]))
    return st.one_of(
        POINTS.flatmap(lambda n: _argv("wave", *wave(n))),
        POINTS.flatmap(lambda n: _argv("casimir-check", *wave(n), _opt("--which", _ints(4)))),
        _argv("intertwiner", "chiral", _opt("--h", _ints(4)), _opt("--d1", RATIONALS),
              _opt("--d2", RATIONALS), flag),
        _argv("intertwiner", "tensor", _opt("--kappa", _ints(2)), _opt("--L", _ints(2)),
              _opt("--d1", RATIONALS), _opt("--d2", RATIONALS)),
        _argv("reduce", _opt("--wave", st.sampled_from(wave_paths)),
              _opt("--pair", st.sampled_from(("1,2", "2,3", "3,4", "0,1", "2,1", "1", "x,y"))),
              _opt("--h", _ints(4))),
        _argv("exotic", "build", _opt("--name", names)),
        _argv("exotic", "g", _opt("--cap", _ints(4)),
              _opt("--method", st.sampled_from(("closed", "recursion", "x"))), flag),
        _argv("exotic", "coeff", _opt("--hplus", _ints(4)), _opt("--hminus", _ints(4)),
              _opt("--structure", structures)),
        _argv("exotic", "restrict", _opt("--name", names), _opt("--cap", _ints(4))),
        _argv("exotic", "reduce", _opt("--structure", structures),
              *(_opt(f"--{w}", _ints(4)) for w in ("hplus", "hminus", "hplusprime", "hminusprime")),
              _opt("--cap", _ints(4))),
        _argv("exotic", "amplitudes", _opt("--h", _ints(4)), _opt("--hprime", _ints(4)),
              _opt("--cap", _ints(4))),
        _argv("exotic", "positivity", _opt("--structure", structures),
              _opt("--hmax", _ints(4)), _opt("--kmax", _ints(2))),
    )


@pytest.fixture(scope="module")
def wave_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("waves")
    good, broken = folder / "good.json", folder / "broken.json"
    good.write_text(json.dumps(GOOD_WAVE4))
    broken.write_text("{")
    return [str(good), str(broken), str(folder / "missing.json"), str(folder)]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_ends_in_a_documented_exit_code(wave_paths, data):
    argv = data.draw(_argvs(wave_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the reader rejects the argv
            code = exc.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


# -- wave JSON fuzzing -----------------------------------------------------------

WAVE6_ARGV = ("wave", "--n", "6", "--dims", "1,1,2,2,1,1", "--proj", "2,2,5/2", "--cap", "2")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=4)
    | st.sampled_from(["1", "-2", "3/2", "1/0", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
BAD_FACTOR_KEYS = st.sampled_from(
    ["x,y", "1,2,3", "1", "", ",", "1,,2", "a,b,c", "2,1", "-1,3", "1,3 ", "1.5,2",
     # int() accepts each part of these, but to_json never writes them: most
     # name the pair (1, 3), which the wave already lists as "1,3"
     "01,3", " 1,3", "1, 3", "+1,3", "1,03", "1_0,3"]
) | st.text(max_size=5)
# paths into the wave JSON; an int indexes a list, "*" stands for a drawn series item
PATHS = [
    ("spec",), ("cap",), ("prefactor",), ("series",),
    ("spec", "n"), ("spec", "dims"), ("spec", "proj"), ("spec", "dims", 0), ("spec", "proj", 2),
    ("prefactor", "numerator"), ("prefactor", "factors"), ("prefactor", "factors", "1,3"),
    ("series", "*"), ("series", "*", "exponents"), ("series", "*", "coeff"),
    ("series", "*", "exponents", 0),
]


def _mutations(series_len):
    path = st.tuples(st.sampled_from(PATHS), st.integers(0, series_len - 1)).map(
        lambda t: tuple(t[1] if step == "*" else step for step in t[0])
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("drop"), path),
            st.tuples(st.just("set"), path, JSON_VALUES),
            st.tuples(st.just("duplicate"), st.integers(0, series_len - 1)),
            st.tuples(st.just("factor"), BAD_FACTOR_KEYS, JSON_VALUES | st.just("1")),
        ),
        min_size=1, max_size=3,
    )


def _mutate(wave, mutation):
    """Apply one mutation in place; one whose path no longer exists is skipped."""
    kind, *args = mutation
    if kind == "duplicate":
        series = wave.get("series")
        if isinstance(series, list) and args[0] < len(series):
            series.append(json.loads(json.dumps(series[args[0]])))
        return
    if kind == "factor":
        kind, args = "set", [("prefactor", "factors", args[0]), args[1]]
    *parents, last = args[0]
    node = wave
    for step in parents:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(node, dict) and isinstance(last, str) or (
        isinstance(node, list) and isinstance(last, int) and last < len(node)
    ):
        if kind == "set":
            node[last] = args[1]
        elif isinstance(node, list) or last in node:
            del node[last]


@pytest.fixture(scope="module")
def wave6(tmp_path_factory):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(WAVE6_ARGV)) == 0
    return json.loads(out.getvalue()), tmp_path_factory.mktemp("wave-fuzz") / "wave.json"


def _written_pair_key(key: str) -> bool:
    """Whether key is 'i,j' as the wave JSON writes a pair of integers."""
    try:
        i, j = (int(v) for v in key.split(","))
    except ValueError:
        return False
    return key == f"{i},{j}"


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_wave_json_ends_in_exit_0_or_2(wave6, data):
    good, path = wave6
    wave = json.loads(json.dumps(good))
    for mutation in data.draw(_mutations(len(good["series"])), label="mutations"):
        _mutate(wave, mutation)
    path.write_text(json.dumps(wave), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce", "--wave", str(path), "--pair", "1,2", "--h", "2"])
    assert code in (0, 2), err.getvalue()
    assert len(err.getvalue().strip().splitlines()) == 1
    assert "Traceback" not in err.getvalue()
    pre = wave.get("prefactor")
    factors = pre.get("factors") if isinstance(pre, dict) else None
    if isinstance(factors, dict) and not all(map(_written_pair_key, factors)):
        assert code == 2  # never read as the key of some other pair
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def test_reduce_rejects_a_repeated_series_tuple(wave6, capsys):
    good, path = wave6
    wave = json.loads(json.dumps(good))
    wave["series"].append({**wave["series"][1], "coeff": "7"})
    path.write_text(json.dumps(wave), encoding="utf-8")
    code, out, err = run_cli(capsys, "reduce", "--wave", str(path), "--pair", "1,2", "--h", "2")
    _one_line_usage_error(code, out, err)
    assert str(tuple(good["series"][1]["exponents"])) in err


@pytest.mark.parametrize("key", ["x,y", "1,2,3", "1", "", "01,3", " 1,3", "1, 3", "+1,3"])
def test_reduce_names_a_malformed_factor_key(wave6, capsys, key):
    good, path = wave6
    wave = json.loads(json.dumps(good))
    wave["prefactor"]["factors"][key] = "1"
    path.write_text(json.dumps(wave), encoding="utf-8")
    code, out, err = run_cli(capsys, "reduce", "--wave", str(path), "--pair", "1,2", "--h", "2")
    _one_line_usage_error(code, out, err)
    assert "prefactor.factors" in err and repr(key) in err
