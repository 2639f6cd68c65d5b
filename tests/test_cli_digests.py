"""Golden SHA-256 digests of the README CLI examples and of larger six-point,
kernel-solve, assembled-operator and wave runs.

Each example runs through ``cli.main`` in-process and the digest of its
stdout is pinned, so a refactor that moves any byte of the output fails here.
"""

import hashlib
import json

import pytest

from exactcft.cli import main

WAVE4 = ("wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "2", "--cap", "6")
# the waves benchmark's n = 6 wave (d1 = d2 = 1), reduced on a matched and a
# mismatched pair
WAVE6 = ("wave", "--n", "6", "--dims", "1,1,2,2,1,1", "--proj", "2,2,5/2", "--cap", "8")
# a wave whose prefactor exponents have denominators 2, 3 and 6, reduced on
# its first and last pair with a matched and a mismatched weight; the last
# pair's pole power d5 + d6 = 2/3 has another denominator than the wave
WAVE_SIXTHS = ("wave", "--n", "6", "--dims", "1/3,2/3,4/3,5/6,1/6,1/2", "--proj", "2,7/6,3",
               "--cap", "6")

EXAMPLES = {
    "wave-n4": ("wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "2", "--cap", "2"),
    "casimir-n6": ("casimir-check", "--n", "6", "--dims", "1,1,2,2,1,1",
                   "--proj", "3/2,2,5/2", "--cap", "6"),
    # the terminating seven-point wave: a polynomial, exact at any cap
    "casimir-n7": ("casimir-check", "--n", "7", "--dims", "1,5,5,5,5,5,1",
                   "--proj", "2,2,2,2", "--cap", "6"),
    "chiral": ("intertwiner", "chiral", "--h", "2", "--d1", "1", "--d2", "1"),
    "tensor": ("intertwiner", "tensor", "--kappa", "1", "--L", "2"),
    "tensor-kernel": ("intertwiner", "tensor", "--kappa", "1", "--L", "0",
                      "--d1", "3", "--d2", "1"),
    "wave-json": WAVE4,
    "wave-sixths": WAVE_SIXTHS,
    "build-E6": ("exotic", "build", "--name", "E6"),
    "restrict": ("exotic", "restrict", "--name", "BminusHalfE", "--cap", "6"),
    "g-recursion": ("exotic", "g", "--cap", "12", "--method", "recursion", "--check-biharmonic"),
    "coeff": ("exotic", "coeff", "--hplus", "2", "--hminus", "1", "--structure", "H"),
    "exotic-reduce": ("exotic", "reduce", "--structure", "B", "--hplus", "2", "--hminus", "1",
                      "--hplusprime", "2", "--hminusprime", "1"),
    "amplitudes": ("exotic", "amplitudes", "--h", "2", "--hprime", "2", "--cap", "8"),
    "positivity": ("exotic", "positivity", "--structure", "B", "--hmax", "4", "--kmax", "2"),
    "positivity-H": ("exotic", "positivity", "--structure", "H", "--hmax", "6", "--kmax", "1"),
    "positivity-E2": ("exotic", "positivity", "--structure", "E2", "--hmax", "4", "--kmax", "1"),
    "restrict-E6": ("exotic", "restrict", "--name", "E6", "--cap", "8"),
    "g-closed": ("exotic", "g", "--cap", "24", "--method", "closed", "--check-biharmonic"),
    "g-recursion-24": ("exotic", "g", "--cap", "24", "--method", "recursion",
                       "--check-biharmonic"),
    "exotic-reduce-H": ("exotic", "reduce", "--structure", "H", "--hplus", "4", "--hminus", "1",
                        "--hplusprime", "1", "--hminusprime", "2", "--cap", "12"),
    # the sixpoint benchmark's amplitude tower and its widest reduction
    # window (h+ + h- + h'+ + h'- - 4 = 8) at the benchmark cap
    "amplitudes-3-4": ("exotic", "amplitudes", "--h", "3", "--hprime", "4", "--cap", "16"),
    "exotic-reduce-B-2343": ("exotic", "reduce", "--structure", "B", "--hplus", "2",
                             "--hminus", "3", "--hplusprime", "4", "--hminusprime", "3",
                             "--cap", "12"),
    "exotic-reduce-H-2343": ("exotic", "reduce", "--structure", "H", "--hplus", "2",
                             "--hminus", "3", "--hplusprime", "4", "--hminusprime", "3",
                             "--cap", "12"),
    # positivity blocks of rank two (E2) and of rank one at larger hmax and kmax,
    # and an amplitude tower with far-apart weights
    "positivity-E2-8-2": ("exotic", "positivity", "--structure", "E2", "--hmax", "8",
                          "--kmax", "2"),
    "positivity-B-8-3": ("exotic", "positivity", "--structure", "B", "--hmax", "8",
                         "--kmax", "3"),
    "amplitudes-7-9": ("exotic", "amplitudes", "--h", "7", "--hprime", "9", "--cap", "20"),
    # the tall sparse kernel systems of the operators benchmark and beyond it
    "kernel-gap2": ("intertwiner", "tensor", "--kappa", "4", "--L", "3", "--d1", "3", "--d2", "1"),
    "kernel-k5": ("intertwiner", "tensor", "--kappa", "5", "--L", "4", "--d1", "3", "--d2", "1"),
    # the operators benchmark's zero-gap shape
    "kernel-equal": ("intertwiner", "tensor", "--kappa", "4", "--L", "3", "--d1", "2", "--d2", "2"),
    # assembled operators whose recursions force c_00 = 0: the kernel-sum branch
    "assembled-4-3": ("intertwiner", "tensor", "--kappa", "4", "--L", "3"),
    "assembled-8-4": ("intertwiner", "tensor", "--kappa", "8", "--L", "4"),
    # the table scaled to c_00 = 1 from a 3-vector kernel; c_00 = 0 forced, a
    # 2-vector kernel sum with a radial polynomial at delta = kappa; a 2-vector
    # kernel sum with delta = 0 only
    "assembled-2-0": ("intertwiner", "tensor", "--kappa", "2", "--L", "0"),
    "assembled-2-1": ("intertwiner", "tensor", "--kappa", "2", "--L", "1"),
    "assembled-3-0": ("intertwiner", "tensor", "--kappa", "3", "--L", "0"),
    # the waves benchmark's n = 8 and n = 10 series (d1 = d2 = 1)
    "wave-n8": ("wave", "--n", "8", "--dims", "1,1,2,2,1,1,2,2",
                "--proj", "2,2,5/2,2,3/2", "--cap", "8"),
    "wave-n10": ("wave", "--n", "10", "--dims", "1,1,2,2,1,1,2,2,1,1",
                 "--proj", "2,2,5/2,2,3/2,2,5/2", "--cap", "8"),
    # and their Casimir residuals, all n - 3 equations of each
    "casimir-n8": ("casimir-check", "--n", "8", "--dims", "1,1,2,2,1,1,2,2",
                   "--proj", "2,2,5/2,2,3/2", "--cap", "8"),
    "casimir-n10": ("casimir-check", "--n", "10", "--dims", "1,1,2,2,1,1,2,2,1,1",
                    "--proj", "2,2,5/2,2,3/2,2,5/2", "--cap", "8"),
    # two paths no other example enters: the Legendre closed form of the
    # rank-zero operator, and the constant normalized operator at h = 1
    "tensor-legendre": ("intertwiner", "tensor", "--kappa", "0", "--L", "3"),
    # and around it: the constant at L = 0, the zero operator at L = 1 (P'_0 = 0), and L = 6
    "tensor-legendre-L0": ("intertwiner", "tensor", "--kappa", "0", "--L", "0"),
    "tensor-legendre-L1": ("intertwiner", "tensor", "--kappa", "0", "--L", "1"),
    "tensor-legendre-L6": ("intertwiner", "tensor", "--kappa", "0", "--L", "6"),
    "chiral-normalized-h1": ("intertwiner", "chiral", "--h", "1", "--normalized"),
}

DIGESTS = {
    "assembled-2-0": "38ceba5d9170a34f83bd7a07798c434facf9906c58b794a108eb452a8ddb4f43",
    "assembled-2-1": "ec54e7f5d98776d526ae791b0f5bac4695dcc870f25f221de752e9419fa90f0c",
    "assembled-3-0": "8ef7055a0b4d198733169b8fa812579eccb8e0d55c8e724e25daf1b87b574e4b",
    "assembled-4-3": "6ef1b495392192f6d0fa1a1bfe1468f7d6fb6e4124db0793cb1b4fc9ecc627d1",
    "assembled-8-4": "cc160260021ef8c77ba6fd60cbd5983f981de49b7bff3e2e743b62bcaa2a805e",
    "amplitudes-3-4": "fd289335a2cfed6d30d0d7cf867584f94375185604e0f33d339031dc7ae169f7",
    "amplitudes-7-9": "aa03036dc5f586f04b07193c3d5498184df8ee80ea01baba54456041523478fb",
    "amplitudes": "43f115a0f346e6d261e31f9b056c0a5b184bf083de091189c0a93df4b1a8346d",
    "build-E6": "e9082bbe2911a33a70384f44b5cd852b9505fe6179785617d68207c794232f91",
    "casimir-n10": "7b33532f94d050aea8d53058cc149b4124c81e25ebe5c3394f8f37a2964271b5",
    "casimir-n6": "280a0f37ccf60d2fb45d63f8698b42954d7ab4da67adff909a0ee7bbadf77d86",
    "casimir-n7": "8a359ce550ee1e1c7b0ed91675387be1162ea7a314a3a15476e2283c12af3f7d",
    "casimir-n8": "44f7a08519eb5ecf91cc1bc325814171d07f9dd1b5edd50b4cb8e4d1f01e38a0",
    "chiral": "f1d301c7ff35407dd2e909907204d390c7a9dd600cae00277636479f30758a69",
    "chiral-normalized-h1": "86fe10adaa595b093da41acfd6b3f07f256360d04719e8ebeb0deb0347a23c7b",
    "coeff": "a4f46eadab8e018d04376e7cdac8ab6654a34198c91c6900ea9f99b1185a918d",
    "exotic-reduce": "f3e13b5e4964dba05504f6262e1722e8535d314537b351938f2bd60ea624eaab",
    "exotic-reduce-B-2343": "9540f7db8cfebbad072e5b4625119972eba0ad6b97782357b0489402e34243ae",
    "exotic-reduce-H-2343": "bb0b27dc89e784f1d627e0c9db2dcda5133d9716df1c4c49c4b533296f61c96d",
    "exotic-reduce-H": "bca2e104b8464fc6040583e73d15aafc5993583254aa542dd7c7d50dc9107202",
    "g-closed": "b83de07bc1c99e85053936b8f6741fd01a67705df74b017f7986feb2aa3b5b8a",
    "g-recursion-24": "02fba28483462ea131b329b17f81ef63b4cd0aa13ef498c95966fd1c5d09dfe7",
    "g-recursion": "6e2ea709862c6879c467a02e4c30e941b2784fe66cdb0fb952ea2d3bc1ca238a",
    "kernel-equal": "c2c6a5cbccc0d422142d4fe7fe3865aba3f8ebe7a67044f8de37358096236730",
    "kernel-gap2": "f8c6a111f932f5ce3ac99a0668c282c2c6952058af8443441669aea27c9fad9d",
    "kernel-k5": "67e692d57839419fda5ac2781ebcf9659df3aca6499de50c0365c0be49f4f24e",
    "positivity": "4ea36370142a87a7f4d1ea4e876057eb32634fde7f5fe82c7bbf1385e532bec0",
    "positivity-B-8-3": "7a1189b050f5166b07ac3bae6b93fe4d4eb5966d053a8e7a8ac9a5a043b7b90c",
    "positivity-E2": "f9f3f97e30fe714355ed2b2a0c6ab24e478409faf92d2783aa2fb16e0920b317",
    "positivity-E2-8-2": "14999eb9ce6f0cd01db3081841228b681a1307093169e9253a9a183e2c0b46f9",
    "positivity-H": "3126d0856417c9f6a7557a1e35734024dda1937843fac4e4eac976c8ed6064d0",
    "reduce-matched": "03ab9518d8703ceb29e3d28f9d67b76c0663dd486e1fbf7321ff92d77d427862",
    "reduce-mismatched": "e790be902388453ec9af8cf02a462ec6ff9ed728f1cabb5261b6d418e9af5449",
    "reduce-sixths-1,2-h2": "000f2f31383f22b4006b157a07f56e0d2b7c1dee34255e3ae717fca26443fe29",
    "reduce-sixths-1,2-h3": "a115bdc8f9a80b7f0d7b6e981c9fc8d73b553ad4d899de2279da55b26685f822",
    "reduce-sixths-5,6-h2": "bca30148895dac8dd3d66f9b07dbff85db0bf5a7e3c5f60aefaa07789bf95dcd",
    "reduce-sixths-5,6-h3": "e370130f112bcceaa28872577f7a2c8e88681a1c79b8841f641cdbb48d54f21f",
    "reduce": "3a585c1c367cc98d44adcc9712e9841c9158fa1150d7c9c34a45a97eb6d98cd5",
    "restrict": "12cab93c08db991a080004dca8e4b092bbdaef6552a02e9dffc3b7feb3dc49fa",
    "restrict-E6": "83a7636465e4c8ab89e77f7f88912a1d29c35ff9945c2bb493cf07f0c6cb12f2",
    "tensor": "e91eba58961f2e8c43c50b002cc67d20986b352061105305ea5b5e4a3fad18b9",
    "tensor-kernel": "b798c08d7514fd160a00b016f665c8652631177a0ac35081e3f47f466ba8f899",
    "tensor-legendre": "c87541f3e4626e736496b45aa0912d796f864f4ced9d4321cebac016d692d74d",
    "tensor-legendre-L0": "471f6d88284710689cacdb6e67cea2968c28f428f639de3df5323106bf94b8ae",
    "tensor-legendre-L1": "d1a6218cf83d3dc33f8c6c4065dfbd89bc5e7be1ac38ee76d5905d7c19591f7a",
    "tensor-legendre-L6": "f5cc03e2ba5087fbe68e285b5a9d3917118dc7d53559ce90fcf54e5d1982aef9",
    "wave-json": "683f6d467822386822b622cd6baccf0369a33cef04cbf861ea6bb469e04c86d7",
    "wave-n10": "2324686dbee6f53ec1703788bed3489dfb2e86fcc1995c0de59118e2eecd7f1d",
    "wave-sixths": "c592cc3c3caae0f65919f71e22d9f874c2b4c6f1ec0b5a1fe53cd5ac585600bb",
    "wave-n8": "cebde68d656a1a47137559fa490fd08e12fc972eed73f38bf49316b7982a8c27",
    "wave-n4": "71c9ac1a0e54b0d6745077251c750055cad2067efb42404a81df5774dcf11f18",
}


def _stdout(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_digest(capsys, name):
    out = _stdout(capsys, EXAMPLES[name])
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


def test_readme_reduce_digest(capsys, tmp_path):
    wave = tmp_path / "wave.json"
    wave.write_text(_stdout(capsys, WAVE4), encoding="utf-8")
    out = _stdout(capsys, ("reduce", "--wave", str(wave), "--pair", "1,2", "--h", "2"))
    assert json.loads(out)["matches_reduced_wave"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["reduce"]


@pytest.mark.parametrize("pair, kind", [("1,2", "matched"), ("5,6", "mismatched")])
def test_benchmark_reduce_digest(capsys, tmp_path, pair, kind):
    wave = tmp_path / "wave.json"
    wave.write_text(_stdout(capsys, WAVE6), encoding="utf-8")
    out = _stdout(capsys, ("reduce", "--wave", str(wave), "--pair", pair, "--h", "2"))
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[f"reduce-{kind}"]


@pytest.mark.parametrize("pair, h, matched", [
    ("1,2", 2, True), ("1,2", 3, False), ("5,6", 3, True), ("5,6", 2, False),
])
def test_sixths_reduce_digest(capsys, tmp_path, pair, h, matched):
    wave = tmp_path / "wave.json"
    wave.write_text(_stdout(capsys, WAVE_SIXTHS), encoding="utf-8")
    out = _stdout(capsys, ("reduce", "--wave", str(wave), "--pair", pair, "--h", str(h)))
    assert json.loads(out).get("matches_reduced_wave", False) is matched
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[f"reduce-sixths-{pair}-h{h}"]


def test_zero_reduction_that_keeps_terms_digest(capsys, tmp_path):
    # the (1,1,1,1) wave with a_2 = 2 reduced at (1,2) with h = 3 keeps three
    # terms that are the zero function only through x13 = x12 + x23, so the
    # zero test runs its expansion after the point value vanishes
    wave = tmp_path / "wave.json"
    wave.write_text(_stdout(capsys, WAVE4[:-1] + ("5",)), encoding="utf-8")
    out = _stdout(capsys, ("reduce", "--wave", str(wave), "--pair", "1,2", "--h", "3"))
    assert '"zero":true' in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b8440db94ae359352424b4cec89b7b1f1c2fccb8693a48cd2f27f3d384212a3a"
    )


def test_wave_with_twelve_hundred_points_digest(capsys):
    # 1197 cross ratios at cap 1: the walk carries 1196 times and has no
    # recursion that could reach Python's depth limit
    n = 1200
    argv = ("wave", "--n", str(n), "--dims", ",".join(["1"] * n),
            "--proj", ",".join(["2"] * (n - 3)), "--cap", "1")
    out = _stdout(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4360f2211546132454a6e68a2c06ed43b4b8c0dac50ab3cb58aae9731766976d"
    )


def test_positivity_out_file_matches_stdout(capsys, tmp_path):
    report = tmp_path / "report.json"
    out = _stdout(capsys, EXAMPLES["positivity"] + ("--out", str(report)))
    assert report.read_text(encoding="utf-8") == out


REDUCE_2343 = ("exotic", "reduce", "--hplus", "2", "--hminus", "3",
               "--hplusprime", "4", "--hminusprime", "3")


@pytest.mark.parametrize("structure", ["B", "H"])
@pytest.mark.parametrize("argv, code, message", [
    (("exotic", "reduce", "--hplus", "0", "--hminus", "1", "--hplusprime", "2",
      "--hminusprime", "1", "--cap", "12"), 3, "only chiral dimensions h >= 1 occur"),
    # the reduction window h+ + h- + h'+ + h'- - 4 is negative here
    (("exotic", "reduce", "--hplus", "0", "--hminus", "1", "--hplusprime", "1",
      "--hminusprime", "1", "--cap", "12"), 3, "only chiral dimensions h >= 1 occur"),
    # a weight below 1 is refused before the cap is compared with the window
    (("exotic", "reduce", "--hplus", "0", "--hminus", "9", "--hplusprime", "9",
      "--hminusprime", "1"), 3, "only chiral dimensions h >= 1 occur"),
    (("exotic", "reduce", "--hplus", "0", "--hminus", "9", "--hplusprime", "9",
      "--hminusprime", "1", "--cap", "20"), 3, "only chiral dimensions h >= 1 occur"),
    (REDUCE_2343 + ("--cap", "-1"), 2, "cap must be >= 0, got -1"),
    (REDUCE_2343 + ("--cap", "7"), 2, "series cap 7 too small; need at least 8"),
], ids=["hplus-0", "window-negative", "hplus-0-default-cap", "hplus-0-cap-20", "cap-negative",
        "cap-below-window"])
def test_exotic_reduce_errors(capsys, structure, argv, code, message):
    assert main(list(argv) + ["--structure", structure]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
