"""Golden outputs: every config in ``configs/``, capped at five passes, hashes as recorded.

Performance work on this package keeps every IEEE operation and its order,
so the files a run writes must stay byte-identical.  The benchmark checks
that on four settings only; this test runs each of the nine configs
through the ``train`` path with ``max_iter`` capped at 5 (by
``dataclasses.replace``), which adds enriched14, the pmp trainer on the
full grid and N = 32.  It compares the SHA-256 of ``trace.csv``,
``control.csv`` and ``summary.json`` (its wall clock removed) with digests
recorded before the closed-form kernels shared their monomials, and the
``gradcheck`` line of ``configs/gradcheck.json`` with its recorded text.

Three longer runs, each capped at 100 passes, guard the layer loops that
five passes barely reach.  The full-grid ``affine8_pmp_n16_beta1e-4.json``
accepts all 100, so 100 covector transports; its digests were recorded
before the planar transport stopped calling LAPACK.  The gd configs
``affine8_gd_n16_beta1e-4.json`` (the benchmark's gd setting) and
``enriched14_gd_n16_beta1e-3.json`` run many gradients through both
families' closed-form adjoint steps; their digests were recorded before the
closed forms were rewritten over one shared coefficient list.

As with ``perfbench/reference.json``, the digests describe one numpy
build: they were recorded with numpy 2.4.6 and its bundled OpenBLAS on
x86-64.  The pmp digests depend on LAPACK's ``dgesv`` rounding, which the
planar covector transport reproduces through ``matmul``'s fused
multiply-add, every summary on the batched 2x2 ``matmul`` of the Lipschitz
estimate, and all of them on numpy's SIMD ``exp``.  Another build may
change the last bits; re-record the digests there from a commit whose
outputs are known to be right.

Those digests hold for numpy's AVX-512 ``exp``, which is not correctly
rounded; CPUs without AVX-512 run the libm kernel, which writes other last
bits.  So there is one digest set per kernel, and each test compares with
the set of the kernel it runs on, which ``exp_kernel_name`` in
``conftest.py`` tells from ``np.exp`` on a fixed vector.  A kernel with no
recorded set fails the tests with a message naming its fingerprint.  The
libm set was recorded with the same numpy build in a child process whose
``NPY_DISABLE_CPU_FEATURES`` turns the AVX-512 kernels off: the short runs
before the built-in families gained their per-sweep workspace, the long
runs before they became planar-only.  One test reruns the short runs, an
enriched14 pmp run and the long runs in such a child, so the libm set is
checked on an AVX-512 machine too.  The variable acts on that child only.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diffeoflow import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MAX_ITER = 5

GOLDEN = {
    "affine8_gd_n16_beta1.json": {
        "trace.csv": "82364b2b7d4b17cb571202dee60570d1857c3151660780e037672e64988e8292",
        "control.csv": "3da933ceabbf15b5a4cfdf66dc4b93aa2bc0f88e3ef79625aaaa617b6b13006c",
        "summary.json": "0ca364d6ef3851ecdff40dee6b0006f627232567853ba6c0abe40c45b7a7032f",
    },
    "affine8_gd_n16_beta1e-4.json": {
        "trace.csv": "43913edeb39f22dbd4dee6898e70965df46e0dbdf1531e5d2138aa4164e3e715",
        "control.csv": "5c81e9278184d2839958f08aa5dbcc20ece8353b12426508cfe0724228bca71d",
        "summary.json": "5cf1ff1140c0e3e8a69eb46b7725c323ef2ccfe5fb348eea08ba9a672b716a5b",
    },
    "affine8_gd_n32_beta1e-4.json": {
        "trace.csv": "52bda17803c4c2c21451ae1a504400f52f07e1ae04e2228160b28dabd752d311",
        "control.csv": "379fffdbcf4d0ff1d798fbb07584c040a74a0ccb2d4ddeca8e3208b2ec9813a0",
        "summary.json": "fdefca5e7cf18a60cfc0d61522ed0862470dd9001187c7fd52791c8959fa39d2",
    },
    "affine8_pmp_n16_beta1.json": {
        "trace.csv": "1ab1e23168e6f4ded7df21c34788a28dc5868a79ea74f1acef7d0829dfb8d0cd",
        "control.csv": "1719930c7d2e1197916109c1203c482adf795a310d3f3acfddc7bea816705944",
        "summary.json": "379d3aa8b1f254e12b98b492ee0b28a8d1b699f7f845f552361c2498dacf535b",
    },
    "affine8_pmp_n16_beta1e-4.json": {
        "trace.csv": "29d6e6a320a4da1e61dcc722c467b7b1f1a4b4f6d4297dd6e0d02303bcd0e94b",
        "control.csv": "e47d8991bece0b2360941716a1c3eec2ce59e6c782ab49abbea39b57be0aab7f",
        "summary.json": "ad0d8fcde508e0d1cc13c8550c880877a8bdbff584ca31ae61108c11e33f41ca",
    },
    "enriched14_gd_n16_beta1e-3.json": {
        "trace.csv": "5758b1875077b81eabee31c00e177b62644d9fd1681d2cdee673e471f24b13d6",
        "control.csv": "a7b9111dbacc39dad9e46d9c1cc79117c318f9d212f4e9a900d9aeb48e8823e0",
        "summary.json": "9528c136af15b012a51b1675b17e4be7e12ffc20162790d8fda75c199b197390",
    },
    "gradcheck.json": {
        "trace.csv": "bc39a916f17eb6623f51b2abd0b3e5b6e6fc09a66148413b7e2104907e4944cf",
        "control.csv": "844235b045cb12b228031b317014d8b1f673a289cf0cbead0e196683bafc0687",
        "summary.json": "2c80698609438dca46d9b708c0b1c69cd208e640e7f5e596c003c8d45bbdbef5",
    },
    "quick_gd.json": {
        "trace.csv": "cc02941e896ff2d7be79cb9d3cfda17b8b937d50cc06e53790d1b4bde56bd120",
        "control.csv": "f9dd2f82a66232867012249842f4defe25bb45e8d2b31982e0bb329964d3e48a",
        "summary.json": "8693c0c03a88cd3387ea74734a1e2cbad591c70054980a7bff3a4d445cb5d9f6",
    },
    "quick_pmp.json": {
        "trace.csv": "c249612015454962574f10683538b34f4a9c3a94b7f3a915dd15baad0f788dbd",
        "control.csv": "326cd59aafe184db0b2f7fb9b560f23d0a9c54f1cca2df3ff633029afd641e5d",
        "summary.json": "79ecf67c7d64d23285e93b3e2d8e89f09aa1d2ab3581ee524de3b59122fdf5fb",
    },
}
LONG_PASSES = 100
LONG_GOLDEN = {
    "affine8_pmp_n16_beta1e-4.json": {
        "trace.csv": "605ffc66fa60e9af95b879e53ba9aef9ba10045dd789d03b8fbff0a97693bb90",
        "control.csv": "622c31d2d0a6c69cbe010437ca4c0ae06b8a934f6948819fae230fbc082e0388",
        "summary.json": "895e54cd189aa269ae56ebd411699c157e81f5492a0f9b632058018e776b9a2e",
    },
    "affine8_gd_n16_beta1e-4.json": {
        "trace.csv": "67ff3f08f308e1c68ea4e951834fd441a01c031a80f16bac031fca67f1695bb6",
        "control.csv": "f73e2c7399ef6ea9d318ae15080524dc7e1b4ee8049dba5073183384e1f2886a",
        "summary.json": "bd6343539ea0454cf120e2e908b9c6fb952f59741b2cd5cd529ebc730e013799",
    },
    "enriched14_gd_n16_beta1e-3.json": {
        "trace.csv": "d5fb823491f413c04559b0f5e4c08976be7f1bc2f2c24d21c31da55d98e5a1a7",
        "control.csv": "5bea2b775cfa3080e2d2d4f030d363f99323e1bdaf4aaa030abbd36915b66d74",
        "summary.json": "a8fdc154662fe5f67f4ce51fba5c7f332fca53c290b5e72ce2f4bcf782e56232",
    },
}
GRADCHECK_LINE = "gradcheck OK: max relative error 9.652e-09 (layer 0, field 6, tolerance 1e-05)\n"


LIBM_FEATURES_OFF = "X86_V4 AVX512_ICL AVX512_SPR"
LIBM_RUNS = {name: (name, {}) for name in GOLDEN} | {
    "quick_pmp.json, enriched14": ("quick_pmp.json", {"family": "enriched14"}),
}
LIBM_GOLDEN = {
    "affine8_gd_n16_beta1.json": {
        "trace.csv": "82364b2b7d4b17cb571202dee60570d1857c3151660780e037672e64988e8292",
        "control.csv": "1ec52781dff7a9fd9a970666fe25a603e0be1e2e1f958df356eb00ce26d88ddd",
        "summary.json": "0ca364d6ef3851ecdff40dee6b0006f627232567853ba6c0abe40c45b7a7032f",
    },
    "affine8_gd_n16_beta1e-4.json": {
        "trace.csv": "b11e44988614bc2662c2ad291652f742c47b46db966e0d704355f7da3230618a",
        "control.csv": "ed83d2774731942473452412eefb9e70b08fd3ff02fe8a8817ed5670b754eb21",
        "summary.json": "7163d71f286fabc9ca4c49d3bdc9c5b28d8d1da15dbc690c97a6b6e0ebf61bdb",
    },
    "affine8_gd_n32_beta1e-4.json": {
        "trace.csv": "9df26f25af3523a2de5e38979cb3c88fa94153e1f37f61542b22fd4095533ae0",
        "control.csv": "d86bb6bbf314a293474ecb4b5d1bd55b98fbada2e6d6722292b167a37457f014",
        "summary.json": "fdefca5e7cf18a60cfc0d61522ed0862470dd9001187c7fd52791c8959fa39d2",
    },
    "affine8_pmp_n16_beta1.json": {
        "trace.csv": "2e58b561bba56d1c5b12b5933ce84b4d45af5699469a8d20c7b118eb31990116",
        "control.csv": "ef446ac29a78ee488863e486a0b976ef2c6fbcb3bcb6aa92d97cc46a1b419408",
        "summary.json": "4fd18a0fbfb4bad552f21c262674616252d891b26210677396539d2fc82eeccb",
    },
    "affine8_pmp_n16_beta1e-4.json": {
        "trace.csv": "2b4c9e37001cc08a309653fa5f11ecdb777e3ca889a22f297f013680ec6c67da",
        "control.csv": "9241879ed8710cb7bf7ff77a82f8c7e68a6117eed0e3c2196a12d5e024fd0b3f",
        "summary.json": "72856ef70a4b88e942c1036d46a46d2f8363a612d9f8a9066b78704f7ddbe400",
    },
    "enriched14_gd_n16_beta1e-3.json": {
        "trace.csv": "5d4c6a16668067ee89953a5708000f28a08c394bdecc59509e58a8521bb5b0bc",
        "control.csv": "13c54fe3d1e018d58204a924cea6ce380b83d9beb3971541ce46522781df15d3",
        "summary.json": "580947e5027730cd743bfb99c6e7663382c23767b010cc3c689ef3b86074a6bd",
    },
    "gradcheck.json": {
        "trace.csv": "bc39a916f17eb6623f51b2abd0b3e5b6e6fc09a66148413b7e2104907e4944cf",
        "control.csv": "f3fb5fce525b0ce9d8720fb1efdeaf66ab09baf3395ad38b8949eb7a8e04f87a",
        "summary.json": "2c80698609438dca46d9b708c0b1c69cd208e640e7f5e596c003c8d45bbdbef5",
    },
    "quick_gd.json": {
        "trace.csv": "daab436a8af08078a61c700beac267f11af049af2158930c1e4ba707a6707aea",
        "control.csv": "6dcf8f57d7b386f26f4cfbe705c190fb758e27cb900da818cf162856842cb3e3",
        "summary.json": "e56dde7a8e2588cac66e64201e3855e4e524478a5731d1dcbcf2041c7f52c3b8",
    },
    "quick_pmp.json": {
        "trace.csv": "65c7e12ef44aee19b925c5fbf91cc8b6f575cb985310d611d4c49ea26b2b391e",
        "control.csv": "0593fa2f7edacd50bac30e375690dab9adf3a4559056f1d9fc9a0fd985072fdf",
        "summary.json": "a0646e58b27e02235bf06a9eb046ddcd9ea1d1ce1e1236bf7855f6dedf742541",
    },
    "quick_pmp.json, enriched14": {
        "trace.csv": "c0315c8a29bd5c1d68f783fcb2a8850988c1799520d84ea3f6d41de5d969a62c",
        "control.csv": "bbf2fe2adfbb67276d0b063afa3b21a6d3d35a1773c7c875fb7f3fdc382e97fe",
        "summary.json": "a68570c7fc7e96fcbc1530018cecbb938dac57df8416f9ffc9d9c6bec8127114",
    },
}
LIBM_LONG_GOLDEN = {
    "affine8_pmp_n16_beta1e-4.json": {
        "trace.csv": "f3f713b8ee8e0aac3771acdc169b09d1d19e326d03eda2c5a913789af8a0ccc1",
        "control.csv": "089c6140a51d23ac7c67273f3976e9838e2d7ab98b6081bb04d15a61f07ea530",
        "summary.json": "f3dec76060bafaae1ddbe8162f3e9ce89a8f6b25c02e24ba2a885a2be2eab32c",
    },
    "affine8_gd_n16_beta1e-4.json": {
        "trace.csv": "8b517d2bb2afea7cfe571a4669590d078ef7cef42fa4a9d927b6f290fbb1321c",
        "control.csv": "e6009b9461aa0ae0d851a765c431c10e82e83a695869e5dfab7b7f294457cfbb",
        "summary.json": "f737edbad376ac7119dc9ac0e4f8e77bab8bf280a0b98311869aca472c585a31",
    },
    "enriched14_gd_n16_beta1e-3.json": {
        "trace.csv": "7d339184b8765bf5b6b64cfd6c5a0fed19138e8b3658bdb0f79821514be6588b",
        "control.csv": "773c94fd1f565e79571ef2e944f0d7816483033f5be8372214dc9ef7daa12d9f",
        "summary.json": "ab60a380afd1ca5c855940ba93b5ebb8cafe4263eb084217aaeb05dbac0e6c5f",
    },
}
# The digest sets by np.exp kernel.
DIGESTS = {
    "avx512": {"short": GOLDEN, "long": LONG_GOLDEN},
    "libm": {"short": LIBM_GOLDEN, "long": LIBM_LONG_GOLDEN},
}
LIBM_CHILD = """
import json, tempfile
from pathlib import Path
from conftest import exp_kernel_name
from test_golden import CONFIGS, LIBM_LONG_GOLDEN, LIBM_RUNS, LONG_PASSES, run_digests
digests = {"kernel": exp_kernel_name()}
with tempfile.TemporaryDirectory() as tmp:
    for label, (name, changes) in LIBM_RUNS.items():
        digests[label] = run_digests(CONFIGS / name, Path(tmp) / str(len(digests)), **changes)
    for name in LIBM_LONG_GOLDEN:
        digests["long " + name] = run_digests(CONFIGS / name, Path(tmp) / str(len(digests)), LONG_PASSES)
print(json.dumps(digests))
"""


def recorded(kernel: str, runs: str) -> dict:
    """The "short" or "long" ``runs``' digests of ``kernel``; a kernel without them fails, naming it."""
    if kernel not in DIGESTS:
        pytest.fail(f"no golden digests are recorded for the np.exp kernel {kernel}; "
                    "record them as README 'Determinism' says", pytrace=False)
    return DIGESTS[kernel][runs]


def run_digests(config: Path, out: Path, max_iter: int = MAX_ITER, **changes) -> dict:
    """Train ``config`` with at most ``max_iter`` passes, and ``changes``, into ``out``; SHA-256 of each output."""
    cfg = cli.load_config(config)
    cfg = dataclasses.replace(cfg, max_iter=min(cfg.max_iter, max_iter), **changes)
    summary = cli._train_into(out, cfg)
    summary.pop("wall_clock_seconds")
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("trace.csv", "control.csv")
    }
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    digests["summary.json"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_every_config_is_covered():
    assert sorted(GOLDEN) == sorted(p.name for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_config_outputs_are_byte_identical(name, tmp_path, exp_kernel):
    want = recorded(exp_kernel, "short")[name]
    assert run_digests(CONFIGS / name, tmp_path / "run") == want


@pytest.mark.parametrize("name", sorted(LONG_GOLDEN))
def test_long_run_is_byte_identical(name, tmp_path, exp_kernel):
    want = recorded(exp_kernel, "long")[name]
    assert run_digests(CONFIGS / name, tmp_path / "run", LONG_PASSES) == want


def test_gradcheck_line_is_unchanged(capsys):
    assert cli.main(["gradcheck", "--config", str(CONFIGS / "gradcheck.json")]) == 0
    assert capsys.readouterr().out == GRADCHECK_LINE


def test_runs_are_byte_identical_under_libm_exp():
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=LIBM_FEATURES_OFF, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", LIBM_CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    long_runs = {"long " + name: digests for name, digests in LIBM_LONG_GOLDEN.items()}
    assert json.loads(proc.stdout) == {"kernel": "libm", **LIBM_GOLDEN, **long_runs}
