"""The CLI contract: exit status and the bytes of stdout and stderr.

Each case runs ``cli.main`` in process and compares its exit status and the
sha256 digests of its stdout and stderr with values recorded from an earlier
build, so a change that means to keep the output keeps these passing.  The
cases are the exact-output ``CLI_CASES``, the exact commands of the benchmark
workloads, the Bernoulli retrieval caps, the odd-exponent closed form at
p = 63, the compositions JSON edge cases, and the failing exact sweeps under
each perturbed binomial patched into ``exp_sums``.  Output formatted from floats (characters, alkan ratios, float
residuals) is left out: its last digits depend on the platform's libm.  The
compositions cap with ``--length`` also runs as a fresh interpreter writing to
a pipe, hashed as it streams.
"""

import hashlib
import subprocess
import sys

import pytest

from expsums import exp_sums
from expsums.cli import main
from expsums.compositions import CACHE_DEPTH
from helpers import PERTURBED_BINOMIALS, cli_env

EMPTY = hashlib.sha256(b"").hexdigest()

# (perturbation or None, argv) -> (exit status, sha256 of stdout, of stderr)
CONTRACT = {
    (None, "powersum --p 3 --k 3 --method recurrence"):
        (0, "a4b2c5db15348c29451e18b8307e5ef81625ea638e807935f39ceaa8d9ac7758", EMPTY),
    (None, "powersum --p 3 --k 10 --method faulhaber"):
        (0, "f90b27e8fd20425b0c28724b22e3b8640f7b815882180f51f4bc54d2eb5f7b02", EMPTY),
    (None, "powersum --p 4 --k 10 --method naive --json"):
        (0, "315a263711e84df19004137a9cda4a7802c7f5fd104be5c7c28ab7460e184ab1", EMPTY),
    (None, "powersum --p 5 --method poly"):
        (0, "163de96f66900712c72cec8a989451ec7a61a2ac685fe3f88c3a0297c13a34a5", EMPTY),
    (None, "powersum --p 3 --method poly --json"):
        (0, "d248a5ff2ec7b683c27c2dc796a809d57f072b0e3bd22bab3a5b22c6d430894c", EMPTY),
    (None, "bernoulli --n 2 --method retrieve"):
        (0, "fe461f5bac3c62638a6ca177a19075d65731db94d0e1b93d24af60ab2d9fbb3a", EMPTY),
    (None, "bernoulli --n 1 --method oracle --json"):
        (0, "629d9aebb24c710d3141aa24c35359ad283c160880681dd617e0afbc96be623f", EMPTY),
    (None, "bernoulli --table 6 --json"):
        (0, "9dfc40fe5c3d48da9b7eab5677d0f44a70c17b1db69493414819349d45f6c6f1", EMPTY),
    (None, "compositions --n 4"):
        (0, "f18415c67bfc9fb52b61598b0d27da55441e008c6ee5e3918b7ab632c559bef9", EMPTY),
    (None, "compositions --n 5 --length 3 --json"):
        (0, "a7a3c8053a5850a1453d5cd629877f3a1b4f59328393b416b48d7061380fb2b7", EMPTY),
    (None, "verify prop1 --pmax 3 --kmax 6 --exact"):
        (0, "2c2405a5b2fa0962c53c4bff5ec779eb5779420b3e47a24a667852472c77efb3", EMPTY),
    (None, "verify prop1 --pmax 3 --kmax 12 --float --json"):
        (0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570", EMPTY),
    (None, "verify eq3 --pmax 3 --kmax 5 --json"):
        (0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570", EMPTY),
    (None, "verify coeffs --pmax 6"):
        (0, "8e8e9f745343bc50dea7eee758bbc6dae5d4b13c4497a5a1a526ef2907b426c3", EMPTY),
    (None, "verify prop1 --exact --pmax 12 --kmax 20"):
        (0, "43a690b19dd9300f00762576f9c895604d2965abddea42972d8c30435a3f000e", EMPTY),
    (None, "verify eq3 --pmax 12 --kmax 24"):
        (0, "268c3ffcb7163f90d5799ff3b88f71478a9a989ebfd72be053991f97d1625e0d", EMPTY),
    (None, "verify coeffs --pmax 15"):
        (0, "6c9c30173fb8b8ee68efd62fbfd681bff37361489195e14732c95b46925e7118", EMPTY),
    (None, "bernoulli --table 30"):
        (0, "582100f42e1e0023bcee0548a64d4f8d72e6d16888b74bd42f9ed5e6553265b6", EMPTY),
    (None, "bernoulli --table 60"):
        (0, "5a11faade7f0eb4a2bd21afcfbc1ea71af6e28a6fff3d5dcd5d7a9de9f4b5568", EMPTY),
    (None, "bernoulli --n 60 --method retrieve --json"):
        (0, "e0e2fe72007c708c23f668e1254dce19f76f9d6774c43e22399673ddd302c5fc", EMPTY),
    (None, "bernoulli --n 500 --method oracle"):
        (0, "02d82c462ec3d97c23b1b54354af1397dfbab408492d90b6c978f0e97d366586", EMPTY),
    (None, "powersum --p 64 --method poly"):
        (0, "9ed36a5c42da5e4d1f2ec81fc7d5da0bb8914b9b6fff30c3c4be74e55c99a1f5", EMPTY),
    (None, "powersum --p 63 --method poly"):
        (0, "79c20ade543643d08d32673932dc5e8a2bee31cc7e299a9b743b36ddd33f525a", EMPTY),
    (None, "powersum --p 63 --method poly --json"):
        (0, "4e4963800199187bdae1b8d9ac08ea9a8ff0f3d66ba6c54397c8ff13c6c8255b", EMPTY),
    (None, "compositions --n 18"):
        (0, "4f1a9348422e8a59e8ec85137c9000a5d02e50170948b808e1fa0bc7e4a5a8ba", EMPTY),
    (None, "compositions --n 18 --json"):
        (0, "44cff64827b5eddc4e5cbd7c9b0b0659634739f4725b2d57eba866324517e967", EMPTY),
    (None, "compositions --n 18 --length 9"):
        (0, "f017674d2d8fabf12552124832bc95f4e39fc39adb98caba3173a9893e8ac6f4", EMPTY),
    (None, "compositions --n 1 --json"):
        (0, "82008ef2d05170292dd7b8df85b2c1173255b43b86213f207911cedc7c06f2a9", EMPTY),
    (None, "compositions --n 7 --length 1 --json"):
        (0, "1f7240cf01e52d254ba81aace35ec1ca7e2ab2caf16799f28be9771096f3578b", EMPTY),
    (None, "compositions --n 7 --length 7 --json"):
        (0, "5f045ebd133268f50cd5473e0d729c41ab0f83624ca34938247c75eacece9375", EMPTY),
    ("drop-a0-term", "verify prop1 --exact --pmax 6 --kmax 14"):
        (1, "952ba9c27a866c3aeedb098cd392636381ee855009dddce893f9dfc585af2673", EMPTY),
    ("drop-a0-term", "verify eq3 --pmax 6 --kmax 14"):
        (1, "fd2b10de7bfec9240686db8cec1cf0e4fc15d86116e88b3be8b85dfa06efa029", EMPTY),
    ("drop-a0-term", "verify eq3 --pmax 6 --kmax 14 --json"):
        (1, "33c956fd1514b11d21c8eaf62d8fb775803022c1e11df5eb5ae6cfaa2f5d8da1", EMPTY),
    ("drop-a0-term", "verify coeffs --pmax 9"):
        (1, "c738d552c8f428e4034fb71649cf31642de26d486c624d13897217526cf08296", EMPTY),
    ("flip-r1-sign", "verify prop1 --exact --pmax 6 --kmax 14"):
        (1, "2bcd28fbb4e367266cf19057182d3ed673b84c06cd62a98733a9ea9f56951568", EMPTY),
    ("flip-r1-sign", "verify eq3 --pmax 6 --kmax 14"):
        (1, "089d270b7faa6d4f6218419d7a2e34556606cb5606dbdff513a0a8cb608d44b8", EMPTY),
    ("flip-r1-sign", "verify eq3 --pmax 6 --kmax 14 --json"):
        (1, "7bd3d50d5419f7bef202e8c61afe18f68386cf2ebca4cd30863c71e63283ca08", EMPTY),
    ("flip-r1-sign", "verify coeffs --pmax 9"):
        (1, "3d9dd8eb760e346e807fd944c6ccb45842106183057dabfd99a1132f0d96a657", EMPTY),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(CONTRACT),
                         ids=lambda c: f"{c[0]}: {c[1]}" if c[0] else c[1])
def test_output_matches_contract(capsys, monkeypatch, case):
    perturbation, argv = case
    if perturbation:
        monkeypatch.setattr(exp_sums, "binomial", PERTURBED_BINOMIALS[perturbation])
    status = main(argv.split())
    captured = capsys.readouterr()
    assert (status, _digest(captured.out), _digest(captured.err)) == CONTRACT[case]


class _CountingStdout:
    """A stdout that keeps every string handed to write or writelines."""

    def __init__(self):
        self.strings = []

    def write(self, text):
        self.strings.append(text)
        return len(text)

    def writelines(self, lines):
        self.strings.extend(lines)


@pytest.mark.parametrize("argv", ["compositions --n 18", "compositions --n 18 --json",
                                  "compositions --n 18 --length 9"])
def test_compositions_write_blocks_not_rows(monkeypatch, argv):
    # 131,072 and 24,310 rows reach stdout as one string per group of blocks,
    # so an unbuffered stdout (PYTHONUNBUFFERED) makes few write calls.
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    status = main(argv.split())
    assert len(stdout.strings) <= 2 ** (18 - CACHE_DEPTH) + 2
    assert (status, _digest("".join(stdout.strings))) == CONTRACT[None, argv][:2]


def test_compositions_cap_streams_whole_through_a_pipe():
    # C(23, 11) = 1,352,078 rows, about 50 MB, written unbuffered in large
    # blocks; the digest is taken chunk by chunk as the pipe delivers them.
    env = cli_env()
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "expsums", "compositions", "--n", "24", "--length", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, digest.hexdigest(), err) == (
        0, "5735e93f6dca85b581237d9d4f7bbce4073b4a9b320b69f3c9507d18a9a6f721", b"")
