"""Byte-identity pin for classify, factor, symbol, genus, report and enumerate.

Each digest is a sha256 over the arguments, exit code, stdout and stderr of
every invocation in its case list. The classify, genus, report and extra
digests were recorded on the code before the capitulation section was served
from constants and each radicand was factored once per command; the
enumerate digest was recorded before trial division moved to block gcds
over a prime table; the factor and symbol digests were recorded while the
CLI still wrote its JSON with json.dumps(indent=2). The large-period-prime
and two-large-primes cases were split out of extra, with no change to their
bytes, so that an answer where the CLI once refused moves only its own group;
large-period-prime was re-recorded when the cap p <= 100000 on period
polynomials went, so genus and report of 100151 now answer and genus of
32 * 100151 fails on the fifth power instead of the cap. The two enumerate
cases that reach uncertifiable cofactors were split out of enumerate into
enumerate-large-primes, with no change to their bytes, for the same reason.
The psi12 group was recorded when is_prime gained base 41, with which
factor, classify and genus of that strong pseudoprime to the bases 2..37
stopped reading it as a prime and refuse it as uncertified.
The symbol-inert group was recorded before a prime's residue degree and
ramification index were read off its p rather than stored with it.
Any change to the CLI's bytes, error codes or error order shows up here.
"""

import hashlib

import pytest
from click.testing import CliRunner

from quintic.cli import main

_RANGE = range(2, 1001)

# README examples, error paths (n < 2, a fifth power dividing n, a bad
# table) and the order in which those errors surface when several apply
_EXTRA = (
    ("classify", "95"),
    ("genus", "149"),
    ("report", "149"),
    ("report", "341", "--h-gamma", "5"),
    ("genus", "341", "--h-gamma", "5"),
    ("report", "11", "--table", "h.csv"),
    ("genus", "11", "--table", "h.csv"),
    ("report", "1", "--table", "bad.csv"),
    ("genus", "1", "--table", "bad.csv"),
    *((cmd, n) for cmd in ("classify", "genus", "report")
      for n in ("1", "0", "32", "161051")),
    ("classify", str(32 * 100151)),
)

# genus and report of n with a prime factor p = 1 mod 5 above 100000: 100151
# itself and 32 * 100151, where a fifth power also divides n
_LARGE_PERIOD_PRIME = tuple((cmd, n) for n in ("100151", str(32 * 100151))
                            for cmd in ("genus", "report"))

# the three commands on a product of two primes above the trial-division
# bound, which factorize cannot certify
_TWO_LARGE_PRIMES = tuple((cmd, str(1000003 * 1000033)) for cmd in ("classify", "genus", "report"))

# the least strong pseudoprime to the twelve prime bases 2..37,
# 399165290221 * 798330580441: two prime factors above the trial-division bound
_PSI12 = tuple((cmd, "318665857834031151167461") for cmd in ("factor", "classify", "genus"))

# enumerate as JSONL, CSV and filtered, and a Form II window at 10^12
_ENUMERATE = (
    ("enumerate", "2", "3000"),
    ("enumerate", "2", "3000", "--csv"),
    ("enumerate", "2", "3000", "--form", "II"),
    ("enumerate", "1000000000000", "1000000000400", "--form", "II"),
)

# enumerate over a window that reaches an uncertifiable fifth-power-free n
# (exit 2), and over one non-fifth-power-free n whose cofactor is
# uncertifiable (skipped)
_ENUMERATE_LARGE_PRIMES = (
    ("enumerate", "1000036000090", "1000036000110"),
    ("enumerate", str(2**5 * 1000003 * 1000033), str(2**5 * 1000003 * 1000033)),
)

# factor beyond 2..1000: two radicands with large prime factors
_FACTOR = tuple(("factor", str(n)) for n in (*_RANGE, 41489734099375, 3284811865497593))

# symbol of rational and coordinate elements at split and degree-two primes;
# the cases pass "--" before the element, which a negative first coordinate
# no longer needs but which must still work
_SYMBOL = tuple(("symbol", "--", a, str(p)) for a in ("2", "3", "1,2,3,4", "-5,0,1,0")
                for p in (11, 19, 29, 31, 41, 61, 101, 1009, 99991))

# the same elements at inert primes (degree-4 residue fields, and not-coprime
# where p divides the element) and at p = 5, where the symbol is refused
_SYMBOL_INERT = tuple(("symbol", "--", a, str(p)) for a in ("2", "3", "1,2,3,4", "-5,0,1,0")
                      for p in (2, 3, 5, 7, 13, 10007))

PINNED = {
    "classify": "b799812489c4f6f2cdb97d0335c05a35299f9bfd10a6ab23a76d1e12c5565e07",
    "genus": "8199f7ff1081abcffedd7f84952b98d595fc5ab46ad3c00c9be1f1bdcff6dc2c",
    "report": "63bc8032c081c3bce620f79018fe0fc757f2c537f78f7343a3269b6f8710d9de",
    "extra": "d1fc8d93ae6446f71a3735d95242f2bac12fa99643104fc77ef04f1a62407dfd",
    "large-period-prime": "26d2432dd5013f423666b343a53bcbdb85d1e6d61dc8bfc3a1b11c8ec29650da",
    "two-large-primes": "353a52b6e08badd47d4640c1ff6070158a5d4164c45099b92512913cdced4562",
    "psi12": "41f34260c58d2cb5de8bdfc6e9bcb08159ead24046667b277cb745bf381c5b95",
    "factor": "88efa6f863847a8db4f906db190c21a83895f788369d09ee9c5bbd59cde3d1be",
    "symbol": "c9106879eeaa242652164cab64fc7c737726fe03cd01360c51a226eb241474f7",
    "symbol-inert": "c16c4ca14b5fe381e67907cc2de5a355c80ec9c96786974363012ae6a1104200",
    "enumerate": "f9bcfaf5a283baa739b2897cd11afd653e26a23ad8f7128142c5dc1d4922f1ce",
    "enumerate-large-primes": "de31da961a27004b9394d5d77b2d7ab3978d4bb4a2fef7adb4120a167d7f4559",
}


def _cases(name):
    if name == "extra":
        return _EXTRA
    if name == "large-period-prime":
        return _LARGE_PERIOD_PRIME
    if name == "two-large-primes":
        return _TWO_LARGE_PRIMES
    if name == "psi12":
        return _PSI12
    if name == "enumerate":
        return _ENUMERATE
    if name == "enumerate-large-primes":
        return _ENUMERATE_LARGE_PRIMES
    if name == "factor":
        return _FACTOR
    if name == "symbol":
        return _SYMBOL
    if name == "symbol-inert":
        return _SYMBOL_INERT
    return [(name, str(n)) for n in _RANGE]


def pin_digest(name: str) -> str:
    runner = CliRunner()
    h = hashlib.sha256()
    with runner.isolated_filesystem():
        with open("h.csv", "w", encoding="utf-8") as fh:
            fh.write("# demo\n11,5\n")
        with open("bad.csv", "w", encoding="utf-8") as fh:
            fh.write("11;5\n")
        for args in _cases(name):
            res = runner.invoke(main, list(args))
            h.update(f"{' '.join(args)}\0exit {res.exit_code}\0".encode())
            h.update(res.stdout_bytes + b"\0" + res.stderr_bytes + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_is_byte_identical_to_the_pin(name):
    assert pin_digest(name) == PINNED[name]


if __name__ == "__main__":
    for name in sorted(PINNED):
        print(f'    "{name}": "{pin_digest(name)}",')
