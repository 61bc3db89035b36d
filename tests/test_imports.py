"""What importing quintic loads, and the names the package serves.

A cold ``import quintic.cli`` loads only ``quintic``, ``quintic.cli`` and
``quintic.errors``; each command imports the modules it runs. Every probe
runs in a fresh interpreter, since this process has loaded every module.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import quintic
from quintic import selftest
from quintic.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BASE = {"quintic", "quintic.cli", "quintic.errors"}

#: the package's public names, by the module that defines each
PUBLIC = {
    "cyclo": ["CycInt", "EPSILON", "LAMBDA", "ONE", "ZETA", "ZERO", "canonical_associate", "euclid_divmod",
              "exact_div", "galois_apply", "gcd", "hyperprimary_class", "lambda_valuation", "norm"],
    "primes": ["CycPrime", "factor_radicand", "factor_rational_prime", "primary_normalize"],
    "radicand": ["RadicandForm", "Verdict", "classify", "enumerate_radicands", "is_fifth_power_free"],
    "symbols": ["ResidueField", "brute_force_symbol", "quintic_symbol", "residue_field"],
    "genus": ["absolute_genus", "build_genus_report", "corollary_report", "count_ramified_d", "infer_qstar",
              "period_polynomial", "relative_genus"],
    "classgroup": ["ClassGroupModel", "ambiguous_subgroup", "build_lattice", "canonical_model",
                   "enumerate_capitulation_types", "generator_certificate", "model_survey", "tau2_permutation"],
}


def fresh(code: str) -> str:
    """The last line code prints, run in a fresh interpreter that imports quintic from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    return res.stdout.splitlines()[-1]


def loaded_after(statements: str) -> set[str]:
    code = statements + "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'quintic')))\n"
    return set(json.loads(fresh("import json, sys\n" + code)))


def test_importing_the_cli_loads_only_the_cli():
    assert loaded_after("import quintic.cli") == BASE


@pytest.mark.parametrize("args, modules", [
    (["--version"], set()),
    (["--help"], set()),
    (["selftest", "--help"], set()),
    (["--bogus"], set()),
    (["selftest", "--suite", "bogus"], set()),
    (["classify", "95"], {"radicand", "cyclo", "intarith"}),
    (["enumerate", "2", "1000"], {"radicand", "cyclo", "intarith"}),
    (["factor", "95"], {"radicand", "primes", "cyclo", "intarith"}),
    (["symbol", "3", "11"], {"cyclo", "primes", "symbols", "polyfp", "intarith"}),
    (["genus", "2762"], {"radicand", "genus", "primes", "polyfp", "cyclo", "intarith"}),
    (["report", "95"], {"radicand", "primes", "genus", "classgroup", "polyfp", "cyclo", "intarith"}),
], ids=["version", "help", "selftest-help", "usage-error", "bad-suite", "classify", "enumerate", "factor",
        "symbol", "genus", "report"])
def test_each_command_loads_only_the_modules_it_runs(args, modules):
    run = (
        "import contextlib, io\n"
        "from quintic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        main({args!r}, standalone_mode=False)\n"
        "    except SystemExit:\n"
        "        pass\n"
    )
    assert loaded_after(run) == BASE | {f"quintic.{m}" for m in modules}


def test_every_public_name_is_the_object_of_its_defining_module():
    assert sorted(quintic.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"quintic.{module}")
        for name in names:
            scope = {}
            exec(f"from quintic import {name}", scope)
            assert scope[name] is getattr(defining, name), name


def test_an_unknown_name_is_an_attribute_error_and_a_submodule_still_imports():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quintic.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from quintic import no_such_name", {})
    assert fresh("import quintic\nfrom quintic import polyfp\nprint(polyfp.__name__)") == "quintic.polyfp"


def test_the_suite_choices_are_the_suites_and_a_bad_one_names_them():
    suite = next(p for p in main.commands["selftest"].params if p.name == "suite_name")
    assert list(suite.type.choices) == sorted(selftest.SUITES)
    res = CliRunner().invoke(main, ["selftest", "--suite", "bogus"])
    assert res.exit_code == 2 and res.stdout_bytes == b""
    error = json.loads(res.stderr)["error"]
    assert error["code"] == "input-error"
    assert "'bogus'" in error["message"] and all(f"'{name}'" in error["message"] for name in selftest.SUITES)
