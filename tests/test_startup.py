"""What each entry point imports, each case in a fresh interpreter.

A ``j3o`` request is one process, so start-up is part of its cost: the
package leaves ``dataclasses`` (and ``inspect`` behind it) unimported, only
the requests that verify load ``identities``, and only a rational witness
loads ``fractions``.  Only modules that the package controls are asserted:
which standard modules the interpreter itself preloads differs between
Python versions.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import jacobsthal_octonions

SRC = pathlib.Path(jacobsthal_octonions.__file__).resolve().parents[1]
IDENTITIES = "jacobsthal_octonions.identities"


def loaded_after(code: str, *modules: str) -> dict[str, bool]:
    """Run ``code`` in a fresh interpreter, then report which of
    ``modules`` it left in ``sys.modules``."""
    probe = f"{code}\nimport sys\nprint(*(m in sys.modules for m in {modules!r}))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    flags = result.stdout.splitlines()[-1].split()
    return dict(zip(modules, (flag == "True" for flag in flags)))


def test_import_loads_no_dataclasses_fractions_or_identity_table():
    loaded = loaded_after("import jacobsthal_octonions",
                          "dataclasses", "inspect", "fractions", IDENTITIES)
    assert not any(loaded.values()), loaded


@pytest.mark.parametrize("argv", [
    ["seq", "--kind", "j3", "--to", "30"],
    ["oct", "--kind", "JO", "--n", "30", "--closed"],
    ["mul-table"],
])
def test_requests_that_only_generate_leave_the_identity_table_unloaded(argv):
    code = f"from jacobsthal_octonions import cli\nassert cli.main({argv!r}) == 0"
    loaded = loaded_after(code, "dataclasses", "fractions", IDENTITIES)
    assert not any(loaded.values()), loaded


def test_verify_loads_the_identity_table():
    # Right sides are integer numerators over each row's denominator, and a
    # passing index builds no rational value, so neither fractions nor
    # decimal loads.
    code = ("from jacobsthal_octonions import cli\n"
            "assert cli.main(['verify', '--identity', 'E4', '--to', '5']) == 0")
    assert loaded_after(code, IDENTITIES, "dataclasses", "fractions", "decimal") == {
        IDENTITIES: True, "dataclasses": False, "fractions": False, "decimal": False}


@pytest.mark.parametrize("statement", [
    "from jacobsthal_octonions import identities",
    "from jacobsthal_octonions import verify",
    "from jacobsthal_octonions import cli, identities, octonion, sequences",
    "import jacobsthal_octonions; jacobsthal_octonions.identities.verify",
    "from jacobsthal_octonions import *; verify",
])
def test_identity_names_resolve_as_the_first_statement(statement):
    assert loaded_after(statement, IDENTITIES) == {IDENTITIES: True}


def test_unknown_name_is_refused_without_loading_the_table():
    code = ("import jacobsthal_octonions\n"
            "assert not hasattr(jacobsthal_octonions, 'no_such_name')")
    assert loaded_after(code, IDENTITIES) == {IDENTITIES: False}


def test_a_request_in_one_process_loads_no_signal():
    # Only a request in parts handles signals.  Whether the interpreter
    # preloads ``signal`` differs between versions, so the probe compares.
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "before = 'signal' in sys.modules\n"
            "from jacobsthal_octonions import cli\n"
            "assert cli.main(['verify', '--all', '--to', '300', '--format', 'csv']) == 1\n"
            "assert ('signal' in sys.modules) is before")
    assert loaded_after(code, "signal")
