"""The package surface: lazy exports, and what each entry point imports."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import soslab

SRC = os.path.dirname(os.path.dirname(soslab.__file__))


def run_python(*args):
    """Runs a fresh interpreter on this checkout's soslab; returns the result."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def soslab_modules_after(code):
    """The soslab submodules loaded once `code` has run in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint(*[m for m in sys.modules if m.startswith('soslab.')])"
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    return {name[len("soslab."):] for name in result.stdout.split()}


def modules_imported_by_cli(argv):
    """Every module `python -m soslab.cli argv` imports, from -X importtime."""
    result = run_python("-X", "importtime", "-m", "soslab.cli", *argv)
    assert result.returncode == 0, result.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }


# -- lazy exports --------------------------------------------------------------


def test_every_export_is_its_module_object():
    for name in soslab.__all__:
        module = import_module(f"soslab.{soslab._EXPORTS[name]}")
        assert getattr(soslab, name) is getattr(module, name), name


def test_dir_lists_every_export():
    assert set(soslab.__all__) <= set(dir(soslab))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from soslab import *", namespace)
    assert set(soslab.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        soslab.no_such_name
    assert not hasattr(soslab, "decompose_soss")
    with pytest.raises(ImportError):
        exec("from soslab import no_such_name", {})


def test_module_names_resolve_in_a_fresh_interpreter():
    result = run_python(
        "-c", "import soslab; print(len(soslab.verify.CLAIM_NAMES), soslab.decompose._compiled)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["8", "None"]


# -- import footprint ----------------------------------------------------------


def test_bare_import_loads_no_module():
    assert soslab_modules_after("import soslab") == set()


def test_ring_context_loads_only_its_own_modules():
    loaded = soslab_modules_after("import soslab\nsoslab.RingContext(6)")
    assert loaded == {"_record", "errors", "quadfield"}


ELEMENT = ["--D", "6", "--elem", "6+2sqrt6"]


@pytest.mark.parametrize(
    "argv,unused",
    [
        (["check", *ELEMENT], {"criteria", "sintegers", "sweep", "verify"}),
        (["decompose", *ELEMENT, "--shortest"], {"criteria", "sintegers", "sweep", "verify"}),
        (["peters", *ELEMENT], {"_pysearch", "decompose", "sweep", "verify"}),
        (
            ["witness", "--D", "6", "--kind", "ramified"],
            {"_pysearch", "decompose", "sweep", "verify"},
        ),
        (["sint", *ELEMENT, "--m", "2"], {"sweep", "verify"}),
        (
            ["scan", "--D", "6", "--trace-bound", "8", "--with-oracle"],
            {"criteria", "decompose", "_pysearch", "sintegers", "verify"},
        ),
        (["verify", "thm3", "--D", "2..6", "--trace-bound", "8"], set()),
        (
            ["scan", "--D", "6", "--trace-bound", "8"],
            {"criteria", "decompose", "_pysearch", "sintegers", "sweep", "verify"},
        ),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_subcommand_imports_only_what_it_calls(argv, unused):
    imported = modules_imported_by_cli(argv)
    assert "soslab.quadfield" in imported
    assert not imported & {f"soslab.{name}" for name in unused}
    assert not imported & {"fractions", "decimal"}


def test_package_import_does_not_import_the_cli():
    # runpy warns when `-m soslab.cli` finds soslab.cli already imported by
    # the package; as an error, that warning would fail the call.
    result = run_python("-W", "error::RuntimeWarning", "-m", "soslab.cli", "witness", "--D", "2")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "doubling witness for D=2: 2+sqrt2\n"
