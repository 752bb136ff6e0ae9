"""The never-run-statement check ``tools/never_run.py``, on a tiny package."""

import importlib.util
from pathlib import Path

import pytest

pytest_plugins = "pytester"

_PATH = Path(__file__).resolve().parent.parent / "tools" / "never_run.py"
_SPEC = importlib.util.spec_from_file_location("never_run", _PATH)
never_run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(never_run)

MODULE = '''"""A module whose ``return -1`` only a negative argument reaches."""
import sys


def sign(x):
    """Not a statement."""
    if x < 0:
        return -1
    return 1


def main():
    return sign(2)


if __name__ == "__main__":
    sys.exit(main())
'''

ALLOWED = ("tinypkg/cli.py:17  <module>  sys.exit(main())  (allowed: runs "
           "only as a script; the tests call main())")


@pytest.mark.parametrize("calls, listed, status", [
    ("main()", ["tinypkg/cli.py:8  sign  return -1", ALLOWED,
                "2 statements never ran; 1 not allowed."], 1),
    ("main(), sign(-3)", [ALLOWED, "1 statements never ran; 0 not allowed."],
     0),
], ids=["one-branch-unreached", "only-the-allowed-one"])
def test_lists_exactly_the_statements_no_test_runs(pytester, capsys,
                                                   monkeypatch, calls, listed,
                                                   status):
    """Docstrings are not statements; an allowed statement is listed with
    its reason and does not fail the check; any other one does."""
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    pytester.mkpydir("tinypkg")
    (pytester.path / "tinypkg" / "cli.py").write_text(MODULE)
    pytester.makepyfile(test_tiny=f"""
        from tinypkg.cli import main, sign


        def test_calls():
            {calls}
    """)
    monkeypatch.setattr(never_run, "PACKAGE", pytester.path / "tinypkg")
    monkeypatch.setattr(never_run, "UNIT_TESTS",
                        ["-q", "-p", "no:cacheprovider", "test_tiny.py"])
    assert never_run.main() == status
    lines = capsys.readouterr().out.splitlines()
    assert any("1 passed" in line for line in lines)
    assert [line for line in lines if line.startswith("tinypkg/")
            or "never ran" in line] == listed
