"""Fixtures shared by the analysis tests."""

import contextlib
import io
from types import SimpleNamespace

import pytest

from repro.cli import main


@pytest.fixture(scope="session")
def cli_report(tmp_path_factory):
    """One ``repro report -o <file>`` run shared by the CLI smoke test
    and the report tests: the command builds the whole quick report
    (~20 s), so the session runs it once.  Holds the exit code, what
    the command printed and the written file's path."""
    path = tmp_path_factory.mktemp("report") / "report.md"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["report", "-o", str(path)])
    return SimpleNamespace(rc=rc, stdout=out.getvalue(), path=path)
