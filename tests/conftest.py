import io
import sys
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

# Make the sibling helper module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

from percemon.cli import main  # noqa: E402


@dataclass
class CliResult:
    stdout: str
    stderr: str
    exit_code: int


def invoke_cli(argv: list[str], input: bytes | str = b"") -> CliResult:
    """Run ``percemon.cli.main(argv)`` in process with ``input`` on stdin."""
    if isinstance(input, str):
        input = input.encode("utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(input), encoding="utf-8")
    with mock.patch.multiple(sys, stdin=stdin, stdout=stdout, stderr=stderr):
        exit_code = main(argv)
    return CliResult(stdout.getvalue(), stderr.getvalue(), exit_code)


@pytest.fixture()
def runner():
    """The command line, run in process: ``runner(argv, input=b"")``."""
    return invoke_cli
