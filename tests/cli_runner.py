"""Run one curvimom command line in-process and capture what it wrote."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from curvimom.cli import main


@dataclass(frozen=True)
class Result:
    """A command's exit code, its stdout and stderr, and the exception that
    escaped ``main``: None on exit 0, SystemExit on an argparse exit."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def invoke(*argv: str) -> Result:
    """``curvimom ARGV``, run through ``curvimom.cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: a usage error, --help or --version
            code, exception = exc.code, exc if exc.code else None
        except Exception as exc:
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
