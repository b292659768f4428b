"""Run one curvimom command line in-process and capture what it did."""

from __future__ import annotations

import contextlib
import io
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Outcome:
    """What one command did: its exit code, or the exception it raised."""

    exit_code: int | None
    stdout: str
    error: str | None = None


def import_cli():
    """The click group ``curvimom.cli.main``, imported from this checkout's src/."""
    package = SRC / "curvimom" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a curvimom checkout")
    sys.path.insert(0, str(SRC))
    from curvimom import cli

    if Path(cli.__file__).resolve().parent != package.parent.resolve():
        raise SystemExit(f"error: imported curvimom from {cli.__file__}, not from {SRC}")
    return cli.main


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


class Runner:
    """Runs ``curvimom ARGV`` in-process through click, capturing stdout and stderr.

    click caches a text wrapper per output stream in a weak-keyed map whose
    value holds the stream, so a fresh buffer per command would never be
    freed; one reused pair of buffers per runner keeps memory flat.
    """

    def __init__(self, main) -> None:
        self.main = main
        self._out = io.StringIO()
        self._err = io.StringIO()

    def __call__(self, argv) -> Outcome:
        """Run one command line.  An exception the CLI lets escape is the
        program's failure, not the benchmark's: it is reported in the
        outcome, so the run goes on."""
        out, err = self._out, self._err
        for buffer in (out, err):
            buffer.seek(0)
            buffer.truncate()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.main.main(args=list(argv), prog_name="curvimom")
            except SystemExit as exc:
                return Outcome(_exit_code(exc.code), out.getvalue())
            except Exception as exc:
                where = traceback.extract_tb(exc.__traceback__)[-1]
                return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc} ({where.name}:{where.lineno})")
        return Outcome(0, out.getvalue())
