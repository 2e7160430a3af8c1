"""Where the benchmark runs: repo paths, scratch directory, statistics helpers.

The benchmark lives in its own directory and drives the program that sits
next to it (``src/repro``) from source: no install step.  Everything it
writes goes under one scratch directory inside the checkout
(``.perfbench_work/``), which is removed when the run ends.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


def program_present() -> bool:
    """Whether the program under test is next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(work: Path) -> dict:
    """Environment for processes the benchmark launches.

    ``PYTHONPATH`` points at the checkout's sources and ``TMPDIR`` at the
    run's scratch directory, so spill files the program writes stay inside
    the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(work)
    env.pop("REPRO_FAULTS", None)
    return env


class Workdir:
    """A scratch directory under ``.perfbench_work/``, removed on exit.

    Also routes this process's temporary files there (``tempfile`` and the
    ``TMPDIR`` its spawned workers inherit).
    """

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self._saved = (tempfile.tempdir, os.environ.get("TMPDIR"))
        tempfile.tempdir = str(self.path)
        os.environ["TMPDIR"] = str(self.path)
        return self.path

    def __exit__(self, *exc_info: object) -> None:
        tempfile.tempdir, previous = self._saved
        if previous is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def nproc() -> int:
    """CPUs this process may run on (the client/worker concurrency cap)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def host_line() -> str:
    """``nproc``, Python and numpy versions, printed next to every result."""
    import numpy

    return (
        f"host: nproc={nproc()} python={platform.python_version()} "
        f"numpy={numpy.__version__} platform={platform.machine()}"
    )


def quantile(values: "list[float]", q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]
