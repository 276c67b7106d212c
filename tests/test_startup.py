"""Start-up cost: only the Monte Carlo path loads numpy.

Importing numpy costs about 0.1 s of CPU and starts OpenBLAS threads, so every
command that never samples must leave it (and the thread pool module) unloaded.
``sample`` runs OpenBLAS on one thread unless the caller chose a count.  Each
check runs in a fresh interpreter, where ``sys.modules`` and
``/proc/self/status`` show exactly what the package and one command started.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Mapping

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = ("numpy", "concurrent.futures")


def _last_line(script: str, env: Mapping[str, str]) -> str:
    """The last stdout line of ``script`` in a fresh interpreter that imports from ``src``."""
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return result.stdout.splitlines()[-1]


def _loaded_after(body: str) -> set[str]:
    """Names in ``LAZY`` that are in ``sys.modules`` after running ``body``."""
    script = textwrap.dedent(body) + textwrap.dedent(
        f"""
        import sys
        print("loaded:" + ",".join(name for name in {LAZY!r} if name in sys.modules))
        """
    )
    last = _last_line(script, os.environ)
    assert last.startswith("loaded:"), last
    return set(filter(None, last[len("loaded:"):].split(",")))


def test_exact_commands_load_neither_numpy_nor_a_thread_pool():
    loaded = _loaded_after(
        """
        import contextlib, io
        import pytest
        import linkage_betti
        from linkage_betti.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["betti", "--lengths", "3,1,1,1,1"]) == 0
            assert main(["average", "--n", "7", "--p", "1", "--measure", "simplex"]) == 0
            assert main(["average", "--n", "7", "--p", "1", "--measure", "cube"]) == 0
            assert main(["convergence", "--p", "0", "--n-min", "3", "--n-max", "8",
                         "--measure", "both"]) == 0
            assert main(["slice", "--q", "-1,1,3"]) == 0
            with pytest.raises(SystemExit):
                main(["--version"])
        """
    )
    assert loaded == set()


def test_sample_loads_numpy():
    loaded = _loaded_after(
        """
        import contextlib, io
        from linkage_betti.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sample", "--n", "5", "--p", "0", "--measure", "cube",
                         "--samples", "100"]) == 0
        """
    )
    assert "numpy" in loaded


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("caller", [None, "2"])
def test_sample_runs_openblas_on_one_thread_unless_the_caller_chose(caller):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    last = _last_line(
        """
        import contextlib, io, os
        from linkage_betti.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sample", "--n", "6", "--p", "1", "--measure", "simplex",
                         "--samples", "1000", "--threads", "1"]) == 0
        with open("/proc/self/status") as status:
            threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
        print(os.environ["OPENBLAS_NUM_THREADS"], threads)
        """,
        env,
    )
    # OpenBLAS starts no more threads than the process may run on
    chosen = caller or "1"
    threads = min(int(chosen), len(os.sched_getaffinity(0)))
    assert last.split() == [chosen, str(threads)]
