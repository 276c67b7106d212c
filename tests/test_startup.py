"""Start-up cost: only the Monte Carlo path loads numpy.

Importing numpy costs about 0.1 s of CPU and starts OpenBLAS threads, so every
command that never samples must leave it (and the thread pool module) unloaded.
Each check runs in a fresh interpreter, where ``sys.modules`` shows exactly
what the package and one command pulled in.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = ("numpy", "concurrent.futures")


def _loaded_after(body: str) -> set[str]:
    """Names in ``LAZY`` that are in ``sys.modules`` after running ``body``."""
    script = textwrap.dedent(body) + textwrap.dedent(
        f"""
        import sys
        print("loaded:" + ",".join(name for name in {LAZY!r} if name in sys.modules))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    last = result.stdout.splitlines()[-1]
    assert last.startswith("loaded:"), result.stdout
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
