"""Start-up cost: each command loads only the modules it runs.

Only the Monte Carlo path loads numpy: importing it costs about 0.1 s of CPU
and starts OpenBLAS threads, so every command that never samples must leave
it unloaded.  No command loads the thread pool module, ``sample --threads 2``
over several chunks included, and ``sample`` runs OpenBLAS on one thread
unless the caller chose a count.  ``import linkage_betti`` loads no
submodule, and each command loads its own engine and the standard modules
it renders with, not the others'.  Each check runs in a fresh interpreter,
where ``sys.modules`` and ``/proc/self/status`` show exactly what the package
and one command started.  No command loads ``dataclasses``, and only
``sample``, through numpy, loads ``inspect``.  None of ``averages``,
``simplexes``, ``slicing``, ``sampling`` and ``errors`` imports ``linkages``
anywhere in its syntax tree, so the expectation engines cannot come to load it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Mapping

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = ("numpy", "concurrent.futures")
SUBMODULES = tuple(
    f"linkage_betti.{path.stem}"
    for path in sorted((SRC / "linkage_betti").glob("*.py"))
    if path.stem != "__init__"
)


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


def _loaded_after(body: str, names: tuple[str, ...] = LAZY) -> set[str]:
    """Those of ``names`` that are in ``sys.modules`` after running ``body``."""
    script = textwrap.dedent(body) + textwrap.dedent(
        f"""
        import sys
        print("loaded:" + ",".join(name for name in {names!r} if name in sys.modules))
        """
    )
    last = _last_line(script, os.environ)
    assert last.startswith("loaded:"), last
    return set(filter(None, last[len("loaded:"):].split(",")))


def _command(*argv: str) -> str:
    """Script that runs ``python -m linkage_betti *argv``, output and exit code discarded."""
    return f"""
        import contextlib, io, runpy, sys

        sys.argv = ["linkage-betti", *{argv!r}]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            runpy.run_module("linkage_betti", run_name="__main__", alter_sys=True)
        """


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


def test_import_loads_no_submodule_until_a_public_name_is_used():
    last = _last_line(
        """
        import sys
        import linkage_betti

        loaded = [name for name in sys.modules if name.startswith("linkage_betti.")]
        listed = set(linkage_betti.__all__) <= set(dir(linkage_betti))
        namespace = {}
        exec("from linkage_betti import *", namespace)
        resolved = all(
            namespace[name] is getattr(linkage_betti, name) is not None
            for name in linkage_betti.__all__
        )
        print(loaded, listed, resolved, hasattr(linkage_betti, "no_such_name"))
        """,
        os.environ,
    )
    assert last == "[] True True False"


def test_version_loads_only_the_front_end():
    rendering = ("dataclasses", "fractions", "decimal", "json", "csv")
    loaded = _loaded_after(_command("--version"), SUBMODULES + rendering)
    front_end = {"linkage_betti.cli", "linkage_betti.errors"}
    assert front_end <= loaded <= front_end | {"linkage_betti.__main__"}


def test_slice_loads_only_its_engine():
    engines = ("linkage_betti.slicing", "linkage_betti.simplexes", "linkage_betti.linkages",
               "linkage_betti.averages", "linkage_betti.sampling")
    body = _command("slice", "--q", "-1,1,3")
    assert _loaded_after(body, engines) == {"linkage_betti.slicing"}


def test_betti_loads_neither_the_expectation_engines_nor_json():
    engines = ("linkage_betti.averages", "linkage_betti.sampling",
               "linkage_betti.simplexes", "linkage_betti.slicing", "json")
    body = _command("betti", "--lengths", "3,1,1,1,1", "--format", "csv")
    assert _loaded_after(body, engines + ("linkage_betti.linkages",)) == {"linkage_betti.linkages"}


@pytest.mark.parametrize(
    "argv",
    [
        ("--version",),
        ("betti", "--lengths", "3,1,1,1,1", "--format", "json"),
        ("average", "--n", "7", "--p", "1", "--measure", "cube"),
        ("convergence", "--p", "0", "--n-min", "3", "--n-max", "5", "--format", "csv"),
        ("slice", "--q", "-1,1,1,3"),
        ("sample", "--n", "5", "--p", "0", "--measure", "cube", "--samples", "100",
         "--threads", "1"),
    ],
    ids=lambda argv: argv[0].lstrip("-"),
)
def test_no_command_loads_dataclasses_and_only_sample_loads_inspect(argv):
    # the records are named tuples; ``dataclasses`` would pull in ``inspect``
    # and with it ``ast``, ``dis`` and ``tokenize``, while numpy loads
    # ``inspect`` by itself
    loaded = _loaded_after(_command(*argv), ("dataclasses", "inspect"))
    assert loaded == ({"inspect"} if argv[0] == "sample" else set())


@pytest.mark.parametrize(
    "argv",
    [
        ("average", "--n", "7", "--p", "1", "--measure", "simplex", "--format", "json"),
        ("convergence", "--p", "0", "--n-min", "3", "--n-max", "8", "--measure", "both"),
    ],
    ids=["average", "convergence"],
)
def test_expectations_load_neither_linkages_nor_slicing(argv):
    watched = ("linkage_betti.linkages", "linkage_betti.slicing", "linkage_betti.averages")
    assert _loaded_after(_command(*argv), watched) == {"linkage_betti.averages"}


def test_no_engine_module_imports_linkages():
    # ast.walk also reaches TYPE_CHECKING blocks and function bodies
    offenders = {}
    for module in ("averages", "simplexes", "slicing", "sampling", "errors"):
        tree = ast.parse((SRC / "linkage_betti" / f"{module}.py").read_text(encoding="ascii"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
        offenders[module] = [name for name in imported if "linkages" in name.split(".")]
    assert not any(offenders.values()), offenders


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


def test_sample_runs_its_chunks_without_a_thread_pool():
    # 70,000 samples are three chunks, so a pool of two threads would have work
    body = _command("sample", "--n", "6", "--p", "1", "--measure", "simplex",
                    "--samples", "70000", "--threads", "2")
    assert _loaded_after(body) == {"numpy"}


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
