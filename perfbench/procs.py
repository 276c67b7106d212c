"""Run one child process and collect its output and resource use."""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ProcResult:
    returncode: int | None  # None when the process was killed at its deadline
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_process(argv: list[str], env: dict[str, str], timeout: float) -> ProcResult:
    """Run ``argv`` to completion; CPU and max RSS come from ``wait4`` on the child alone."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    for stream in chunks:
        stream.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        returncode=None if killed else proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode(),
        stderr=b"".join(chunks[proc.stderr]).decode(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
    )
