"""Process entry of the ``dynamap`` CLI: ``python -m dynamap`` and the
``dynamap`` script both call :func:`main`.

A CLI process is set up before numpy loads.  The OpenBLAS that numpy wheels
bundle starts its thread pool when it loads, so ``OPENBLAS_NUM_THREADS=1``
is set first unless the environment chooses a count: at these sizes a
second thread saves nothing, and its spin-waits slow every solve whenever
other work shares the cores.  The process then freezes its heap before
exit, so the full collection of interpreter teardown skips the objects
that numpy and the layers leave tracked, and runs without the cyclic
garbage collector, whose automatic passes come mostly during imports.
The freeze pays most: the benchmark's 20 ``small_cli_mix`` calls, as
children over 12 alternating rounds (CPython 3.11, 2 cores), took 2.08 s
with neither, 2.03 s with the collector disabled, 1.90 s with the heap
frozen and 1.80 s with both; disabling alone raised peak RSS by about
0.2 MiB.  Library users and in-process callers of ``cli.main`` keep both
settings as they are.

Since numpy loads only after the arguments are parsed, ``cli._resolve``
can overlap the two longest stages of a ``decompose``, ``verify`` or
``dilate`` call on a large matrix document: for a file of at least
``cli._HELPER_BYTES`` (768 KiB) it forks a helper
(:class:`dynamap.compact.Helper`) that reads, hashes and parses the
document on another CPU while this process imports numpy and the layers of
its command.  The process reaps the helper before it goes on, so a
``wait4`` on it counts the helper's CPU time as its own.  In-process
callers, numpy loaded, never fork one.

When stdout refuses a report (a closed pipe, a full disk), ``cli.main``
says so on stderr and returns 1; the unwritten rest of the report is then
dropped by pointing file descriptor 1 at the null device, so interpreter
shutdown does not retry the write and print a second error.
"""

import gc
import os
import sys


def main() -> int:
    if not (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    gc.disable()
    try:
        from .cli import main as cli_main

        code = cli_main()
    finally:
        gc.freeze()
    try:
        if sys.stdout is not None:  # None: the process was started with stdout closed
            sys.stdout.flush()
    except OSError:  # the failed write is already reported
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
