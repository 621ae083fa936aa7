#!/usr/bin/env python3
"""End-to-end benchmark of the ``dynamap`` CLI with a traced in-process run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ncp_split_n16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Untraced (``--trace 0``), the benchmark drives the CLI as users do: a
closed loop with one client and one child process at a time, each child a
fresh ``python -m dynamap <command> <file>`` on the working tree
(``PYTHONPATH=src``), timed from spawn to exit.  It repeats whole cycles of
the workload's calls until ``--seconds`` have passed, checks every report
(see ``checks.py``) and prints:

* ``setup_s``: median wall time of ``dynamap --version``, run about
  fourteen times spread over the loop: interpreter start, ``import
  dynamap`` and the argparse build, paid on every call.
* ``wall_s.p50``: median wall time per invocation.
* ``wall_s.tail``: the highest percentile that still has ten samples
  beyond it; its rank and the sample count are printed beside it.  A run
  takes at least 20 samples, even past ``--seconds``, so this is at least
  the 50th percentile.
* ``docs_per_s``: correct invocations per second of loop time, which is
  the sum of the invocations' wall times (the checks run between calls).
* ``success_rate``: share of attempted invocations that passed every
  check, i.e. one minus the error rate.  A failure is a wrong exit code, a
  traceback, a missing ``error:`` line or a failed check.
* ``peak_rss_mb``: highest max-RSS of any child, in MiB.

Traced (``--trace 1``), it runs a shorter untraced loop for the child CPU
time, then alternates untraced and traced in-process passes over the same
documents through ``dynamap.cli.main`` (see ``tracing.py``), then a size
sweep, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when a
report contradicts a check; failed operations that produce no wrong report
(such as a traceback on an input the CLI should reject) count only in
``failed``.  Scratch files go to ``.perfbench_work/`` in the checkout.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_SLOTS = 12
TAIL_BEYOND = 10


@dataclass
class ChildResult:
    code: int
    wall: float
    cpu: float
    rss_kb: int
    out: bytes
    err: bytes


class Spawner:
    """Client of ``launcher.py``, which runs one child at a time and waits
    for each; used as a context manager so the launcher always ends."""

    def __init__(self):
        self.out = WORK / "stdout"
        self.err = WORK / "stderr"
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH="src"))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.proc.terminate()  # the launcher kills and reaps a running child
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        for path in (self.out, self.err):
            path.unlink(missing_ok=True)

    def run(self, argv):
        request = {"argv": argv, "out": str(self.out), "err": str(self.err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited unexpectedly")
        res = json.loads(line)
        return ChildResult(res["code"], res["wall"], res["cpu"], res["rss_kb"],
                           self.out.read_bytes(), self.err.read_bytes())

    def version(self):
        res = self.run(["--version"])
        if res.code != 0 or not res.out.startswith(b"dynamap"):
            raise RuntimeError(f"dynamap --version failed: {res.err.decode(errors='replace')}")
        return res


class Tally:
    """Attempted, failed and wrong-output counts, with failures by check."""

    def __init__(self, seed):
        self.attempted = self.failed = 0
        self.correct = True
        self.by_check = {}
        self.rng = np.random.default_rng([seed % 2**63, 99])

    def check(self, call, code, out, err):
        failed, wrong = checks.check(call, code, out, err, self.rng)
        self.attempted += 1
        if failed:
            self.failed += 1
            self.correct &= not wrong
            for name in failed:
                key = f"{call.label}: {name}"
                self.by_check[key] = self.by_check.get(key, 0) + 1
        return not failed


def loop(spawner, workload, seconds, tally, min_samples, setup=None):
    """Whole cycles until about ``seconds`` have passed: a new cycle starts
    only while less than half a mean cycle remains to be run past the end.

    With a ``setup`` list, ``dynamap --version`` runs at the start, at the
    end and about every ``seconds / SETUP_SLOTS`` in between, so that its
    median spans the same machine state as the loop; its time is not loop
    time.
    """
    results = []
    cycle_times = []
    start = last_setup = time.perf_counter()
    if setup is not None:
        setup.append(spawner.version().wall)
    while (not cycle_times or len(results) < min_samples
           or time.perf_counter() - start + statistics.mean(cycle_times) / 2 < seconds):
        cycle_start = time.perf_counter()
        for call in workload.calls:
            res = spawner.run(call.argv())
            results.append((call, res, tally.check(call, res.code, res.out, res.err)))
            if setup is not None and time.perf_counter() - last_setup >= seconds / SETUP_SLOTS:
                setup.append(spawner.version().wall)
                last_setup = time.perf_counter()
        cycle_times.append(time.perf_counter() - cycle_start)
    if setup is not None:
        setup.append(spawner.version().wall)
    return results


def by_label(pairs):
    """Group ``(call, value)`` pairs into lists keyed by the call's label."""
    groups = {}
    for call, value in pairs:
        groups.setdefault(call.label, []).append(value)
    return groups


def tail(values):
    """The highest sample with ``TAIL_BEYOND`` samples above it, and its
    percentile rank."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} (from {var})"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"{fn()} (OpenBLAS default)"
    return "unknown"


def blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def calibration():
    """Ungated timings of fixed work, to make machine drift visible."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
    h = g + g.conj().T
    return {"eigvalsh400_s": tracing.median_time(lambda: np.linalg.eigvalsh(h), 5),
            "python_loop_s": tracing.median_time(lambda: sum(i * i for i in range(200_000)), 5)}


def run_record(workload, seed, seconds, trace):
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas_name(), "blas_threads": blas_threads(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "input_sha256": {doc.name: doc.digest for doc in workload.docs},
    }


def write_docs(workload):
    for doc in workload.docs:
        path = WORK / f"{doc.name}.json"
        path.write_bytes(doc.raw)
        doc.path = str(path.relative_to(ROOT))


def end_to_end(workload, seconds, tally):
    setup = []
    with Spawner() as spawner:
        spawner.version()  # untimed: the first run in a checkout compiles bytecode
        # at least twice TAIL_BEYOND samples, so the tail is at least p50
        results = loop(spawner, workload, seconds, tally, 2 * TAIL_BEYOND, setup)

    walls = [res.wall for _, res, _ in results]
    ok = sum(passed for _, _, passed in results)
    tail_value, tail_rank = tail(walls)
    print(f"{len(walls)} invocations in {sum(walls):.3f} s of loop time; median wall per call:")
    for label, times in by_label((call, res.wall) for call, res, _ in results).items():
        print(f"  {statistics.median(times):9.4f} s  x{len(times):<3d} {label}")
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} --version runs"),
        "wall_s.p50": (statistics.median(walls), "s", f"median of {len(walls)} samples"),
        "wall_s.tail": (tail_value, "s", f"p{tail_rank:.1f} of {len(walls)} samples"),
        "docs_per_s": (ok / sum(walls), "1/s", f"{ok} correct in {sum(walls):.3f} s"),
        "success_rate": (ok / len(results), "ratio", f"{ok} of {len(results)}"),
        "peak_rss_mb": (max(res.rss_kb for _, res, _ in results) / 1024, "MiB",
                        f"max of {len(results)} children"),
    }
    return metrics


def per_layer(workload, seconds, tally, seed):
    with Spawner() as spawner:
        spawner.version()
        results = loop(spawner, workload, seconds / 3, tally, min_samples=1)
    child_wall = by_label((call, res.wall) for call, res, _ in results)

    sys.path.insert(0, str(ROOT / "src"))
    plain, traced, tracer = tracing.run_cycles(
        workload, seconds / 2, lambda call, code, wall, out, err: tally.check(call, code, out, err))
    values = tracing.layer_metrics(tracer, traced)
    values["cli.child_cpu_s"] = statistics.median(res.cpu for _, res, _ in results)
    in_process = by_label((call, wall) for call, wall, _ in plain)
    values["cli.startup_s"] = statistics.median(
        statistics.median(child_wall[label]) - statistics.median(in_process[label])
        for label in child_wall)
    values["trace.overhead"] = (sum(w for _, w, _ in traced) / sum(w for _, w, _ in plain)) - 1
    table, exps = tracing.size_sweep(np.random.default_rng([seed % 2**63, 7]))
    values.update(exps)

    print(f"traced {len(traced)} and untraced {len(plain)} in-process invocations; "
          f"{len(tracer.spans)} spans")
    print("eigensolves per invocation (side: count):")
    for label, sides in tracing.eig_breakdown(tracer, traced).items():
        print(f"  {sum(sides.values()):4d}  {sides}  {label}")
    print("size sweep, median seconds at N = " + ", ".join(map(str, tracing.SWEEP_SIZES)) + ":")
    for key, times in table.items():
        print(f"  {key}: " + ", ".join(f"{t:.6f}" for t in times))
    spans_path = WORK / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"labels": [c.label for c, _, _ in traced],
                                      "spans": tracer.spans}))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    units = dict(tracing.metric_names())
    return {name: (values[name], units[name], "") for name, _ in tracing.metric_names()}


def run_one(name, seed, seconds, trace, tally):
    workload = workloads.build(name, seed)
    write_docs(workload)
    print(f"== {name} seed={seed} seconds={seconds} trace={trace}")
    print("record " + json.dumps(run_record(workload, seed, seconds, trace), sort_keys=True))
    print("calibration start " + json.dumps(calibration()))
    try:
        if trace:
            metrics = per_layer(workload, seconds, tally, seed)
        else:
            metrics = end_to_end(workload, seconds, tally)
    finally:
        for doc in workload.docs:
            Path(doc.path).unlink(missing_ok=True)
    print("calibration end " + json.dumps(calibration()))
    for key, count in sorted(tally.by_check.items()):
        print(f"FAILED x{count}: {key}")
    width = max(map(len, metrics))
    for metric, (value, unit, note) in metrics.items():
        print(f"  {metric:<{width}}  {value:14.6g} {unit:<6} {note}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dynamap" / "__main__.py").is_file():
        print(f"error: no dynamap source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    # unwind on SIGTERM too, so the launcher and its child are stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tally = Tally(args.seed)
    if args.workload != "all":
        metrics = run_one(args.workload, args.seed, args.seconds, args.trace, tally)
    else:  # every workload, end to end and, with --trace 1, traced as well
        metrics = {}
        for name in workloads.WORKLOADS:
            for trace in sorted({0, args.trace}):
                found = run_one(name, args.seed, args.seconds, trace, tally)
                metrics.update({f"{name}/{key}": value for key, value in found.items()})
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
