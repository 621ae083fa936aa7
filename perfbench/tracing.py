"""In-process traced run: spans around the public functions of each module.

The wrappers are installed from the benchmark process and removed after
each traced cycle.  A function is replaced on every ``dynamap`` module that
holds it, which includes names bound with ``from ... import``, and
``numpy.linalg.eigh``/``eigvalsh`` are wrapped as the ``linalg`` layer
because most modules call the eigensolvers directly.  Spans are kept in
memory as ``[name, layer, start, end, parent, call_id, size]`` and written
out when the run ends; a span's self time is its duration minus the
durations of its children.  ``channels`` is on no CLI path and
``generators`` only draws sample states, so neither is wrapped.
"""

import functools
import importlib
import io
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np

import workloads

LAYERS = {
    "cli": ("cmd_decompose", "cmd_verify", "cmd_dilate", "cmd_witness", "cmd_extract"),
    "docio": ("parse_document", "encode_matrix", "canonical_json"),
    "maps": ("check_hermiticity_preserving", "check_tp", "check_cp", "choi_eigenvalues",
             "map_to_kraus", "kraus_to_map", "apply_map"),
    "cpsplit": ("cp_split", "verify_annihilation", "trace_functionals"),
    "extension": ("sector_choi_report", "reconstruct", "dimension_report"),
    "dilation": ("kraus_to_unitary", "dilation_round_trip", "unitarity_residual"),
    "entangled": ("induced_dynamics", "extension_witness"),
}
ERROR_LAYERS = ("docio", "maps", "cpsplit", "entangled")
EIG = "linalg.eig"
SWEEP_SIZES = (2, 4, 8, 16)
SWEPT = ("docio.parse_document", "cpsplit.cp_split", "extension.sector_choi_report",
         "dilation.kraus_to_unitary")


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    names = []
    for layer, funcs in LAYERS.items():
        for func in funcs:
            names += [(f"{layer}.{func}.calls", "count"), (f"{layer}.{func}.self_s", "s")]
    names += [("docio.parse_document.in_mb_per_s", "MB/s"), ("docio.report_mb", "MB"),
              (f"{EIG}.calls", "count"), (f"{EIG}.self_s", "s"), (f"{EIG}.side3", "count")]
    names += [(f"{layer}.errors", "count") for layer in ERROR_LAYERS]
    names += [("cli.child_cpu_s", "s"), ("cli.startup_s", "s"), ("trace.overhead", "ratio")]
    names += [(f"{key}.exp", "1") for key in SWEPT]
    return names


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = None
        self.errors = Counter()
        self._patches = []

    def _wrap(self, name, layer, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans = tracer.stack, tracer.spans
            # outside a traced call, or direct recursion (canonical_json)
            if tracer.call_id is None or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, 0.0, parent, tracer.call_id, size(args) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if parent < 0 or spans[parent][1] != layer:
                    tracer.errors[layer] += 1  # the exception leaves the layer
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        wrapped = {}
        for layer, funcs in LAYERS.items():
            try:
                mod = importlib.import_module(f"dynamap.{layer}")
            except ModuleNotFoundError:
                continue  # a missing module or function reports zero calls
            for func in funcs:
                fn = getattr(mod, func, None)
                if callable(fn):
                    size = (lambda a: len(a[0])) if func == "parse_document" else None
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{func}", layer, fn, size))
        try:
            for name, mod in list(sys.modules.items()):
                if name != "dynamap" and not name.startswith("dynamap."):
                    continue
                for attr, value in list(vars(mod).items()):
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            for attr in ("eigh", "eigvalsh"):
                fn = getattr(np.linalg, attr)
                self._patches.append((np.linalg, attr, fn))
                setattr(np.linalg, attr, self._wrap(EIG, "linalg", fn, lambda a: np.shape(a[0])[-1]))
            yield self
        finally:
            for mod, attr, value in reversed(self._patches):
                setattr(mod, attr, value)
            self._patches.clear()

    def self_times(self):
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, call_id, size in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, covered)]


def invoke(main, call):
    """Run ``dynamap.cli.main`` in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(call.argv())
        except Exception:  # an uncaught error is what a user would see as a traceback
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - start, out.getvalue().encode(), err.getvalue().encode()


def run_cycles(workload, budget_s, on_result):
    """Alternate untraced and traced passes over the cycle for ``budget_s``.

    ``on_result(call, code, wall, out, err)`` checks each result.  Returns
    the untraced and traced ``(call, wall, out_bytes)`` lists and the tracer.
    """
    from dynamap.cli import main

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < budget_s:
        for call in workload.calls:
            code, wall, out, err = invoke(main, call)
            on_result(call, code, wall, out, err)
            plain.append((call, wall, len(out)))
        with tracer.installed():
            for call in workload.calls:
                tracer.call_id = len(traced)
                code, wall, out, err = invoke(main, call)
                tracer.call_id = None
                on_result(call, code, wall, out, err)
                traced.append((call, wall, len(out)))
    return plain, traced, tracer


def layer_metrics(tracer, traced):
    """Per-function calls per invocation and median self time, plus the
    eigensolver, error and docio size metrics, from the traced pass."""
    n = len(traced)
    selfs = defaultdict(list)
    parse_bytes = parse_time = 0.0
    side3 = 0
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        selfs[span[0]].append(self_s)
        if span[0] == EIG:
            side3 += span[6] ** 3
        elif span[0] == "docio.parse_document":
            parse_bytes += span[6]
            parse_time += span[3] - span[2]
    values = {}
    for key in [f"{layer}.{func}" for layer, funcs in LAYERS.items() for func in funcs] + [EIG]:
        values[f"{key}.calls"] = len(selfs[key]) / n
        values[f"{key}.self_s"] = statistics.median(selfs[key]) if selfs[key] else 0.0
    values[f"{EIG}.side3"] = side3 / n
    values["docio.parse_document.in_mb_per_s"] = parse_bytes / 1e6 / parse_time if parse_time else 0.0
    values["docio.report_mb"] = sum(size for _, _, size in traced) / 1e6 / n
    for layer in ERROR_LAYERS:
        values[f"{layer}.errors"] = tracer.errors[layer] / n
    return values


def eig_breakdown(tracer, traced):
    """Eigensolves of the first traced invocation of each call label."""
    sides = defaultdict(Counter)
    for span in tracer.spans:
        if span[0] == EIG:
            sides[span[5]][span[6]] += 1
    seen = {}
    for call_id, (call, _, _) in enumerate(traced):
        seen.setdefault(call.label, dict(sorted(sides[call_id].items(), reverse=True)))
    return seen


def median_time(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def size_sweep(rng):
    """Median in-process time of the swept functions at each size, and the
    fitted exponent of time against N."""
    from dynamap.cpsplit import cp_split
    from dynamap.dilation import kraus_to_unitary
    from dynamap.docio import parse_document
    from dynamap.extension import sector_choi_report

    table = {key: [] for key in SWEPT}
    for n in SWEEP_SIZES:
        reps = 3 if n >= 16 else 7
        choi_raw = workloads.map_doc("sweep", workloads.generic_tp_choi(n, rng), n, rng).raw
        kraus_doc = parse_document(workloads.kraus_doc("sweep", n, n, rng).raw)
        doc = parse_document(choi_raw)
        split = cp_split(doc.linear_map, doc.tol)
        table["docio.parse_document"].append(median_time(lambda: parse_document(choi_raw), reps))
        # a fresh map per repetition, so cached verdicts are not reused
        maps = [parse_document(choi_raw).linear_map for _ in range(reps)]
        table["cpsplit.cp_split"].append(
            median_time(lambda: cp_split(maps.pop(), doc.tol), reps))
        table["extension.sector_choi_report"].append(median_time(
            lambda: [sector_choi_report(split, v, doc.tol) for v in ("literal", "symmetric")],
            reps))
        table["dilation.kraus_to_unitary"].append(
            median_time(lambda: kraus_to_unitary(kraus_doc.kraus, kraus_doc.tol), reps))
    logn = np.log(SWEEP_SIZES)
    exps = {f"{key}.exp": float(np.polyfit(logn, np.log(times), 1)[0])
            for key, times in table.items()}
    return table, exps
