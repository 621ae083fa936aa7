"""Reading map-specification documents and writing canonical reports.

Input documents are JSON objects with a ``kind`` discriminator:

* ``kraus``: ``dim``, ``data`` a list of dim x dim matrices, optional
  positive ``weights``.
* ``choi`` / ``superop_b``: ``dim``, ``data`` the dim^2 x dim^2 Choi
  matrix (output-row-major index grouping).
* ``superop_a``: ``dim``, ``data`` the superoperator on the row-major
  vectorized state; reshuffled to Choi form on load.
* ``joint_dynamics``: ``dims`` a pair, ``data`` an object with ``state``
  (amplitude vector) and optionally ``unitary`` (joint matrix).

Every complex scalar is encoded as a two-element array ``[re, im]``; no
string forms are accepted.  Documents may carry an optional nonnegative
integer ``seed`` and an optional ``tolerances`` object overriding
``zero_eig_rel`` and ``residual_abs``.

A compact matrix document (``choi``, ``superop_a``, ``superop_b``) is
parsed one matrix row at a time by :func:`dynamap.compact.matrix_document`,
which loads no numpy, into a preallocated complex matrix; the matrix is
kept when every entry is finite, and goes to ``LinearMap`` read-only,
uncopied.  The CLI may run that parse in a helper process forked before
numpy loads (see :mod:`dynamap.compact`) and hand its result to
:func:`received_document`; in-process callers, numpy loaded, never do.
Any other document, and any span that fails a check, takes the full path
below.

Each array (map ``data``, the Kraus stack, ``state``, ``unitary``) is
converted by one ``np.array`` call on the loaded lists.  The result is
kept only when it is a real or integer array of the expected size and
finite entries; strings, ``null``, ragged rows, out-of-range integers,
``NaN`` and infinities all fail that test.  Every other array goes
through a per-scalar walker, which alone reports errors with the JSON
path of the first offending entry.  ``np.array`` reads ``true``/``false``
as numbers, so a document whose bytes contain either literal is walked
in full.  All paths give bit-identical arrays.

Every report carries ``input_digest``, the SHA-256 hex digest of the
document's raw bytes as read, before any parsing, by the builtin hash
module that :mod:`dynamap.compact` imports, so no process loads OpenSSL
for it.

Reports are serialized by :func:`canonical_json`: keys sorted, no
whitespace, floats with 17 significant digits, a line end last.  Report
values may be numpy arrays, written as nested lists, complex entries as the
same ``[re, im]`` pairs the inputs use.  Identical inputs, seeds and tool
version therefore produce byte-identical reports.  :func:`canonical_text`
writes the same values as the ``key = value`` lines of ``--format text``.
Both check the whole report before they format any of it, then hand every
byte of it to a ``write`` callable, one first-axis entry of an array (a
matrix row, in any report) at a time, so a report is never held whole as
text and one that cannot be serialized writes nothing.
"""

import json
import math

import numpy as np

from .compact import MATRIX_KINDS, matrix_document, sha256
from .errors import DocumentError
from .linalg import ToleranceConfig, _unit_power, frob
from .maps import KrausSet, LinearMap, from_a_form, kraus_to_map

MAP_KINDS = ("kraus",) + MATRIX_KINDS
ALL_KINDS = MAP_KINDS + ("joint_dynamics",)


class ParsedDocument:
    """A validated input document.

    Exactly one of ``linear_map`` (for map kinds) or ``state`` (for
    ``joint_dynamics``) is populated; ``unitary`` is present when the
    document supplied it.
    """

    def __init__(self, kind, linear_map=None, state=None, unitary=None,
                 seed=None, tol=None, digest=""):
        self.kind = kind
        self.linear_map = linear_map
        self.state = state
        self.unitary = unitary
        self.seed = seed
        self.tol = tol
        self.digest = digest

    @property
    def kraus(self):  # a kraus document's operators; perfbench's size sweep reads them here
        return None if self.linear_map is None else self.linear_map.kraus


def _real_number(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise DocumentError(path, f"expected a real number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:
        raise DocumentError(path, "number is too large for a float") from None
    if not math.isfinite(value):
        raise DocumentError(path, "number is not finite")
    return value


def _complex_scalar(node, path):
    if not isinstance(node, list) or len(node) != 2:
        raise DocumentError(path, "complex scalar must be a two-element array [re, im]")
    return complex(_real_number(node[0], f"{path}[0]"), _real_number(node[1], f"{path}[1]"))


def _walk(node, path, shape):
    """Check ``node`` scalar by scalar against ``shape``, naming the first offense."""
    if not shape:
        return _complex_scalar(node, path)
    rows = len(shape) > 1
    if not isinstance(node, list):
        raise DocumentError(path, "expected an array of rows" if rows else "expected an array")
    if len(node) != shape[0]:
        raise DocumentError(
            path,
            f"expected {shape[0]} rows, got {len(node)}" if rows
            else f"expected length {shape[0]}, got {len(node)}",
        )
    return [_walk(entry, f"{path}[{i}]", shape[1:]) for i, entry in enumerate(node)]


def _complex_array(node, path, shape, fast):
    """A complex array of the given shape from nested ``[re, im]`` pairs.

    With ``fast``, one ``np.array`` call converts the whole node, and its
    result is taken when it is a real or integer array of shape
    ``shape + (2,)`` with finite entries.  Anything else, valid or not,
    goes through :func:`_walk`, which alone builds error messages.  Either
    result is read-only over memory no one else holds, so a map keeps it.
    """
    if fast:
        try:
            pairs = np.array(node)
        except (ValueError, OverflowError):  # ragged rows, out-of-range integers
            pairs = None
        if (pairs is not None and pairs.dtype.kind in "fi" and pairs.shape == shape + (2,)
                and np.isfinite(pairs).all()):
            real = np.ascontiguousarray(pairs, dtype=float)
            real.flags.writeable = False  # handed over: no one else holds it
            return real.view(complex)[..., 0]
    array = np.array(_walk(node, path, shape), dtype=complex)
    array.flags.writeable = False  # handed over: no one else holds it
    return array


def _positive_int(node, path):
    if isinstance(node, bool) or not isinstance(node, int) or node < 1:
        raise DocumentError(path, f"expected a positive integer, got {node!r}")
    return node


def _parse_tolerances(node, path):
    if node is None:
        return ToleranceConfig()
    if not isinstance(node, dict):
        raise DocumentError(path, "tolerances must be an object")
    known = {"zero_eig_rel", "residual_abs"}
    for key in node:
        if key not in known:
            raise DocumentError(f"{path}.{key}", "unknown tolerance field")
    kwargs = {k: _real_number(v, f"{path}.{k}") for k, v in node.items()}
    try:
        return ToleranceConfig(**kwargs)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _complex_matrix(side):
    return np.empty((side, side), dtype=complex)


def _finite(parsed):
    """``parsed``, a ``(doc, matrix)`` of the row parse, its matrix made
    read-only, when every entry is finite; else ``None``, the full path."""
    if parsed is None or not np.isfinite(parsed[1]).all():
        return None
    parsed[1].flags.writeable = False  # handed over: no one else holds it
    return parsed


def _matrix_document(raw: bytes):
    """``(doc, matrix)`` of a compact matrix document, ``doc`` holding
    ``null`` as its ``data`` and ``matrix`` read-only and owning its data,
    so ``LinearMap`` keeps it; ``None`` sends the document to the full path."""
    return _finite(matrix_document(raw, _complex_matrix))


def parse_document(raw: bytes) -> ParsedDocument:
    """Validate raw JSON bytes into a :class:`ParsedDocument`."""
    digest = sha256(raw).hexdigest()
    parsed = _matrix_document(raw)
    if parsed is not None:
        doc, matrix = parsed
        fast = True  # read only for the arrays of other kinds, which take the full path
    else:
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # decode errors, int digit limit, deep nesting
            raise DocumentError("$", f"not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise DocumentError("$", "document must be a JSON object")
        # np.array reads true/false as 1/0 among numbers; such documents are walked
        matrix, fast = None, b"true" not in raw and b"false" not in raw
    del raw, parsed  # the document's bytes, unless the caller holds them too
    return _checked(doc, matrix, fast, digest)


def received_document(helper):
    """The :class:`ParsedDocument` of what a :class:`dynamap.compact.Helper`
    sent, or ``None`` when it sent nothing or a matrix with a non-finite
    entry; the caller then reads and parses the document itself."""
    received = helper.receive(_complex_matrix)
    if received is None or _finite(received[1:]) is None:
        return None
    digest, doc, matrix = received
    return _checked(doc, matrix, True, digest)


def _checked(doc, matrix, fast, digest) -> ParsedDocument:
    """The checks of a loaded document ``doc`` and its parsed ``matrix``
    (``None`` for any but a compact matrix document); ``fast`` allows one
    ``np.array`` call per array."""
    kind = doc.get("kind")
    if kind not in ALL_KINDS:
        raise DocumentError("$.kind", f"kind must be one of {ALL_KINDS}, got {kind!r}")

    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise DocumentError("$.seed", f"seed must be a nonnegative integer, got {seed!r}")
    tol = _parse_tolerances(doc.get("tolerances"), "$.tolerances")

    if kind == "joint_dynamics":
        dims_node = doc.get("dims")
        if not isinstance(dims_node, list) or len(dims_node) != 2:
            raise DocumentError("$.dims", "joint_dynamics requires dims = [n_system, n_env]")
        ns = _positive_int(dims_node[0], "$.dims[0]")
        ne = _positive_int(dims_node[1], "$.dims[1]")
        data = doc.get("data")
        if not isinstance(data, dict):
            raise DocumentError("$.data", "joint_dynamics data must be an object")
        if "state" not in data:
            raise DocumentError("$.data.state", "missing state amplitudes")
        from .entangled import JointPureState

        amps = _complex_array(data["state"], "$.data.state", (ns * ne,), fast)
        if not amps.any():
            raise DocumentError("$.data.state", "state amplitudes are all zero")
        amps = amps * _unit_power(amps)  # exact, so that the norm divides at any scale
        try:
            state = JointPureState((ns, ne), amps / frob(amps))
        except ValueError as exc:
            raise DocumentError("$.data.state", str(exc)) from None
        unitary = None
        if "unitary" in data and data["unitary"] is not None:
            unitary = _complex_array(data["unitary"], "$.data.unitary", (ns * ne,) * 2, fast)
        return ParsedDocument(kind, state=state, unitary=unitary, seed=seed, tol=tol,
                              digest=digest)

    dim = doc.get("dim")
    dim = _positive_int(dim, "$.dim")
    data = doc.get("data")
    if kind == "kraus":
        if not isinstance(data, list) or not data:
            raise DocumentError("$.data", "kraus data must be a nonempty list of matrices")
        ops = _complex_array(data, "$.data", (len(data), dim, dim), fast)
        weights = None
        if "weights" in doc and doc["weights"] is not None:
            wnode = doc["weights"]
            if not isinstance(wnode, list) or len(wnode) != len(ops):
                raise DocumentError("$.weights", "weights must match the number of operators")
            weights = [_real_number(w, f"$.weights[{i}]") for i, w in enumerate(wnode)]
            if any(w <= 0 for w in weights):
                raise DocumentError("$.weights", "weights must be positive")
        kraus = KrausSet(ops, weights)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                linear_map = kraus_to_map(kraus)
        except ValueError as exc:  # finite entries whose Choi matrix overflows
            raise DocumentError("$.data", f"Choi matrix overflows: {exc}") from None
        return ParsedDocument(kind, linear_map=linear_map, seed=seed, tol=tol, digest=digest)

    side = dim * dim
    if matrix is None:
        matrix = _complex_array(data, "$.data", (side, side), fast)
    if kind == "superop_a":
        linear_map = from_a_form(matrix)
    else:  # choi and superop_b are synonyms
        linear_map = LinearMap(matrix)
    return ParsedDocument(kind, linear_map=linear_map, seed=seed, tol=tol, digest=digest)


def _real_parts(m) -> np.ndarray:
    """A float array of ``m``, complex entries as a trailing ``[re, im]`` axis
    (a view of a contiguous complex array, not a copy)."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        return np.ascontiguousarray(m, dtype=complex).view(float).reshape(m.shape + (2,))
    return np.asarray(m, dtype=float)


def _template(shape) -> str:
    """The ``%``-template of a float array of ``shape`` as nested lists."""
    template = "%.17g"
    for size in reversed(shape):
        template = "[" + ",".join([template] * size) + "]"
    return template


def _plan(value, out):
    """Append the pieces of ``value`` to ``out``: ready strings, and the
    :func:`_real_parts` array of each array of more than one row, formatted
    later.  Every check of the report happens here."""
    if value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating, np.ndarray)):
        real = _real_parts(value)
        if not np.isfinite(real).all():
            raise ValueError(f"cannot serialize non-finite floats: {value}")
        if real.ndim > 1 + np.iscomplexobj(value) and real.size:  # a complex row has 2 axes
            out.append(real)
        else:
            out.append(_template(real.shape) % tuple(real.ravel().tolist()))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, entry in enumerate(value):
            if i:
                out.append(",")
            _plan(entry, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(_sorted_keys(value)):
            out.append(("," if i else "") + json.dumps(key) + ":")
            _plan(value[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _sorted_keys(mapping) -> list:
    for key in mapping:
        if not isinstance(key, str):
            raise TypeError(f"report keys must be strings, got {key!r}")
    return sorted(mapping)


def _write(plan, write):
    """Format ``plan`` and pass it to ``write`` in chunks: each first-axis
    entry of a deferred array is one chunk, together with the small strings
    written since the previous entry."""
    pending = []
    for item in plan:
        if isinstance(item, str):
            pending.append(item)
            continue
        template = _template(item.shape[1:])
        for i, entry in enumerate(item):
            pending.append(("," if i else "[") + template % tuple(entry.ravel().tolist()))
            write("".join(pending))
            pending.clear()
        pending.append("]")
    if pending:
        write("".join(pending))


def canonical_json(value, write):
    """Deterministic JSON and a line end: sorted keys, compact, 17-significant-digit floats.

    Floats and numpy arrays are written as nested lists of the
    :func:`_real_parts` encoding.  The whole of ``value`` is checked first
    (non-finite floats raise ``ValueError``; non-``str`` keys and unknown
    types raise ``TypeError``), so a failure writes nothing.  The text is
    then formatted and passed to ``write`` in chunks, one first-axis entry
    of an array (a matrix row, in any report) each, so writing a report
    needs memory for one row of its text, not all of it.  To hold the text
    as one string, pass ``chunks.append`` and join ``chunks``.
    """
    plan = []
    _plan(value, plan)
    plan.append("\n")
    _write(plan, write)


def canonical_text(report, write):
    """Write the ``key = value`` lines of ``--format text`` to ``write``:
    one line per leaf of the nested dicts of ``report``, keys dotted and
    sorted, each value in :func:`canonical_json` form, its line end ending
    the line.  Checked and chunked like :func:`canonical_json`."""
    plan = []

    def leaves(prefix, value):
        if isinstance(value, dict):
            for key in _sorted_keys(value):
                leaves(f"{prefix}.{key}" if prefix else key, value[key])
        else:
            plan.append(f"{prefix} = ")
            _plan(value, plan)
            plan.append("\n")

    leaves("", report)
    _write(plan, write)
