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

Each array (map ``data``, the Kraus stack, ``state``, ``unitary``) is
converted by one ``np.array`` call on the loaded lists.  The result is
kept only when it is a real or integer array of the expected shape with
a trailing pair axis and finite entries; strings, ``null``, ragged rows,
out-of-range integers, ``NaN`` and infinities all fail that test.  Every
other array goes through a per-scalar walker, which alone reports errors
with the JSON path of the first offending entry.  ``np.array`` reads
``true``/``false`` as numbers, so a document whose bytes contain either
literal is walked in full.  Both paths give bit-identical arrays.

Reports are serialized by :func:`canonical_json`: keys sorted, no
whitespace, floats rendered with 17 significant digits.  Report values may
be numpy arrays; they are written as nested lists, complex entries as the
same ``[re, im]`` pairs the inputs use.  Identical inputs, seeds and tool
version therefore produce byte-identical reports.
"""

import hashlib
import json
import math

import numpy as np

from .entangled import JointPureState
from .linalg import ToleranceConfig
from .maps import KrausSet, LinearMap, from_a_form, kraus_to_map

MAP_KINDS = ("kraus", "choi", "superop_a", "superop_b")
ALL_KINDS = MAP_KINDS + ("joint_dynamics",)


class DocumentError(Exception):
    """Malformed input document; carries the JSON path of the offense."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ParsedDocument:
    """A validated input document.

    Exactly one of ``linear_map`` (for map kinds) or ``state`` (for
    ``joint_dynamics``) is populated; ``kraus`` and ``unitary`` are
    present when the document supplied them.
    """

    def __init__(self, kind, linear_map=None, kraus=None, state=None, unitary=None,
                 seed=None, tol=None, digest=""):
        self.kind = kind
        self.linear_map = linear_map
        self.kraus = kraus
        self.state = state
        self.unitary = unitary
        self.seed = seed
        self.tol = tol
        self.digest = digest


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
    goes through :func:`_walk`, which alone builds error messages.
    """
    if fast:
        try:
            pairs = np.array(node)
        except (ValueError, OverflowError):  # ragged rows, out-of-range integers
            pairs = None
        if (pairs is not None and pairs.dtype.kind in "fi" and pairs.shape == shape + (2,)
                and np.isfinite(pairs).all()):
            return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    return np.array(_walk(node, path, shape), dtype=complex)


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


def parse_document(raw: bytes) -> ParsedDocument:
    """Validate raw JSON bytes into a :class:`ParsedDocument`."""
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # decode errors, int digit limit, deep nesting
        raise DocumentError("$", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("$", "document must be a JSON object")
    # np.array reads true/false as 1/0 among numbers; such documents are walked
    fast = b"true" not in raw and b"false" not in raw

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
        amps = _complex_array(data["state"], "$.data.state", (ns * ne,), fast)
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise DocumentError("$.data.state", "state amplitudes are all zero")
        try:
            state = JointPureState((ns, ne), amps / norm)
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
        return ParsedDocument(kind, linear_map=linear_map, kraus=kraus,
                              seed=seed, tol=tol, digest=digest)

    side = dim * dim
    matrix = _complex_array(data, "$.data", (side, side), fast)
    if kind == "superop_a":
        linear_map = from_a_form(matrix)
    else:  # choi and superop_b are synonyms
        linear_map = LinearMap(matrix)
    return ParsedDocument(kind, linear_map=linear_map, seed=seed, tol=tol, digest=digest)


def _real_parts(m) -> np.ndarray:
    """A float array of ``m``, complex entries as a trailing ``[re, im]`` axis."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        m = np.stack((m.real, m.imag), axis=-1)
    return m.astype(float)


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact, 17-significant-digit floats.

    Floats and numpy arrays are written as nested lists of the
    :func:`_real_parts` encoding, checked once for finiteness and formatted
    in one pass.
    """
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating, np.ndarray)):
        real = _real_parts(value)
        if not np.isfinite(real).all():
            raise ValueError(f"cannot serialize non-finite floats: {value}")
        template = "%.17g"
        for size in reversed(real.shape):
            template = "[" + ",".join([template] * size) + "]"
        return template % tuple(real.ravel().tolist())
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(json.dumps(key) + ":" + canonical_json(value[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")
