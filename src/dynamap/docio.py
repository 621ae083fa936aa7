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


def _vector(node, path, length):
    if not isinstance(node, list):
        raise DocumentError(path, "expected an array")
    if len(node) != length:
        raise DocumentError(path, f"expected length {length}, got {len(node)}")
    return np.array(
        [_complex_scalar(entry, f"{path}[{i}]") for i, entry in enumerate(node)],
        dtype=complex,
    )


def _matrix(node, path, rows, cols):
    if not isinstance(node, list):
        raise DocumentError(path, "expected an array of rows")
    if len(node) != rows:
        raise DocumentError(path, f"expected {rows} rows, got {len(node)}")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(node):
        out[i, :] = _vector(row, f"{path}[{i}]", cols)
    return out


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
        amps = _vector(data["state"], "$.data.state", ns * ne)
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise DocumentError("$.data.state", "state amplitudes are all zero")
        try:
            state = JointPureState((ns, ne), amps / norm)
        except ValueError as exc:
            raise DocumentError("$.data.state", str(exc)) from None
        unitary = None
        if "unitary" in data and data["unitary"] is not None:
            unitary = _matrix(data["unitary"], "$.data.unitary", ns * ne, ns * ne)
        return ParsedDocument(kind, state=state, unitary=unitary, seed=seed, tol=tol,
                              digest=digest)

    dim = doc.get("dim")
    dim = _positive_int(dim, "$.dim")
    data = doc.get("data")
    if kind == "kraus":
        if not isinstance(data, list) or not data:
            raise DocumentError("$.data", "kraus data must be a nonempty list of matrices")
        ops = [_matrix(mat, f"$.data[{i}]", dim, dim) for i, mat in enumerate(data)]
        weights = None
        if "weights" in doc and doc["weights"] is not None:
            wnode = doc["weights"]
            if not isinstance(wnode, list) or len(wnode) != len(ops):
                raise DocumentError("$.weights", "weights must match the number of operators")
            weights = [_real_number(w, f"$.weights[{i}]") for i, w in enumerate(wnode)]
            if any(w <= 0 for w in weights):
                raise DocumentError("$.weights", "weights must be positive")
        kraus = KrausSet(ops, weights)
        return ParsedDocument(kind, linear_map=kraus_to_map(kraus), kraus=kraus,
                              seed=seed, tol=tol, digest=digest)

    side = dim * dim
    matrix = _matrix(data, "$.data", side, side)
    if kind == "superop_a":
        linear_map = from_a_form(matrix)
    else:  # choi and superop_b are synonyms
        linear_map = LinearMap(matrix)
    return ParsedDocument(kind, linear_map=linear_map, seed=seed, tol=tol, digest=digest)


def _real_parts(m) -> np.ndarray:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        m = np.stack((m.real, m.imag), axis=-1)
    return m.astype(float)


def encode_matrix(m) -> list:
    """Encode an array as nested lists of floats, complex entries as [re, im]."""
    return _real_parts(m).tolist()


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact, 17-significant-digit floats.

    Floats and numpy arrays are written as :func:`encode_matrix` encodes
    them, checked once for finiteness and formatted in one pass.
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
