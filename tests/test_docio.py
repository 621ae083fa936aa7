"""Whole-array parsing against a copy of the per-scalar walker it replaced.

The reference below is the array walker ``parse_document`` used before it
converted each array with one ``np.array`` call.  Patched into the parser in
place of ``_complex_array``, it gives the reference parse of a document:
every array must match it bit for bit, and every rejected document must
fail with the same JSON path and message.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamap import docio
from dynamap.docio import DocumentError, parse_document


def _ref_real_number(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise DocumentError(path, f"expected a real number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:
        raise DocumentError(path, "number is too large for a float") from None
    if not math.isfinite(value):
        raise DocumentError(path, "number is not finite")
    return value


def _ref_complex_scalar(node, path):
    if not isinstance(node, list) or len(node) != 2:
        raise DocumentError(path, "complex scalar must be a two-element array [re, im]")
    return complex(_ref_real_number(node[0], f"{path}[0]"),
                   _ref_real_number(node[1], f"{path}[1]"))


def _ref_vector(node, path, length):
    if not isinstance(node, list):
        raise DocumentError(path, "expected an array")
    if len(node) != length:
        raise DocumentError(path, f"expected length {length}, got {len(node)}")
    return np.array(
        [_ref_complex_scalar(entry, f"{path}[{i}]") for i, entry in enumerate(node)],
        dtype=complex,
    )


def _ref_matrix(node, path, rows, cols):
    if not isinstance(node, list):
        raise DocumentError(path, "expected an array of rows")
    if len(node) != rows:
        raise DocumentError(path, f"expected {rows} rows, got {len(node)}")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(node):
        out[i, :] = _ref_vector(row, f"{path}[{i}]", cols)
    return out


def _ref_complex_array(node, path, shape, fast):
    """The walker's calls for each shape: vectors, matrices, and a Kraus
    stack parsed one operator at a time."""
    if len(shape) == 1:
        return _ref_vector(node, path, shape[0])
    if len(shape) == 2:
        return _ref_matrix(node, path, *shape)
    return np.array([_ref_matrix(m, f"{path}[{i}]", *shape[1:]) for i, m in enumerate(node)])


def _outcome(raw: bytes):
    """Every array a parse holds, as dtype, shape and bytes, or the error."""
    try:
        doc = parse_document(raw)
    except DocumentError as exc:
        return ("error", exc.path, exc.message)
    arrays = {"unitary": doc.unitary}
    if doc.linear_map is not None:
        arrays["choi"] = doc.linear_map.choi
    if doc.kraus is not None:
        arrays["kraus"] = doc.kraus.operators
    if doc.state is not None:
        arrays["state"] = doc.state.amplitudes
    return {name: (a.dtype.str, a.shape, a.tobytes())
            for name, a in arrays.items() if a is not None}


def _reference_outcome(raw: bytes):
    with mock.patch.object(docio, "_complex_array", _ref_complex_array):
        return _outcome(raw)


KINDS = ("kraus", "choi", "superop_a", "joint_dynamics")


def _shapes(kind, dim):
    """Shapes of the arrays a document of ``kind`` holds, by JSON location."""
    if kind == "joint_dynamics":
        return {"state": (dim * 2,), "unitary": (dim * 2, dim * 2)}
    if kind == "kraus":
        return {"data": (2, dim, dim)}
    return {"data": (dim * dim, dim * dim)}


def _document(kind, dim, arrays):
    if kind == "joint_dynamics":
        return {"kind": kind, "dims": [dim, 2], "data": arrays}
    return {"kind": kind, "dim": dim, "data": arrays["data"]}


def _raw(doc, literals=()):
    """JSON bytes of ``doc``; each string ``"@k"`` becomes the bare literal
    ``literals[k]``, for numbers ``json.dumps`` cannot write."""
    text = json.dumps(doc)
    for k, literal in enumerate(literals):
        text = text.replace(f'"@{k}"', literal)
    return text.encode()


_EDGE_ENTRIES = [0.1, -1.0 / 3.0, 3, -7, -0.0, 5e-324, 2 ** 53 + 1, 0, 1e150]


def _edge_pairs(shape):
    count = math.prod(shape)
    flat = [[_EDGE_ENTRIES[(2 * i) % len(_EDGE_ENTRIES)],
             _EDGE_ENTRIES[(2 * i + 1) % len(_EDGE_ENTRIES)]] for i in range(count)]
    return np.array(flat, dtype=object).reshape(shape + (2,)).tolist()


def _edge_document(kind, dim=2):
    arrays = {name: _edge_pairs(shape) for name, shape in _shapes(kind, dim).items()}
    if kind == "joint_dynamics":  # a state of unit order, so its norm stays finite
        arrays["state"] = [[1, -0.0], [0.5, 5e-324], [2 ** 53 + 1, 0], [-0.0, -3]]
    return _document(kind, dim, arrays)


@pytest.mark.parametrize("kind", KINDS)
def test_whole_array_parse_is_bitwise_the_walker_parse(kind):
    raw = _raw(_edge_document(kind))

    def no_walk(*args):
        raise AssertionError("a valid document without true/false took the walker")

    with mock.patch.object(docio, "_walk", no_walk):
        got = _outcome(raw)
    want = _reference_outcome(raw)
    assert isinstance(got, dict) and got == want
    assert set(got) >= ({"state", "unitary"} if kind == "joint_dynamics" else {"choi"})


@pytest.mark.parametrize("kind", KINDS)
def test_a_true_or_false_anywhere_sends_the_document_to_the_walker(kind):
    doc = _edge_document(kind)
    whole = _outcome(_raw(doc))
    doc["note"] = "true"  # bytes of the literal, though no bool is parsed
    with mock.patch.object(docio, "_walk", wraps=docio._walk) as walk:
        walked = _outcome(_raw(doc))
    assert walk.called
    assert whole == walked


def test_a_bool_among_floats_is_rejected_at_its_path():
    data = np.zeros((4, 4, 2)).tolist()
    data[0][1][0] = True
    raw = _raw({"kind": "choi", "dim": 2, "data": data})
    with pytest.raises(DocumentError) as info:
        parse_document(raw)
    assert str(info.value) == "$.data[0][1][0]: expected a real number, got bool"
    assert _outcome(raw) == _reference_outcome(raw)


def _corrupt(node, index, value):
    """Copy of a nested list with the entry at the index path replaced, or
    unchanged when an earlier replacement removed that path."""
    node = json.loads(json.dumps(node))
    target = node
    for i in index[:-1]:
        target = target[i] if isinstance(target, list) and i < len(target) else None
    if isinstance(target, list) and index[-1] < len(target):
        target[index[-1]] = value
    return node


# (index path into the first array, replacement, extra bare literals)
_BAD_ENTRIES = {
    "bool": ((0, 1, 0), True, ()),
    "false": ((1, 0, 1), False, ()),
    "string": ((0, 0, 1), "1.0", ()),
    "null": ((1, 1, 0), None, ()),
    "ragged_row": ((1,), "@0", ("[[1, 0]]",)),
    "wrong_length_scalar": ((0, 1), [1.0], ()),
    "three_element_scalar": ((0, 1), [1.0, 2.0, 3.0], ()),
    "nan": ((0, 0, 0), "@0", ("NaN",)),
    "infinity": ((1, 0, 0), "@0", ("-Infinity",)),
    "overflow_float": ((0, 1, 1), "@0", ("1e400",)),
    "huge_integer": ((1, 1, 1), 10 ** 400, ()),
    "scalar_not_array": ((0, 0), 1.0, ()),
    "row_not_array": ((0,), 1.0, ()),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", sorted(_BAD_ENTRIES))
def test_rejected_arrays_keep_the_walker_path_and_message(kind, bad):
    index, value, literals = _BAD_ENTRIES[bad]
    doc = _edge_document(kind)
    if kind == "joint_dynamics":
        doc["data"]["unitary"] = _corrupt(doc["data"]["unitary"], index, value)
    else:  # in a Kraus stack, corrupt the second operator
        doc["data"] = _corrupt(doc["data"], (1,) + index if kind == "kraus" else index, value)
    raw = _raw(doc, literals)
    got, want = _outcome(raw), _reference_outcome(raw)
    assert got == want
    assert got[0] == "error"


def test_oversized_integer_alone_keeps_its_message():
    raw = b'{"kind": "choi", "dim": 1, "data": [[[%s, 0]]]}' % (b"9" * 400)
    assert _outcome(raw) == ("error", "$.data[0][0][0]", "number is too large for a float")
    assert _reference_outcome(raw) == _outcome(raw)


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2 ** 64), 2 ** 64),
    st.sampled_from([-0.0, 5e-324, 2 ** 53 + 1, 2 ** 63 + 1, 0]),
)
_ODD = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["", "1", "true"]),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, 2 ** 70]),
    st.lists(_NUMBERS, max_size=3),
    st.dictionaries(st.just("re"), _NUMBERS, max_size=1),
)


def _draw_array(data, shape):
    if not shape:
        return [data.draw(_NUMBERS), data.draw(_NUMBERS)]
    return [_draw_array(data, shape[1:]) for _ in range(shape[0])]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # norms of huge states
@settings(max_examples=150)
@given(st.data())
def test_parse_matches_the_walker_on_drawn_nested_lists(data):
    kind = data.draw(st.sampled_from(KINDS))
    dim = data.draw(st.integers(1, 2))
    arrays = {name: _draw_array(data, shape) for name, shape in _shapes(kind, dim).items()}
    for _ in range(data.draw(st.integers(0, 2))):
        name = data.draw(st.sampled_from(sorted(arrays)))
        shape = _shapes(kind, dim)[name] + (2,)
        depth = data.draw(st.integers(1, len(shape)))
        index = tuple(data.draw(st.integers(0, size - 1)) for size in shape[:depth])
        arrays[name] = _corrupt(arrays[name], index, data.draw(_ODD))
    raw = _raw(_document(kind, dim, arrays))
    assert _outcome(raw) == _reference_outcome(raw)
