"""Whole-array parsing against a copy of the per-scalar walker it replaced.

The reference below is the array walker ``parse_document`` used before it
converted each array with one ``np.array`` call.  Patched into the parser in
place of ``_complex_array``, it gives the reference parse of a document:
every array must match it bit for bit, and every rejected document must
fail with the same JSON path and message.
"""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    if doc.linear_map is not None and doc.linear_map.kraus is not None:
        arrays["kraus"] = doc.linear_map.kraus.operators
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


# --- compact matrix documents: the list-light path against the full path ---

MATRIX_KINDS = ("choi", "superop_a", "superop_b")


def _compact(doc, literals=()):
    """Compact JSON bytes of ``doc``, literals substituted as in :func:`_raw`."""
    text = json.dumps(doc, separators=(",", ":"))
    for k, literal in enumerate(literals):
        text = text.replace(f'"@{k}"', literal)
    return text.encode()


def _full_path_outcome(raw: bytes):
    with mock.patch.object(docio, "_matrix_document", lambda raw: None):
        return _outcome(raw)


def _matrix_doc(kind="choi", dim=2, data=None, **extra):
    side = dim * dim
    if data is None:
        data = _edge_pairs((side, side))
    return {"kind": kind, "dim": dim, "data": data, **extra}


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_compact_matrix_parse_is_bitwise_the_full_parse(kind):
    # ints, -0, -0.0, 5e-324, 2**53 + 1 and 1e150 among floats
    data = _edge_pairs((4, 4))
    data[3][3] = ["@0", "@1"]
    raw = _compact(_matrix_doc(kind, data=data, seed=5), ("-0", "2e-308"))
    assert b"-0," in raw and b"5e-324" in raw and str(2 ** 53 + 1).encode() in raw
    assert docio._matrix_document(raw) is not None

    def no_walk(*args):
        raise AssertionError("a compact matrix document took the walker")

    with mock.patch.object(docio, "_walk", no_walk), \
            mock.patch.object(docio, "_complex_array", no_walk):
        got = _outcome(raw)
    assert isinstance(got, dict) and got == _full_path_outcome(raw) == _reference_outcome(raw)


def _integer_pairs(extra):
    data = [[[i - j, (i * j) % 3] for j in range(4)] for i in range(4)]
    data[2][1][1] = extra
    return data


# each integer is converted as float() converts it, also in a row of integers
# above 2**63 alone, which numpy would hold as uint64
@pytest.mark.parametrize("data", [_integer_pairs(0), _integer_pairs(2 ** 63 + 1),
                                  [[[2 ** 63 + 1, 2 ** 64 - 1]]]],
                         ids=["int64", "above_2_63", "above_2_63_alone"])
def test_compact_integer_matrix_is_converted_like_the_full_parse(data):
    raw = _compact(_matrix_doc(dim=round(len(data) ** 0.5), data=data))
    assert docio._matrix_document(raw) is not None
    assert _outcome(raw) == _full_path_outcome(raw) == _reference_outcome(raw)


def _duplicate(first, second):
    return b'{"kind":"choi","dim":1,"data":%s,"data":%s}' % (first, second)


def _rows(dim, rows, after_rows=b"", rest=b""):
    """A compact ``choi`` document whose ``data`` rows hold the given pair
    texts; ``after_rows`` precedes the closing bracket of ``data``."""
    data = b",".join(b"[%s]" % b",".join(row) for row in rows)
    return b'{"kind":"choi","dim":%d,"data":[%s%s]%s}' % (dim, data, after_rows, rest)


def _counted_rows(*counts):
    """Rows holding ``counts`` pairs each, the pairs numbered in order."""
    pairs = [b"[%d,%d]" % (k, -k) for k in range(sum(counts))]
    return [pairs[sum(counts[:i]):sum(counts[:i + 1])] for i in range(len(counts))]


# documents the list-light path hands to the full path: (raw, is it valid)
_FALLBACKS = {
    "whitespace": (_raw(_matrix_doc()), True),
    "duplicate_data_null_last": (_duplicate(b"[[[1,0]]]", b"null"), False),
    "duplicate_data_array_last": (_duplicate(b"5", b"[[[1,0]]]"), True),
    "duplicate_data_both_arrays": (_duplicate(b"[[[1,0]]]", b"[[[2,0]]]"), True),
    "key_ending_in_escaped_data":
        (b'{"kind":"choi","dim":1,"x\\"data":[[[1,0]]],"data":[[[2,0]]]}', True),
    "escaped_data_key_alone": (b'{"kind":"choi","dim":1,"x\\"data":[[[1,0]]]}', False),
    "unicode_escaped_top_level_data": (
        b'{"kind":"choi","dim":1,"\\u0064ata":null,"meta":{"data":[[[1,0]]]}}', False),
    "nested_data_alone": (b'{"kind":"choi","dim":1,"meta":{"data":[[[1,0]]]}}', False),
    "nested_data_and_top_level":
        (b'{"kind":"choi","dim":1,"meta":{"data":[[[1,0]]]},"data":[[[2,0]]]}', True),
    "true": (_compact(_matrix_doc(data=_corrupt(_edge_pairs((4, 4)), (1, 2, 0), True))), False),
    "null": (_compact(_matrix_doc(data=_corrupt(_edge_pairs((4, 4)), (0, 3, 1), None))), False),
    "nan": (_compact(_matrix_doc(data=_corrupt(_edge_pairs((4, 4)), (2, 2, 0), "@0")),
                     ("NaN",)), False),
    "too_few_rows": (_compact(_matrix_doc(data=_edge_pairs((3, 4)))), False),
    "too_many_rows": (_compact(_matrix_doc(data=_edge_pairs((5, 4)))), False),
    "three_element_pair":
        (_compact(_matrix_doc(data=_corrupt(_edge_pairs((4, 4)), (0, 1), [1, 2, 3]))), False),
    "overflow_float": (_compact(_matrix_doc(data=_corrupt(_edge_pairs((4, 4)), (3, 0, 1), "@0")),
                                ("1e400",)), False),
    "huge_integer": (_compact(_matrix_doc(data=[[[10 ** 400, 0]]], dim=1)), False),
    "not_json_number": (b'{"kind":"choi","dim":1,"data":[[[01,0]]]}', False),
    "empty_number": (b'{"kind":"choi","dim":1,"data":[[[,0]]]}', False),
    "dim_zero": (b'{"kind":"choi","dim":0,"data":[[[1,0]]]}', False),
    "kraus_kind": (b'{"kind":"kraus","dim":1,"data":[[[1,0]]]}', False),
    "kraus_stack": (b'{"kind":"kraus","dim":1,"data":[[[[1,0]]],[[[0,1]]]]}', True),
    "unterminated": (b'{"kind":"choi","dim":1,"data":[[[1,0]]', False),
    # the right number of pairs, one row a pair short and its neighbour a pair long
    "row_break_early": (_rows(2, _counted_rows(3, 5, 4, 4)), False),
    "row_break_late": (_rows(2, _counted_rows(4, 4, 5, 3)), False),
    # a later "]]]" makes the span run past the trailing comma
    "last_row_then_comma_dim_1": (_rows(1, _counted_rows(1), b",", b',"x":[[[0]]]'), False),
    "last_row_then_comma_dim_2": (_rows(2, _counted_rows(4, 4, 4, 4), b",", b',"x":[[[0]]]'),
                                  False),
    "bad_row_skeleton_dim_1": (_rows(1, [[b"[1]", b"[0]"]]), False),
    "bad_row_skeleton_dim_2":
        (_rows(2, _counted_rows(4, 4) + [[b"[1,0,2]", b"[0]", b"[3,0]", b"[4,0]"]]
               + _counted_rows(4)), False),
    "whitespace_in_last_row_dim_2":
        (_rows(2, _counted_rows(4, 4, 4) + [[b"[1, 0]", b"[2,0]", b"[3,0]", b"[4,0]"]]), True),
}


@pytest.mark.parametrize("name", sorted(_FALLBACKS))
def test_irregular_compact_documents_take_the_full_path(name):
    raw, valid = _FALLBACKS[name]
    assert docio._matrix_document(raw) is None
    got = _outcome(raw)
    assert got == _full_path_outcome(raw)
    assert isinstance(got, dict) == valid


def test_header_errors_of_compact_documents_match_the_full_path():
    for doc in (_matrix_doc(seed=-3), _matrix_doc(tolerances={"zero_eig_rel": 2.0}),
                _matrix_doc(kind="choi ")):
        raw = _compact(doc)
        got = _outcome(raw)
        assert got[0] == "error" and got == _full_path_outcome(raw)


@settings(max_examples=150)
@given(st.data())
def test_compact_parse_matches_the_full_path_on_drawn_matrices(data):
    kind = data.draw(st.sampled_from(MATRIX_KINDS))
    dim = data.draw(st.integers(1, 2))
    shape = (dim * dim, dim * dim)
    array = _draw_array(data, shape)
    for _ in range(data.draw(st.integers(0, 1))):
        depth = data.draw(st.integers(1, 3))
        index = tuple(data.draw(st.integers(0, size - 1)) for size in (shape + (2,))[:depth])
        array = _corrupt(array, index, data.draw(_ODD))
    raw = _compact(_matrix_doc(kind, dim, array))
    assert _outcome(raw) == _full_path_outcome(raw)


def test_compact_matrix_parse_peak_stays_below_eight_matrices():
    # N=16: 2.6 MB of text for one complex 256 x 256 matrix (1 MiB); the
    # nested lists of the full parse peaked at 12 such matrices traced
    unit = 256 * 256 * 16
    pairs = np.random.default_rng(3).standard_normal((256, 256, 2))
    raw = _compact(_matrix_doc(dim=16, data=pairs.tolist()))
    tracemalloc.start()
    try:
        doc = parse_document(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.linear_map.choi.view(float).tobytes() == pairs.tobytes()
    assert peak < 8 * unit


def test_compact_matrix_parse_holds_one_matrix_and_keeps_it():
    # one row of numbers at a time: the matrix is the only N^4 array built
    unit = 256 * 256 * 16
    pairs = np.random.default_rng(5).standard_normal((256, 256, 2))
    raw = _compact(_matrix_doc(dim=16, data=pairs.tolist()))
    matrix_document = docio._matrix_document
    returned = []

    def recording(raw):
        returned.append(matrix_document(raw))
        return returned[-1]

    with mock.patch.object(docio, "_matrix_document", recording):
        tracemalloc.start()
        try:
            doc = parse_document(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    choi = doc.linear_map.choi
    assert choi is returned[0][1] and choi.flags.owndata and not choi.flags.writeable
    assert choi.view(float).tobytes() == pairs.tobytes()
    assert peak < 2 * unit


@pytest.mark.parametrize("walked", [False, True], ids=["whole_array", "walker"])
@pytest.mark.parametrize("name", ["ncp_family_05_choi.json", "amplitude_damping_kraus.json"])
def test_full_parse_hands_its_array_over_uncopied(name, walked):
    # the indented fixtures take the full path; a true anywhere walks every array
    raw = (Path(__file__).parent / "fixtures" / name).read_bytes()
    if walked:
        raw = raw.replace(b"{", b'{"note": true,', 1)
    assert docio._matrix_document(raw) is None
    complex_array = docio._complex_array
    returned = []

    def recording(*args):
        returned.append(complex_array(*args))
        return returned[-1]

    with mock.patch.object(docio, "_complex_array", recording):
        linear_map = parse_document(raw).linear_map
    held = linear_map.choi if linear_map.kraus is None else linear_map.kraus.operators
    assert np.shares_memory(held, returned[0]) and not held.flags.writeable


def test_parsed_document_kraus_is_its_maps_kraus_set():
    # perfbench's size sweep dilates ``doc.kraus``
    from dynamap.dilation import kraus_to_unitary

    fixtures = Path(__file__).parent / "fixtures"
    doc = parse_document((fixtures / "amplitude_damping_kraus.json").read_bytes())
    assert doc.kraus is doc.linear_map.kraus is not None
    assert parse_document((fixtures / "ncp_family_05_choi.json").read_bytes()).kraus is None
    assert kraus_to_unitary(doc.kraus, doc.tol).unitary.shape == (4, 4)


def test_huge_dim_compact_document_is_refused_before_anything_of_its_size():
    raw = b'{"kind":"choi","dim":100000,"data":[[[1,0]]]}'
    tracemalloc.start()
    try:
        assert docio._matrix_document(raw) is None
        got = _outcome(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ("error", "$.data", "expected 10000000000 rows, got 1")
    assert peak < 2 ** 20


_FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
_REFUSED = {"bad_complex.json", "bad_dim.json"}  # invalid documents carry no digest


@pytest.mark.parametrize("path", _FIXTURES, ids=lambda path: path.name)
def test_digest_is_the_hashlib_sha256_of_every_fixture(path):
    raw = path.read_bytes()
    want = hashlib.sha256(raw).hexdigest()
    assert docio.sha256(raw).hexdigest() == want
    if path.name in _REFUSED:
        with pytest.raises(DocumentError):
            parse_document(raw)
    else:
        assert parse_document(raw).digest == want


@example(b"")  # empty input: no document, but still hashed before parsing
@given(st.binary(max_size=2048))
def test_digest_of_any_bytes_is_the_hashlib_sha256(raw):
    assert docio.sha256(raw).hexdigest() == hashlib.sha256(raw).hexdigest()


@given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=256))
def test_digest_of_a_drawn_document_is_the_hashlib_sha256(note):
    # an unknown top-level key is ignored, so any text can ride in one
    raw = json.dumps({"kind": "kraus", "dim": 1, "data": [[[[1, 0]]]], "note": note},
                     ensure_ascii=False).encode()
    assert parse_document(raw).digest == hashlib.sha256(raw).hexdigest()
