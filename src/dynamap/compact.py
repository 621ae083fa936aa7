"""The compact matrix document, parsed without numpy: in the process that
uses it, or in a helper process forked before that process loads numpy.

A compact matrix document (``choi``, ``superop_a``, ``superop_b``) is
parsed one matrix row at a time by :func:`matrix_document`, without nested
lists.  Its one ``"data":[[[`` span is cut out and the rest of the
document, ``null`` in its place, is loaded and checked as usual.  The span
must be at least as long as the shortest ``(dim^2, dim^2, 2)`` array before
anything of that size is built.  Each row must have the skeleton of a
``(dim^2, 2)`` array once its number characters are deleted, so
whitespace, letters (``true``, ``null``, ``NaN``) and wrong shapes fail
there, and must be followed by ``,``, the last row by the span's closing
``]``.  A row's numbers, brackets blanked, are one flat ``json.loads``
list, so each keeps the JSON number grammar, and one ``array('d')`` of
exactly ``2 dim^2`` floats, written into a buffer the caller allocates.
The parse thus holds the raw bytes, that buffer and one row.  Any other
document, and any span that fails a check, returns ``None``, and the
caller takes the full path of :mod:`dynamap.docio`, which alone builds
error messages and tests that every entry is finite.

:class:`Helper` runs the same parse in a forked process.  The CLI starts
one before it loads numpy, for a document file of at least
``cli._HELPER_BYTES``, so that the read, the hash and the row parse run
on a second core while the CLI process imports numpy and its command's
layers.  The helper sends the SHA-256 digest of the bytes it read, the
rest of the document and the matrix as float64 bytes, all three or
nothing, and ends with ``os._exit``; the CLI process reaps it on every
path.

``sha256`` is CPython's builtin (``_sha2`` on 3.12 and later, ``_sha256``
on 3.10 and 3.11), so no process loads OpenSSL for a digest; ``hashlib``,
which gives the same digest, is imported only where neither exists.
"""

import json
import os

# hashlib always imports _hashlib, which loads OpenSSL's libcrypto; CPython's
# own SHA-256 module gives the same digest without it.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

MATRIX_KINDS = ("choi", "superop_a", "superop_b")
_BRACKETS = bytes.maketrans(b"[]", b"  ")


def matrix_document(raw: bytes, allocate):
    """``(doc, matrix)`` of a compact matrix document, ``doc`` holding
    ``null`` as its ``data`` and ``matrix = allocate(side)`` a writable,
    C-contiguous buffer of ``side x side`` complex numbers, filled; ``None``
    sends the document to the full path.

    The span is the value after the one ``"data"`` of the document: with no
    backslash in the rest, that string is the top-level key the loaded
    ``doc`` has.  Each row of the span ends in ``]]``.  Every row is parsed
    before ``doc`` is returned, so the caller's checks of ``doc`` run only
    on valid JSON, as on the full path.
    """
    start = raw.find(b'"data":[[[') + 7
    end = raw.find(b"]]]", start) + 3
    if start < 7 or end < 3 or raw.startswith(b"[[[[", start):  # none, or a Kraus stack
        return None
    rest = raw[:start] + b"null" + raw[end:]
    if b"\\" in rest or rest.count(b'"data"') != 1:
        return None
    try:
        doc = json.loads(rest.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or "data" not in doc or doc.get("kind") not in MATRIX_KINDS:
        return None
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        return None
    side = dim * dim
    # one character per number is the shortest such array: this bounds the
    # row skeleton and the matrix by the input size before either is built
    if end - start < 6 * side * side + 2 * side + 1:
        return None
    from array import array  # here: a module loaded by every process costs RSS

    skeleton = b"[" + b",".join([b"[,]"] * side) + b"]"
    width = 2 * side
    matrix = allocate(side)
    with memoryview(matrix).cast("B").cast("d") as floats:
        pos = start + 1
        for i in range(side):
            stop = raw.find(b"]]", pos, end) + 2
            if stop < 2 or not raw.startswith(b"]" if i == side - 1 else b",", stop):
                return None
            row = raw[pos:stop]
            if row.translate(None, b"0123456789.eE+-") != skeleton:
                return None
            try:
                values = array("d", json.loads("[%s]" % row.translate(_BRACKETS).decode()))
            except (ValueError, OverflowError):  # JSON number grammar, integers beyond a float
                return None
            if len(values) != width:
                return None
            floats[i * width:(i + 1) * width] = values
            pos = stop + 1  # a last row followed by "]" ends at the first "]]]", the span's end
    return doc, matrix


def _send(path: str, fd: int):
    """The helper's work: the digest, the rest and the matrix of the
    document at ``path`` down the pipe ``fd``, or nothing."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = sha256(raw).hexdigest()
    parsed = matrix_document(raw, lambda side: bytearray(16 * side * side))
    del raw
    if parsed is not None:
        doc, matrix = parsed
        rest = json.dumps(doc).encode()
        with open(fd, "wb") as pipe:
            pipe.write(b"%s %d\n%s" % (digest.encode(), len(rest), rest))
            pipe.write(matrix)


def _other_cpus() -> set:
    """The CPUs this process may run on, less the one it runs on now (field
    39 of ``/proc/self/stat``); empty where either cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, ValueError, IndexError):
        return set()


class Helper:
    """A forked process that reads the document at ``path``, hashes it and
    runs :func:`matrix_document` on it.  Fork it before numpy loads: the
    process has no threads then, and the helper never imports numpy.

    The helper keeps off the CPU its parent runs on.  A kernel may leave a
    forked child on its parent's CPU for the whole of its short life, the
    other CPU idle: on a 2-vCPU host, the parse of a 2.9 MB N=16 document
    and the import of numpy and the layers then took about 160 ms side by
    side on one CPU, and 90 to 125 ms with the helper kept off it."""

    def __init__(self, path: str):
        others = _other_cpus()
        read_end, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if self.pid == 0:
            try:
                os.close(read_end)
                if others:
                    os.sched_setaffinity(0, others)
                _send(path, write_end)
            finally:
                os._exit(0)  # nothing of the parent's exit runs here, whatever happened
        os.close(write_end)
        self._pipe = open(read_end, "rb")

    def receive(self, allocate):
        """``(digest, doc, matrix)``, ``matrix = allocate(side)`` filled with
        the helper's floats, or ``None`` when the helper sent nothing or
        ended before it sent all of it."""
        pipe = self._pipe
        header = pipe.readline()
        try:
            digest, size = header.split()
            doc = json.loads(pipe.read(int(size)))
        except ValueError:  # nothing sent
            return None
        matrix = allocate(doc["dim"] ** 2)
        with memoryview(matrix).cast("B") as view:
            got = 0
            while got < len(view):
                count = pipe.readinto(view[got:])
                if not count:
                    return None
                got += count
        return digest.decode(), doc, matrix

    def close(self):
        """Stop the helper, if it still runs, and reap it."""
        self._pipe.close()
        try:
            # SIGKILL, 9 on every POSIX system: the signal module costs an import
            os.kill(self.pid, 9)  # a helper that exited is a zombie until reaped
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):  # SIGCHLD ignored: the kernel reaped it
            pass
