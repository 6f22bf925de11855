"""Dense complex-matrix kernel shared by every other module.

Matrices are plain numpy arrays with dtype complex128. No public function
mutates its arguments, but an output may share an input's memory:
:func:`as_matrix` returns a complex128 input itself, and :func:`matrix_to_wire`
states the entries as a view of the matrix's buffer. :func:`dump_json` is
the one file writer and :func:`load_json` the one file reader.

:func:`validate_hermitian_psd` is the one PSD acceptance rule, and every
LAPACK call goes through ``_lapack``, the one place a LAPACK failure
becomes a :class:`NumericalError`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import mmap
import os
import re
import signal
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .errors import DomainError, NumericalError

__all__ = [
    "DEFAULT_TOL",
    "Tolerance",
    "dagger",
    "dump_json",
    "frobenius",
    "hermitian_eigvalues",
    "hermitian_part",
    "load_json",
    "matrix_from_json",
    "matrix_to_json",
    "matrix_to_wire",
    "psd_sqrt",
    "validate_hermitian_psd",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm as a Python float.

    ``np.linalg.norm`` squares the entries, so above about 1e154 it
    overflows; only then is the norm recomputed on the matrix scaled by a
    power of two (exact), so the common path is unchanged. An infinite entry gives inf.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
        if norm == np.inf and (top := np.max(np.abs(m))) < np.inf:
            exponent = np.frexp(top)[1]
            norm = float(np.ldexp(np.linalg.norm(np.asarray(m) * np.ldexp(1.0, -exponent)), exponent))
    return norm


def _skew_defect(m: np.ndarray) -> float:
    """``||M - M*||_F``, inf where the difference overflows."""
    with np.errstate(over="ignore"):
        return frobenius(m - dagger(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(M + M*)/2``, or ``M/2 + M*/2`` when the sum overflows, so every
    finite M gives a finite result. The sum is made in one C-ordered array,
    ``M*`` with M added in and halved in place: the bits, dtype and order of
    ``0.5 * (M + M*)``."""
    try:
        with np.errstate(over="raise"):
            h = np.conjugate(m.T, order="C")
            h += m
            h *= 0.5
            return h
    except FloatingPointError:
        return 0.5 * m + 0.5 * dagger(m)


_BLOCK = 64  # rows of a block of a product added in place (and its columns in measure_defects): 1 MB of rows at side 1024


def _blocks(side: int) -> list[slice]:
    """Slices of ``_BLOCK`` rows covering ``range(side)``, the last up to one row longer: numpy makes a product with one
    row or one column by a matrix-vector routine, whose sums run in another order than a matrix product's, so a block of
    two rows or more keeps each entry of a blocked product the whole product's, bit for bit."""
    edges = [*range(0, max(side - 1, 1), _BLOCK), side]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class Tolerance:
    """Absolute plus relative slack.

    The one pass rule, :meth:`allows`: an excess ``d`` (a defect, or lhs - rhs)
    measured on a quantity of scale ``s`` is acceptable iff ``d <= atol + rtol * |s|``.
    """

    atol: float = 1e-10
    rtol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 <= self.atol < np.inf and 0.0 <= self.rtol < np.inf):
            raise ValueError(f"tolerance components must be finite nonnegative reals, got atol={self.atol}, rtol={self.rtol}")

    def slack(self, scale: float = 0.0) -> float:
        return self.atol + self.rtol * abs(scale)

    def allows(self, excess, scale=0.0, name: str | None = None):
        """``excess <= slack(scale)``, componentwise; an excess or a slack that is
        not finite cannot be judged, so an overflow raises :class:`NumericalError`,
        led by the decision's ``name`` and the scale of its first such component.
        Every decision of the package names itself; ``name`` may be left out by
        other callers of this public rule, whose message then starts at "cannot"."""
        with np.errstate(over="ignore"):
            slack = self.slack(scale)
        unjudged = ~(np.isfinite(excess) & np.isfinite(slack))
        if unjudged.any():  # named by its first such component
            first = [np.broadcast_to(x, unjudged.shape)[unjudged][0] for x in (excess, slack, scale)]
            where = f"{name} at scale {first[2]:.6e}: " if name else ""
            raise NumericalError(where + "cannot judge an excess of {:.6e} against a slack of {:.6e}: not finite".format(*first))
        return excess <= slack


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _lapack(routine: str, a: np.ndarray, **kwargs):
    """``numpy.linalg.<routine>(a, **kwargs)``, looked up at call time; a
    LAPACK failure raises :class:`NumericalError`."""
    try:
        return getattr(np.linalg, routine)(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{routine} did not converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}") from exc


def as_square(m) -> np.ndarray:
    """:func:`as_matrix` of a square matrix; another shape raises :class:`DomainError`."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    return a


def validate_hermitian_psd(m, tol: Tolerance = DEFAULT_TOL, values=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The eigenpairs ``(values, vectors)`` of a PSD matrix, values
    non-increasing; a non-square, non-Hermitian or non-PSD input raises
    :class:`DomainError`. Given ``values``, M's spectrum as above, no
    eigensolve runs and ``vectors`` is None.

    Both rules are :meth:`Tolerance.allows` at scale ``||M||_F``, of the excess
    ``||M - M*||_F`` and of minus the smallest eigenvalue of the Hermitian
    part (returned as measured, not clamped), so an overflow is a :class:`NumericalError`.
    """
    a = as_square(m)
    scale = frobenius(a)
    skew = _skew_defect(a)
    if not tol.allows(skew, scale, "Hermitian test"):
        raise DomainError(f"matrix is not Hermitian within tolerance: ||M - M*||_F {skew:.6e} > {tol.slack(scale):.6e}")
    v = None
    if values is None:
        w, v = _lapack("eigh", hermitian_part(a))
        # non-increasing order, copied contiguous: the roots stay bit-for-bit stable
        values, v = w[::-1].copy(), v[:, ::-1].copy()
    smallest = float(values[-1])
    if not tol.allows(-smallest, scale, "PSD test"):
        raise DomainError(f"matrix is not PSD within tolerance: min eigenvalue {smallest:.6e} < {-tol.slack(scale):.6e}")
    return values, v


def hermitian_eigvalues(m) -> np.ndarray:
    """Eigenvalues of a square Hermitian matrix, non-increasing, no vectors.

    Only the lower triangle is read; a caller whose matrix may not be
    Hermitian passes its :func:`hermitian_part`."""
    return _lapack("eigvalsh", as_square(m))[::-1].copy()


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a matrix :func:`validate_hermitian_psd`
    accepts; eigenvalues within the slack below zero are clamped to zero
    before rooting."""
    values, v = validate_hermitian_psd(m, tol)
    roots = np.sqrt(np.clip(values, 0.0, None))
    return hermitian_part((v * roots) @ dagger(v))


def matrix_to_wire(m) -> dict:
    """Wire format: {"rows", "cols", "entries": [[re, im], ...]} row-major,
    with the entries as the matrix's own C-contiguous ``(rows*cols, 2)``
    float64 view, which :func:`dump_json` writes without building a Python
    float per entry."""
    a = np.ascontiguousarray(as_matrix(m))
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": a.view(np.float64).reshape(-1, 2)}


def matrix_to_json(m) -> dict:
    """:func:`matrix_to_wire` with the entries as plain lists, for stdlib
    ``json`` and ``==``."""
    obj = matrix_to_wire(m)
    obj["entries"] = obj["entries"].tolist()
    return obj


_NUMBER = {int, float}  # by exact type, so bool and str entries are rejected


def _malformed_entry(entries: list) -> ValueError:
    """The error naming the first bad entry; built on the rejection path only."""
    for i, pair in enumerate(entries):
        if not (type(pair) is list and len(pair) == 2 and {type(pair[0]), type(pair[1])} <= _NUMBER):
            return ValueError(f"malformed matrix entry at index {i}: expected a pair of numbers [re, im], got {pair!r:.60}")
        try:
            complex(pair[0], pair[1])
        except OverflowError as exc:
            return ValueError(f"malformed matrix entry at index {i}: {exc}")
    return ValueError("malformed matrix entries")


def _pairs(entries, count: int) -> np.ndarray:
    """The ``(count, 2)`` float64 array of ``entries``: such an array itself, or a list of ``count`` ``[re, im]``
    pairs of numbers; anything else raises ``ValueError``, naming the first bad entry."""
    if isinstance(entries, np.ndarray) and entries.dtype == np.float64 and entries.shape == (count, 2):
        return entries
    if not isinstance(entries, list) or len(entries) != count:
        raise ValueError(f"expected {count} entries, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    # exact-type checks in C-level passes, then one preallocated fill: np.array
    # over the nested lists would coerce [1.0, false] and peak at three times
    # the result's memory
    if (
        set(map(type, entries)) != {list}
        or set(map(len, entries)) != {2}
        or not set(map(type, chain.from_iterable(entries))) <= _NUMBER
    ):
        raise _malformed_entry(entries)
    try:
        return np.fromiter(chain.from_iterable(entries), np.float64, count=2 * count).reshape(count, 2)
    except OverflowError:
        raise _malformed_entry(entries) from None


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix wire format, validating shape and finiteness. The
    entries are a list of ``[re, im]`` pairs or a ``(rows*cols, 2)``
    float64 array, as :func:`matrix_to_wire` states them and :func:`load_json`
    leaves them."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except KeyError as exc:
        raise ValueError(f"malformed matrix JSON: missing {exc}") from exc
    if type(rows) is not int or type(cols) is not int:
        raise ValueError(f"matrix rows and cols must be integers, got {rows!r:.20} and {cols!r:.20}")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return as_matrix(np.ascontiguousarray(_pairs(entries, rows * cols)).view(np.complex128).reshape(rows, cols))


def _matrix_object_hook(obj: dict):
    """``json.loads`` object hook: an object's ``"entries"`` list of ``rows * cols`` pairs of numbers becomes its
    ``(rows*cols, 2)`` float64 array as the parser closes the object, so the parse holds one matrix's lists at a
    time; anything else stays as parsed, for :func:`matrix_from_json` to take or reject."""
    rows, cols = obj.get("rows"), obj.get("cols")
    if "entries" in obj and type(rows) is int and type(cols) is int:
        with contextlib.suppress(ValueError):
            obj["entries"] = _pairs(obj["entries"], rows * cols)
    return obj


# Bytes of entries text per orjson call in load_json, in whole [re, im] rows: one chunk's Python
# list of numbers (about 0.5 MB) is alive at a time, never a matrix's. Of 16 KB to 4 MB, 256 KB read fastest.
_READ_BYTES = 1 << 18
_MARGIN = 1 << 12  # read past _READ_BYTES for the row that crosses it: a written row takes at most 50 bytes
_ENTRIES = re.compile(rb'"entries"[ \t\n\r]*:[ \t\n\r]*\[')
_SPACE = b" \t\n\r"  # JSON whitespace
_NUMBER_TEXT = b"0123456789+-.eE" + _SPACE  # all a number and the space around it are written with


class _Unusual(ValueError):
    """A document the span reader of :func:`load_json` does not take."""


def _decode_entries(read, start: int, end: int, out: np.ndarray) -> None:
    """Fill ``out``, a ``(count, 2)`` float64 buffer, from the ``[[re, im], ...]`` text at bytes ``start:end`` that
    ``read(offset, size)`` returns, with the checks :func:`matrix_from_json` makes of a list. Each chunk of whole rows is
    cut from a window of ``_READ_BYTES`` plus a margin read at its offset (a window with no row end in its margin is
    unusual). Its numbers and spaces deleted, a chunk must leave the shape ``[,],...,[,]``. The text between its first
    two rows, ``]``, a comma and ``[`` with any spaces, is overwritten by a comma and spaces wherever it recurs, so that
    orjson, which takes only one RFC 8259 number that is a finite double between two commas, parses the chunk as one
    flat list: a row boundary written otherwise, or a number outside a row's brackets, leaves a bracket it rejects or
    nests. The chunks must fill the buffer exactly."""
    flat, filled, pos = out.reshape(-1), 0, start + 1
    while pos < end - 1:
        window = read(pos, min(_READ_BYTES + _MARGIN, end - 1 - pos))
        cut = window.find(b"],", _READ_BYTES) + 1 or end - 1 - pos  # after a row's "]", or the last row's
        if cut > len(window):  # no row ends in the window before the array does, or the file is now shorter
            raise _Unusual
        rows = window[:cut]
        shape = rows.translate(None, _NUMBER_TEXT)  # "[,],[,],...,[,]": k - 1 rows and a comma, then the last row
        if not (shape.endswith(b"[,]") and len(shape) % 4 == 3 and shape.count(b"[,],") == len(shape) // 4):
            raise _Unusual
        first = rows.find(b"]")
        between = rows[first : rows.find(b"[", first) + 1]  # empty for a single row
        if between:
            if between.translate(None, _SPACE) != b"],[":
                raise _Unusual
            rows = rows.replace(between, b"," + b" " * (len(between) - 1))  # in place: the lengths are equal
        values = np.array(orjson.loads(rows), np.float64)  # a third faster than assigning the list itself
        flat[filled : filled + len(values)] = values  # an overrun raises
        filled, pos = filled + len(values), pos + cut + 1
    if filled != flat.size:
        raise _Unusual


def _window_reader(file):
    """``read(offset, size)`` of ``file``: ``os.pread`` of its descriptor, which moves no offset, for a forked child
    shares the parent's; an in-memory file, which the child copies, is sought and read."""
    with contextlib.suppress(AttributeError, OSError):  # no descriptor, or no os.pread
        fd, pread = file.fileno(), os.pread
        return lambda offset, size: pread(fd, size, offset)

    def read(offset: int, size: int) -> bytes:
        file.seek(offset)
        return file.read(size)

    return read


def _running_cpu() -> int | None:
    """The CPU this process last ran on, field 39 of ``/proc/self/stat``; None where it cannot be read."""
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])  # fields 3 on follow the command name's ")"
    return None


def _decode_arrays(read, holders: list) -> None:
    """Replace each holder's span with its ``(rows*cols, 2)`` array, decoded from the windows ``read`` returns. The
    spans are shared out, longest first, each to the side with fewer bytes so far. Where ``os.fork`` exists, this process
    may run on more than one CPU and there is a second share, a forked child decodes it into one shared anonymous map,
    which its arrays view, while this process decodes the first. A forked child mostly stays on its parent's CPU, so it
    moves itself to the allowed CPUs other than the one this process runs on, where that CPU can be read and
    ``os.sched_setaffinity`` exists. The child calls no BLAS and leaves by ``os._exit``, 1 on any exception; it is always
    reaped here, and one that exits non-zero or dies by a signal makes the read unusual, as does a map or a process that
    cannot be had."""
    shares, load = ([], []), [0, 0]
    for holder in sorted(holders, key=lambda holder: holder["entries"][0] - holder["entries"][1]):
        start, end = holder["entries"]
        side = load[1] < load[0]
        shares[side].append((holder, start, end))
        load[side] += end - start
    mine, theirs = shares
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if not hasattr(os, "fork") or (allowed is not None and len(allowed) < 2):
        mine, theirs = mine + theirs, []
    pid, outs = None, []
    if theirs:
        cpu = _running_cpu() if hasattr(os, "sched_setaffinity") else None
        others = allowed - {cpu} if allowed and cpu in allowed else None
        counts = [holder["rows"] * holder["cols"] for holder, _, _ in theirs]
        try:
            shared = np.frombuffer(mmap.mmap(-1, 16 * sum(counts)), np.float64).reshape(-1, 2)
            outs = np.split(shared, np.cumsum(counts)[:-1])  # made before the fork: the child's first step is its try
            with warnings.catch_warnings():  # Python 3.12 warns of a fork beside threads, as OpenBLAS's: the child calls no BLAS
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            raise _Unusual from None
        if pid == 0:
            code = 1
            try:
                if others:
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, others)
                for (_, start, end), out in zip(theirs, outs):
                    _decode_entries(read, start, end, out)
                code = 0
            finally:
                os._exit(code)
    status = None
    try:
        for holder, start, end in mine:  # each buffer made as it fills: all made first left a long-lived process 3 MB larger
            holder["entries"] = np.empty((holder["rows"] * holder["cols"], 2))
            _decode_entries(read, start, end, holder["entries"])
        if pid:
            status = os.waitpid(pid, 0)[1]
    finally:
        if pid and status is None:  # this share failed or was interrupted: the child's is not wanted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status:  # the child exited non-zero or died by a signal
        raise _Unusual
    for (holder, _, _), out in zip(theirs, outs):
        holder["entries"] = out


def _find(read, pos: int, keep: list) -> int | None:
    """The end of the first ``_ENTRIES`` match at ``pos`` or after in the file that ``read(offset, size)`` returns, None if
    there is none; the bytes from ``pos`` up to there, or to the file's end, are appended to ``keep``. The file is read in
    windows of ``_READ_BYTES`` plus ``_MARGIN`` at their offset. A match found in a window is the match in the file: one
    that the window's end cuts runs on to it in spaces and colons, where no match starts. Where none is found, the next
    window starts where a cut match could begin, at least ``_READ_BYTES`` on: a window that ends in a longer run of spaces
    and colons is unusual."""
    size = _READ_BYTES + _MARGIN
    while not (match := _ENTRIES.search(window := read(pos, size))) and len(window) == size:  # a shorter one ends the file
        cut = len(window.rstrip(_SPACE + b":")) - len(b'"entries"')  # where a match cut by the window's end may begin
        if cut < _READ_BYTES:
            raise _Unusual
        keep.append(window[:cut])
        pos += cut
    stop = match.end() if match else len(window)
    keep.append(window[:stop])
    return pos + stop if match else None


def _rows_end(read, pos: int) -> int | None:
    """One past the last ``]`` before the first ``"`` or ``}`` at ``pos`` or after in the file that ``read(offset, size)``
    returns, None where the file ends first or no ``]`` comes before. The windows are searched by ``bytes.find`` a whole
    window at a time, and the last ``]`` seen is kept, for it may lie in an earlier window than the byte that stops the
    search. An array of ``[re, im]`` rows holds neither byte, and the object that holds it goes on with a comma and a key
    or ends with ``}``, so for such an array this is its end."""
    size, end = _READ_BYTES + _MARGIN, None
    while True:
        window = read(pos, size)
        quote = window.find(b'"')
        limit = len(window) if quote < 0 else quote
        brace = window.find(b"}", 0, limit)
        stop = limit if brace < 0 else brace
        if (bracket := window.rfind(b"]", 0, stop)) >= 0:
            end = pos + bracket + 1
        if stop < len(window):
            return end
        if len(window) < size:  # the file ends first
            return None
        pos += size


def _spans(read):
    """``(skeleton, spans)`` of the file that ``read(offset, size)`` returns: its bytes with each ``"entries"`` array's text
    a ``NaN`` token, and each array's ``(start, end)`` byte span, its end where :func:`_rows_end` says. Only the bytes
    between spans are kept. A file with no array, or an array with no end found, is unusual."""
    skeleton, spans, pos = [], [], 0
    while (key := _find(read, pos, skeleton)) is not None:
        skeleton[-1] = skeleton[-1][:-1] + b"NaN"  # the array's "[" becomes its placeholder
        if (pos := _rows_end(read, key)) is None:
            raise _Unusual
        spans.append((key - 1, pos))
    if not spans:  # nothing to gain
        raise _Unusual
    return b"".join(skeleton), spans


def _skeleton(text: bytes, spans: list):
    """The skeleton ``text`` that :func:`_spans` returns, parsed by ``json.loads`` with each ``NaN`` token the next of
    ``spans``, and the objects that hold a span; anything unusual raises ``ValueError``."""
    holders, unread = [], iter(spans)

    def constant(name: str):  # each NaN takes the next span, so a NaN of the document's own leaves one too many
        span = next(unread, None) if name == "NaN" else float(name)
        if span is None:
            raise _Unusual
        return span

    def hook(obj: dict):
        if "entries" in obj:
            span, rows, cols = obj["entries"], obj.get("rows"), obj.get("cols")
            # only a span is a tuple; rows * cols sizes its buffer, refused before allocating where the span's bytes
            # cannot hold it (a row takes at least the 5 of "[0,0]")
            if type(span) is not tuple or {type(rows), type(cols)} != {int} or min(rows, cols) < 1 or 5 * rows * cols > span[1] - span[0]:
                raise _Unusual
            holders.append(obj)
        return obj

    obj = json.loads(text.decode("utf-8"), object_hook=hook, parse_constant=constant)
    if len(holders) != len(spans):  # a span under another key, or dropped with a duplicate key
        raise _Unusual
    return obj, holders


def load_json(path, judge=None):
    """The JSON document in the UTF-8 file ``path`` as parsed, but for each ``"entries"`` array of ``rows * cols`` pairs of
    numbers, which becomes its ``(rows*cols, 2)`` float64 array for :func:`matrix_from_json` to make the matrix. Every
    parse runs with the cyclic collector paused: the parsed lists are acyclic.

    The span reader never holds the whole file (a pipe's is read into memory first): one search of windows read at their
    offset finds each ``"entries"`` array's span, ending at the last ``]`` before the next ``"`` or ``}`` (:func:`_spans`),
    the bytes between spans are kept, and ``json.loads`` parses that skeleton, each array's text a placeholder for its
    span (:func:`_skeleton`). ``judge``, if given, is called on the skeleton before any array is decoded, and what it raises
    reaches the caller as it was raised. Then orjson decodes each array in chunks of rows read at its offset
    (:func:`_decode_arrays`), whose shape check proves each span a rows array's text; where ``os.fork`` exists and the
    file holds two arrays or more, a forked child decodes about half the text. A file the span reader does not take, or
    whose size or modification time changed while it read, is read again and parsed whole by ``json.loads`` with an
    object hook that makes the same arrays; the caller's reader of the document makes every rejection. A document nested
    too deeply to parse raises ``ValueError``."""
    declined = (ValueError, TypeError, RecursionError, MemoryError)  # what sends a file to the whole-text reader
    enabled = gc.isenabled()
    gc.disable()
    try:
        with Path(path).open("rb") as disk:
            file = disk if disk.seekable() else io.BytesIO(disk.read())
            before, read = os.fstat(disk.fileno()), _window_reader(file)
            try:
                obj, holders = _skeleton(*_spans(read))
            except declined:
                pass
            else:
                if judge is not None:
                    judge(obj)
                with contextlib.suppress(*declined):
                    _decode_arrays(read, holders)
                    after = os.fstat(disk.fileno())
                    if (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns):
                        return obj
            file.seek(0)
            text = io.TextIOWrapper(io.BytesIO(file.read()), encoding="utf-8").read()  # as Path.read_text decodes it
        try:
            return json.loads(text, object_hook=_matrix_object_hook)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    finally:
        if enabled:
            gc.enable()


# Rows per orjson call in dump_json: orjson 3.8 holds an untraced tree of the rows it is given (+37 MB RSS for a 512 x 512
# matrix). Of 1024, 4096, 16384 and 65536 rows, 4096 was fastest (63-81 ms, 89-103 ms in one call), no RSS rise.
_CHUNK_ROWS = 4096


def _holds_matrix(obj) -> bool:
    """Whether a 2-D array is reachable from ``obj`` through dict values and the first items of lists."""
    if isinstance(obj, (dict, list)):
        return any(map(_holds_matrix, obj.values() if isinstance(obj, dict) else obj[:1]))
    return isinstance(obj, np.ndarray) and obj.ndim == 2


def _write_value(out, obj) -> None:
    """Write ``obj`` as ``orjson.dumps`` would, each 2-D array in row chunks and the rest in as few calls as that allows."""
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        out.write(b"[")
        for start in range(0, len(obj), _CHUNK_ROWS):
            out.write(b"," * (start > 0) + orjson.dumps(obj[start : start + _CHUNK_ROWS], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1])
        out.write(b"]")
    elif _holds_matrix(obj):  # a dict or a list, walked item by item
        keyed = isinstance(obj, dict)
        out.write(b"{" if keyed else b"[")
        for i, (key, value) in enumerate(obj.items() if keyed else enumerate(obj)):
            out.write(b"," * (i > 0) + (orjson.dumps(key) + b":" if keyed else b""))
            _write_value(out, value)
        out.write(b"}" if keyed else b"]")
    else:
        out.write(orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY))


def dump_json(path, payload: dict) -> None:
    """Write ``payload`` into the file ``path`` as ``orjson.dumps`` with ``OPT_SERIALIZE_NUMPY`` and ``OPT_APPEND_NEWLINE``
    writes it: compact single-line UTF-8 JSON of shortest round-trip floats, which any JSON reader reads exactly. It is
    streamed into the open file, each 2-D array (the entries :func:`matrix_to_wire` states) from its float64 buffer in
    chunks of ``_CHUNK_ROWS`` rows, so neither the file's whole text nor orjson's tree of a matrix is held; a failed write
    leaves the file cut short."""
    with open(path, "wb") as out:
        _write_value(out, payload)
        out.write(b"\n")
