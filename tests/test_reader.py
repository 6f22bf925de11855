"""The file reader against the reader it replaces.

``kernel.load_json`` decodes each ``"entries"`` array with orjson in chunks
of rows and hands everything it does not take to ``json.loads`` with the
matrix hook, whole. Over a corpus of values, layouts, matches split by the
edge of a window the skeleton's scan reads, and malformed files, both
readers give the same arrays to the last bit, and ``verify`` and
``check`` the same exit code, stdout, stderr and report (timestamp aside).
``verify`` judges the certificate's header on the skeleton before any
array is decoded, so where the skeleton parses, a bad header is named
before a number the whole-text reader cannot parse: the one place the
two differ. Each parity test runs on both decode paths: with
``os.fork``, about half of every file's arrays decoded in a forked child
where two CPUs or more are allowed, and without it, every array in one
process. The skeleton ends each array at the last ``]`` before the next
``"`` or ``}``, found in one search: the corpus holds bytes that cut
that search short, and ends split at a window's edge.
"""

import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import orjson
import pytest

from psdblocks import (
    BlockMatrix,
    GeneratorSpec,
    MalformedCertificateError,
    block_matrix_to_json,
    certificate_to_json,
    load_json,
    matrix_to_json,
    random_block_psd,
    two_block_isometries,
)
from psdblocks import cli, decompose, kernel
from psdblocks.decompose import _certificate_header
from test_cli import pythonpath


def reference_load(path, judge=None):
    """The reader before spans: the whole text through ``json.loads`` with
    the matrix hook, the collector paused; then ``judge``, which the CLI's
    reader calls on the skeleton, on the whole document."""
    text = Path(path).read_text(encoding="utf-8")
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = json.loads(text, object_hook=kernel._matrix_object_hook)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    finally:
        if enabled:
            gc.enable()
    if judge is not None:
        judge(obj)
    return obj


MARK = 12345.0  # an entry the corpus rewrites; its text is "12345.0" in every layout


def certificate():
    h = random_block_psd(GeneratorSpec(seed=5, alpha=2, n=3, rank=3))
    obj = certificate_to_json(two_block_isometries(h))
    obj["target"]["entries"][7] = [MARK, 0.5]
    return obj


def instance():
    """A ``gen`` payload: the matrix keys beside block_dim, block_count and config."""
    obj = block_matrix_to_json(random_block_psd(GeneratorSpec(seed=5, alpha=2, n=3, rank=3)))
    obj["config"] = {"command": "gen", "seed": 5, "timestamp": "t"}
    return obj


def random_values():
    """An instance whose entries are random float64 bit patterns, with both
    zeros, the least subnormal, a subnormal and both largest finite values."""
    bits = np.random.default_rng(22).integers(0, 2**64, size=2 * 64, dtype=np.uint64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 1.5)
    bits[:6] = [0.0, -0.0, 5e-324, 2.2250738585072e-309, 1.7976931348623157e308, -1.7976931348623157e308]
    return block_matrix_to_json(BlockMatrix(bits.view(np.complex128).reshape(8, 8), block_dim=4, block_count=2))


def reversed_keys(obj):
    if isinstance(obj, dict):
        return {key: reversed_keys(obj[key]) for key in reversed(obj)}
    if isinstance(obj, list):
        return [reversed_keys(x) for x in obj]
    return obj


def with_extra_factor_key(obj):
    obj["factors"][1]["note"] = "not a wire key"
    return obj


def with_target_count(rows, cols):
    """The certificate with a target of four pairs that states ``rows`` x ``cols``."""
    return {**certificate(), "target": {"rows": rows, "cols": cols, "entries": [[1.0, 0.0]] * 4}}


def with_own_nan_before_spans():
    """A target of the factors' shape whose entries are the file's own ``NaN``, and after the factors an array under the key
    ``x "entries``: were each placeholder read in order, every array would slide one matrix up and still fit."""
    obj = certificate()
    factor = obj["factors"][-1]
    obj["target"] = {"rows": factor["rows"], "cols": factor["cols"], "entries": "own"}
    obj["z"] = {'x "entries': factor["entries"]}
    return dumped(obj).replace(b'"own"', b"NaN")


def dumped(obj) -> bytes:
    return json.dumps(obj).encode()


# The target's bytes in json.dumps layout, what they become, and the index in it of the first byte past a window's edge.
EDGES = {
    "key": (b'"entries": [', b'"entries": [', 5),
    "key_then_colon": (b'"entries": [', b'"entries": [', 9),
    "colon_then_space": (b'"entries": [', b'"entries": [', 10),
    "space_then_bracket": (b'"entries": [', b'"entries": [', 11),
    "rows_end": (b"]]", b"]]", 1),
    "spaced_rows_end_before_space": (b"]]", b"] ]", 1),
    "spaced_rows_end_after_space": (b"]]", b"] ]", 2),
    "key_space_past_the_margin": (b'"entries": [', b'"entries":' + b" " * (kernel._MARGIN + 1) + b"[", 10 + kernel._MARGIN // 2),
    "rows_space_past_the_margin": (b"]]", b"]" + b" " * (kernel._MARGIN + 1) + b"]", 1 + kernel._MARGIN // 2),
    # the array's closing "]" ends a window, and the "}" or '"' that stops the search for it starts the next
    "rows_end_then_brace": (b"]]}", b"]]}", 2),
    "rows_end_then_key": (b"]]}", b']],"note":1}', 2),
    "rows_end_space_then_brace": (b"]]}", b"]]  }", 3),
    "rows_end_space_then_key": (b"]]}", b']]  ,"note":1}', 3),
}


def across_edge(name: str) -> bytes:
    """The certificate in ``json.dumps`` layout, its target rewritten as ``EDGES[name]`` says, with spaces put where the
    search for the match reads its first window, before the document or before the target's first row, so that the
    window's end, ``_READ_BYTES`` plus ``_MARGIN`` on as they are when this is called, falls at the split."""
    (old, new, split), size, key = EDGES[name], kernel._READ_BYTES + kernel._MARGIN, b'"entries": ['
    text = dumped(certificate())
    at = text.index(old, text.index(key))
    start = 0 if old == key else text.index(key) + len(key)
    text = text[:start] + b" " * (start + size - at - split) + text[start:at] + new + text[at + len(old) :]
    assert text[start + size - split : start + size - split + len(new)] == new
    return text


def marked(token: str, before=f"{MARK}") -> bytes:
    """The certificate in ``json.dumps`` layout with the marked text replaced."""
    text = dumped(certificate())
    assert text.count(before.encode()) == 1
    return text.replace(before.encode(), token.encode())


CORPUS = {
    # values
    "random_bits_compact": lambda: orjson.dumps(random_values()),
    "random_bits_default": lambda: dumped(random_values()),
    "minus_zero_integer": lambda: marked("-0"),
    "exponent_upper_plus": lambda: marked("1E+5"),
    "exponent_leading_zero": lambda: marked("1e05"),
    "integer_rounding_tie": lambda: marked(str(2**64 + 2**11)),
    "integer_past_the_tie": lambda: marked(str(2**64 + 2**11 + 1)),
    "integer_in_uint64": lambda: marked(str(2**64 - 1)),
    "long_decimal": lambda: marked("0.1000000000000000055511151231257827021181583404541015625"),
    # layouts
    "orjson_compact": lambda: orjson.dumps(certificate()),
    "json_dumps_default": lambda: dumped(certificate()),
    "indent_2": lambda: json.dumps(certificate(), indent=2).encode(),
    "keys_reversed": lambda: dumped(reversed_keys(certificate())),
    "factor_with_extra_key": lambda: dumped(with_extra_factor_key(certificate())),
    "bare_matrix": lambda: dumped(matrix_to_json(np.eye(3))),
    "matrix_under_config": lambda: dumped({**certificate(), "config": {"m": matrix_to_json(np.eye(2))}}),
    "instance_compact": lambda: orjson.dumps(instance()),
    "instance_default": lambda: dumped(instance()),
    "crlf_indent": lambda: json.dumps(certificate(), indent=1).replace("\n", "\r\n").encode(),
    "row_past_the_margin": lambda: marked(f"{MARK}" + " " * (kernel._MARGIN + 1)),  # in one-byte chunks, read whole
    "entries_last_then_brace": lambda: orjson.dumps(matrix_to_json(np.eye(3))),  # "]]}" ends the file
    # rejections
    "nan_entry": lambda: marked("NaN"),
    "infinity_entry": lambda: marked("Infinity"),
    "overflowing_decimal": lambda: marked("1e999"),
    "overflowing_integer": lambda: marked(str(10**400)),
    "plus_sign": lambda: marked("+1"),
    "leading_zero": lambda: marked("01"),
    "bare_point": lambda: marked("1."),
    "no_leading_digit": lambda: marked(".5"),
    "true_entry": lambda: marked("true"),
    "null_entry": lambda: marked("null"),
    "string_entry": lambda: marked('"12345.0"'),
    "one_element_pair": lambda: marked(f"[{MARK}]", f"[{MARK}, 0.5]"),
    "three_element_pair": lambda: marked(f"[{MARK}, 0.5, 1.0]", f"[{MARK}, 0.5]"),
    "nested_pair": lambda: marked(f"[{MARK}, [0.5]]", f"[{MARK}, 0.5]"),
    "brace_in_row": lambda: marked(f"[{MARK}, {{}}]", f"[{MARK}, 0.5]"),  # ends the first search for the array's end early
    "pair_too_few": lambda: marked("", f", [{MARK}, 0.5]"),
    "pair_too_many": lambda: marked(f"[{MARK}, 0.5], [1.0, 0.0]", f"[{MARK}, 0.5]"),
    # a number outside a row's brackets, which deleting the brackets would join to a number or an empty slot
    "number_after_row": lambda: marked(f"[{MARK}, 0.5]5", f"[{MARK}, 0.5]"),
    "number_before_row": lambda: marked(f"5[{MARK}, 0.5]", f"[{MARK}, 0.5]"),
    "number_after_empty_slot": lambda: marked(f"[{MARK}, ]0.5", f"[{MARK}, 0.5]"),
    "number_before_empty_slot": lambda: marked(f"{MARK}[, 0.5]", f"[{MARK}, 0.5]"),
    "rows_apart_with_space": lambda: marked(f"[{MARK}, 0.5] ,", f"[{MARK}, 0.5],"),
    "empty_entries": lambda: dumped({**certificate(), "target": {"rows": 1, "cols": 1, "entries": []}}),
    "rows_not_integer": lambda: dumped({**certificate(), "target": {**certificate()["target"], "rows": 6.0}}),
    "instance_pair_too_few": lambda: dumped({**instance(), "entries": instance()["entries"][:-1]}),
    "truncated": lambda: dumped(certificate())[:900],
    "non_utf8_in_span": lambda: dumped(certificate()).replace(b"12345.0", b"1234\xff5.0"),
    "non_utf8_outside_span": lambda: dumped({**certificate(), "note": "x"}).replace(b'"x"', b'"\xff"'),
    "utf8_bom": lambda: b"\xef\xbb\xbf" + dumped(certificate()),
    "key_ending_in_entries": lambda: dumped({**certificate(), 'foo "entries': [[1.0, 2.0]]}),
    "duplicate_entries_key": lambda: dumped(certificate()).replace(b'"entries": ', b'"entries": [[1.0, 0.0]], "entries": ', 1),
    "placeholder_in_string": lambda: dumped({**certificate(), "note": "NaN"}),
    "placeholder_as_value": lambda: dumped({**certificate(), "note": 1.0}).replace(b'"note": 1.0', b'"note": NaN'),
    "own_nan_before_spans_and_key_ending_in_entries": with_own_nan_before_spans,
    "placeholder_before_spans": lambda: dumped({"note": 1.0, **certificate()}).replace(b'"note": 1.0', b'"note": NaN'),
    "infinity_outside_span": lambda: dumped({**certificate(), "note": 1.0}).replace(b'"note": 1.0', b'"note": -Infinity'),
    "entries_not_an_array": lambda: dumped({**certificate(), "config": {"entries": 5}}),
    "entries_without_rows": lambda: dumped({**certificate(), "config": {"entries": [[1.0, 0.0]]}}),
    "count_past_the_bytes": lambda: dumped(with_target_count(2**31, 2**31)),
    "count_one_more": lambda: dumped(with_target_count(5, 1)),
    "count_one_fewer": lambda: dumped(with_target_count(3, 1)),
    # headers, each the one fault of a file whose matrices are valid
    "weight_wrong": lambda: dumped({**certificate(), "weight": "1/3"}),
    "weight_true": lambda: dumped({**certificate(), "weight": True}),
    "weight_zero_denominator": lambda: dumped({**certificate(), "weight": "1/0"}),
    "weight_holds_a_matrix": lambda: dumped({**certificate(), "weight": matrix_to_json(np.eye(2))}),
    # a '"' in the target's rows cuts its span short, so the skeleton does not parse and the whole-text reader names the '"'
    "weight_wrong_quote_in_row": lambda: marked(f'[{MARK}, "0.5"]', f"[{MARK}, 0.5]").replace(b'"1/2"', b'"1/3"'),
    # named by its JSON type, so the skeleton's span never shows in the message
    "weight_object_entries_first": lambda: dumped({**certificate(), "weight": {"entries": [[1.0, 0.0]], "rows": 1, "cols": 1}}),
    "kind_missing": lambda: dumped({key: value for key, value in certificate().items() if key != "kind"}),
    "kind_unknown": lambda: dumped({**certificate(), "kind": "nope"}),  # no header fault: judged after the decode
    "list_holding_a_matrix": lambda: dumped([matrix_to_json(np.eye(2))]),
    # a match split by a window's edge
    **{f"edge_{name}": (lambda name=name: across_edge(name)) for name in EDGES},
}

# the layouts gen, decompose and json.dumps write: a silent fallback here would lose the gain
FAST = ["random_bits_compact", "random_bits_default", "orjson_compact", "json_dumps_default", "instance_compact", "instance_default"]
# the same, split at a window's edge: only a run of spaces longer than the margin may be read whole
SPLIT = [f"edge_{name}" for name in EDGES if "past_the_margin" not in name]


@pytest.fixture(params=[1, 100, kernel._READ_BYTES], ids=["row_chunks", "few_row_chunks", "default_chunks"])
def chunk_bytes(request, monkeypatch):
    monkeypatch.setattr(kernel, "_READ_BYTES", request.param)
    return request.param


@pytest.fixture
def decode_paths():
    """Iterate a test's comparison over both decode paths: with ``os.fork``, every file of two or more arrays decoded
    half in a forked child, then without it, every file in one process."""

    def each():
        yield "fork"
        with pytest.MonkeyPatch.context() as patch:
            patch.delattr(os, "fork")
            yield "no_fork"

    return each


def loaded(load, path):
    try:
        return "value", load(path)
    except Exception as exc:  # the rejection is what is compared
        return "error", (type(exc), str(exc))


def same(a, b) -> bool:
    """Equal JSON values, arrays to the last bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and (a == b or a != a and b != b)


@pytest.mark.parametrize("name", list(CORPUS))
def test_reader_parity(tmp_path, monkeypatch, chunk_bytes, decode_paths, name):
    path = tmp_path / "file.json"
    path.write_bytes(CORPUS[name]())
    ref_kind, ref = loaded(reference_load, str(path))
    whole = whole_text_reads(monkeypatch)
    for _ in decode_paths():
        kind, new = loaded(load_json, str(path))
        assert kind == ref_kind
        assert new == ref if kind == "error" else same(new, ref)
        if name in FAST + SPLIT:  # a silent fallback reads alike, and loses the gain
            assert whole == []


def test_mutated_files_read_alike(tmp_path, monkeypatch, decode_paths):
    # one to three random byte edits of written layouts, at random chunk sizes
    rng = np.random.default_rng(2201)
    layouts = [CORPUS[name]() for name in FAST] + [CORPUS["indent_2"]()]
    alphabet = b'[]{},:" \n\r-+.eE0123456789NaInfitylsru\\\xff'
    path = tmp_path / "file.json"
    for _ in range(400):
        data = bytearray(layouts[rng.integers(len(layouts))])
        for _ in range(rng.integers(1, 4)):
            k, edit = int(rng.integers(len(data))), bytes(rng.choice(list(alphabet), size=rng.integers(1, 4)).tolist())
            data[k : k + int(rng.integers(0, 3))] = edit
        path.write_bytes(data)
        monkeypatch.setattr(kernel, "_READ_BYTES", int(rng.choice([1, 50, 1 << 18])))
        ref_kind, ref = loaded(reference_load, str(path))
        for _ in decode_paths():
            kind, new = loaded(load_json, str(path))
            assert kind == ref_kind, bytes(data)
            assert new == ref if kind == "error" else same(new, ref), bytes(data)


@pytest.mark.parametrize("name", list(CORPUS))
def test_command_parity(tmp_path, monkeypatch, capsys, decode_paths, name):
    path, report = tmp_path / "file.json", tmp_path / "report.json"
    path.write_bytes(CORPUS[name]())
    command = "check" if name.startswith("instance") or name.startswith("random_bits") else "verify"

    def outcome(load):
        monkeypatch.setattr(cli, "load_json", load)
        report.unlink(missing_ok=True)
        code = cli.main([command, str(path), "-o", str(report)])
        out, err = capsys.readouterr()
        written = json.loads(report.read_text()) if report.exists() else None
        if written is not None:
            written["config"].pop("timestamp")
            written["config"].pop("out_path")
        return code, out, err, written

    reader, expected = load_json, outcome(reference_load)
    for _ in decode_paths():
        assert outcome(reader) == expected


@pytest.mark.parametrize("name", FAST)
def test_written_layouts_take_the_span_reader(tmp_path, monkeypatch, chunk_bytes, name):
    path = tmp_path / "file.json"
    path.write_bytes(CORPUS[name]())
    whole = whole_text_reads(monkeypatch)
    obj = load_json(str(path))
    matrices = [obj] if "block_dim" in obj else [obj["target"], *obj["factors"]]
    assert whole == [] and all(isinstance(m["entries"], np.ndarray) for m in matrices)


def test_gen_and_decompose_files_take_the_span_reader(tmp_path, monkeypatch):
    h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
    assert cli.main(["gen", "--alpha", "4", "--n", "3", "--seed", "2", "-o", str(h_path)]) == 0
    assert cli.main(["decompose", "--quaternion", str(h_path), "-o", str(cert_path)]) == 0
    whole = whole_text_reads(monkeypatch)
    h, cert = (load_json(str(p)) for p in (h_path, cert_path))
    assert whole == []
    assert h["entries"].shape == (144, 2) and h["entries"].dtype == np.float64
    assert all(m["entries"].dtype == np.float64 and m["entries"].shape == (m["rows"] * m["cols"], 2) for m in [cert["target"], *cert["factors"]])


def whole_text_reads(monkeypatch) -> list:
    """The objects the whole-text reader's hook is handed from now on."""
    hook, seen = kernel._matrix_object_hook, []
    monkeypatch.setattr(kernel, "_matrix_object_hook", lambda obj: seen.append(obj) or hook(obj))
    return seen


@pytest.mark.parametrize("name", FAST + SPLIT)
def test_written_layouts_take_the_first_span_ends(tmp_path, monkeypatch, chunk_bytes, name):
    # one search finds every span, and each is its array's whole text: a second search that found the same spans would
    # read alike, and scan the file again
    path = tmp_path / "file.json"
    path.write_bytes(data := CORPUS[name]())
    spans_of, found = kernel._spans, []
    monkeypatch.setattr(kernel, "_spans", lambda read: found.append(spans_of(read)) or found[-1])
    whole = whole_text_reads(monkeypatch)
    obj = load_json(str(path))
    matrices = [obj] if "block_dim" in obj else [obj["target"], *obj["factors"]]
    ((_, spans),) = found
    assert whole == [] and [len(json.loads(data[start:end])) for start, end in spans] == [m["rows"] * m["cols"] for m in matrices]


def test_wrong_weight_scans_exactly_once(tmp_path, monkeypatch):
    # the judge rejects the only skeleton: one search of the file's windows, one json.loads and no decode
    h_path, path = tmp_path / "H.json", tmp_path / "cert.json"
    assert cli.main(["gen", "--alpha", "2", "--n", "16", "--seed", "2", "-o", str(h_path)]) == 0
    assert cli.main(["decompose", "--two-block", str(h_path), "-o", str(path)]) == 0
    assert path.read_bytes().count(b'"1/2"') == 1
    path.write_bytes(path.read_bytes().replace(b'"1/2"', b'"1/3"'))
    monkeypatch.setattr(kernel, "_READ_BYTES", 1 << 12)
    length = path.stat().st_size
    assert length > 8 * (kernel._READ_BYTES + kernel._MARGIN)
    window_reader, read_bytes, loads, decodes, parse = kernel._window_reader, [], [], [], json.loads

    def counted(file):
        read = window_reader(file)
        return lambda offset, size: read_bytes.append(len(window := read(offset, size))) or window

    monkeypatch.setattr(kernel, "_window_reader", counted)
    monkeypatch.setattr(kernel, "_decode_entries", lambda *args: decodes.append(args))
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: loads.append(args) or parse(*args, **kwargs))
    with pytest.raises(MalformedCertificateError, match="carries weight 1/3, expected 1/2"):
        load_json(str(path), _certificate_header)
    assert sum(read_bytes) < 2 * length and len(loads) == 1 and decodes == []


def test_file_rewritten_before_its_arrays_is_read_whole(tmp_path, monkeypatch):
    # the new file has the old one's offsets, so its arrays would decode beside the old skeleton's "note"
    old, new = (orjson.dumps({**certificate(), "note": note}) for note in ("old", "new"))
    path, fresh = tmp_path / "file.json", tmp_path / "new.json"
    path.write_bytes(old)
    fresh.write_bytes(new + b" ")
    expected = load_json(str(fresh))
    decode, rewrites, parent = kernel._decode_entries, [], os.getpid()

    def rewrite_then_decode(*args):
        if not rewrites and os.getpid() == parent:  # once, not again in the forked child
            rewrites.append(path.write_bytes(new + b" "))
        return decode(*args)

    monkeypatch.setattr(kernel, "_decode_entries", rewrite_then_decode)
    whole = whole_text_reads(monkeypatch)
    obj = load_json(str(path))
    assert rewrites and whole and obj["note"] == "new"
    assert same(obj, expected)


def test_both_processes_read_the_file_at_once(tmp_path, monkeypatch):
    # a row per read in each process: windows read by seek and read would race on the descriptor's shared offset
    h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
    assert cli.main(["gen", "--alpha", "4", "--n", "8", "--seed", "2", "-o", str(h_path)]) == 0
    assert cli.main(["decompose", "--quaternion", str(h_path), "-o", str(cert_path)]) == 0
    monkeypatch.setattr(kernel, "_READ_BYTES", 1)
    whole = whole_text_reads(monkeypatch)
    obj = load_json(str(cert_path))
    assert whole == []
    assert same(obj, reference_load(str(cert_path)))


needs_affinity = pytest.mark.skipif(
    not (hasattr(os, "sched_getaffinity") and Path("/proc/self/stat").exists()), reason="needs CPU affinity and /proc/self/stat"
)


@pytest.fixture
def requested(tmp_path, monkeypatch):
    """The file the forked child's ``os.sched_setaffinity`` writes the CPUs it asks for into, sorted; not called through."""
    path = tmp_path / "requested"
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: path.write_text(repr(sorted(cpus))))
    return path


@needs_affinity
def test_running_cpu_is_an_allowed_one():
    assert kernel._running_cpu() in os.sched_getaffinity(0)


@needs_affinity
def test_decode_child_leaves_the_parents_cpu(tmp_path, monkeypatch, requested):
    # a forked child mostly stays on its parent's CPU: it asks for every allowed CPU but the one the parent ran on
    path = tmp_path / "file.json"
    path.write_bytes(CORPUS["orjson_compact"]())
    expected = reference_load(str(path))
    allowed = os.sched_getaffinity(0) | {max(os.sched_getaffinity(0)) + 1}  # two or more on any machine
    running, seen = kernel._running_cpu, []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed))
    monkeypatch.setattr(kernel, "_running_cpu", lambda: seen.append(running()) or seen[-1])
    whole = whole_text_reads(monkeypatch)
    assert same(load_json(str(path)), expected)
    assert whole == [] and len(seen) == 1 and seen[0] in allowed
    assert requested.read_text() == repr(sorted(allowed - {seen[0]}))


@pytest.mark.parametrize("case", ["one_cpu", "cpu_unread"])
def test_unpinned_decodes(tmp_path, monkeypatch, requested, case):
    # one allowed CPU: one process decodes every array; a CPU that cannot be read: the child stays where it is
    path = tmp_path / "file.json"
    path.write_bytes(CORPUS["orjson_compact"]())
    expected, fork, forks = reference_load(str(path)), getattr(os, "fork", None), []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if case == "one_cpu" else {0, 1}, raising=False)
    if case == "cpu_unread":
        monkeypatch.setattr(kernel, "_running_cpu", lambda: None)
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    whole = whole_text_reads(monkeypatch)
    assert same(load_json(str(path)), expected)
    assert whole == [] and not requested.exists()
    assert len(forks) == (case == "cpu_unread")


def verify_outcome(monkeypatch, capsys, path, load):
    monkeypatch.setattr(cli, "load_json", load)
    code = cli.main(["verify", str(path)])
    return code, *capsys.readouterr()


@pytest.mark.parametrize("fault", ["child_raises", "child_killed", "parent_raises"])
def test_a_failed_share_is_read_whole(tmp_path, monkeypatch, capsys, fault):
    # the whole-text reader decides, as it would have alone, and no child is left to reap
    path = tmp_path / "file.json"
    path.write_bytes(CORPUS["orjson_compact"]())
    reader, expected = load_json, verify_outcome(monkeypatch, capsys, path, reference_load)
    parent, decode = os.getpid(), kernel._decode_entries

    def faulty(*args):
        in_child = os.getpid() != parent
        if fault == "child_raises" and in_child:
            raise RuntimeError("a fault in the child")
        if fault == "child_killed" and in_child:
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == "parent_raises" and not in_child:
            raise ValueError("a fault in the parent")
        return decode(*args)

    monkeypatch.setattr(kernel, "_decode_entries", faulty)
    whole = whole_text_reads(monkeypatch)
    assert verify_outcome(monkeypatch, capsys, path, reader) == expected
    assert whole
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Runs the CLI on its arguments, then prints how many objects the whole-text reader parsed and the peak resident set,
# in KiB, of the process's largest reaped child.
COUNTING_CHILD = """
import resource, sys
from psdblocks import cli, kernel
whole, hook = [], kernel._matrix_object_hook
kernel._matrix_object_hook = lambda obj: whole.append(obj) or hook(obj)
code = cli.main(sys.argv[1:])
print(len(whole), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def test_verify_forks_beside_blas_threads(tmp_path, monkeypatch, capsys):
    # a certificate of five arrays, verified by a fresh process with two OpenBLAS threads
    h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
    assert cli.main(["gen", "--alpha", "4", "--n", "24", "--seed", "2", "-o", str(h_path)]) == 0
    assert cli.main(["decompose", "--quaternion", str(h_path), "-o", str(cert_path)]) == 0
    capsys.readouterr()
    code, out, err = verify_outcome(monkeypatch, capsys, cert_path, reference_load)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "PYTHONPATH": pythonpath()}
    done = subprocess.run([sys.executable, "-c", COUNTING_CHILD, "verify", str(cert_path)], env=env, capture_output=True, text=True, timeout=120)
    *lines, counts = done.stdout.splitlines()
    whole, child_peak = map(int, counts.split())
    assert (done.returncode, "\n".join(lines) + "\n", done.stderr) == (code, out, err) and code == 0
    assert whole == 0 and child_peak > 0  # the span reader took it, and a child decoded


def test_pipe_takes_the_span_reader(tmp_path, monkeypatch):
    # a FIFO cannot seek: it is read into memory once, and its arrays decoded from there
    data, fifo, path = CORPUS["orjson_compact"](), tmp_path / "pipe", tmp_path / "file.json"
    path.write_bytes(data)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    whole = whole_text_reads(monkeypatch)
    try:
        obj = load_json(str(fifo))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive() and whole == []
    assert same(obj, reference_load(str(path)))


def test_span_reader_reads_only_windows(tmp_path, monkeypatch, chunk_bytes):
    # never the whole file: every read of a seekable file, by the descriptor or the file object, is one window
    h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
    assert cli.main(["gen", "--alpha", "4", "--n", "16", "--seed", "2", "-o", str(h_path)]) == 0
    assert cli.main(["decompose", "--quaternion", str(h_path), "-o", str(cert_path)]) == 0
    window, sizes, pread, expected = kernel._READ_BYTES + kernel._MARGIN, [], os.pread, reference_load(str(cert_path))
    assert cert_path.stat().st_size > 4 * window

    class Recorded(io.BufferedReader):
        def read(self, size=-1):
            sizes.append(size if size >= 0 else float("inf"))
            return super().read(size)

    monkeypatch.delattr(os, "fork")  # every read in this process
    monkeypatch.setattr(os, "pread", lambda fd, size, offset: sizes.append(size) or pread(fd, size, offset))
    monkeypatch.setattr(Path, "open", lambda self, mode: Recorded(io.FileIO(self, mode)))
    whole = whole_text_reads(monkeypatch)
    obj = load_json(str(cert_path))
    assert whole == [] and sizes and max(sizes) <= window
    assert same(obj, expected)


def test_verify_decodes_each_matrix_once(tmp_path, monkeypatch):
    # a quaternion certificate states five matrices: each becomes a matrix in matrix_from_json, once
    h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
    assert cli.main(["gen", "--alpha", "4", "--n", "2", "--seed", "2", "-o", str(h_path)]) == 0
    assert cli.main(["decompose", "--quaternion", str(h_path), "-o", str(cert_path)]) == 0
    calls = []
    decode = kernel.matrix_from_json
    spy = lambda obj: calls.append(type(obj)) or decode(obj)  # noqa: E731
    for module in (kernel, decompose):
        monkeypatch.setattr(module, "matrix_from_json", spy)
    assert cli.main(["verify", str(cert_path)]) == 0
    assert calls == [dict] * 5


def test_bad_header_decodes_no_matrix(tmp_path, monkeypatch, capsys):
    # the weight is judged on the skeleton: one json.loads, and no orjson chunk
    path = tmp_path / "file.json"
    path.write_bytes(CORPUS["weight_wrong"]())
    calls = []

    def spy(module):
        loads = module.loads
        monkeypatch.setattr(module, "loads", lambda *args, **kwargs: calls.append(module.__name__) or loads(*args, **kwargs))

    spy(json)
    spy(orjson)
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed certificate JSON: kind 'two_block_isometry' carries weight 1/3, expected 1/2\n"
    assert calls == ["json"]


def test_bad_header_is_named_before_a_bad_number(tmp_path, capsys):
    # the one precedence the skeleton changes: the whole-text reader stops at the number
    path = tmp_path / "file.json"
    path.write_bytes(marked("01").replace(b'"weight": "1/2"', b'"weight": "1/3"'))
    with pytest.raises(json.JSONDecodeError):
        reference_load(str(path))
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed certificate JSON: kind 'two_block_isometry' carries weight 1/3, expected 1/2\n"


def test_open_string_is_named_before_a_bad_header(tmp_path, monkeypatch, capsys):
    # a '"' that opens a string in the target's rows cuts its span short, and the skeleton around the cut does not parse:
    # the whole-text reader names the syntax error, as it would alone
    path = tmp_path / "file.json"
    path.write_bytes(marked(f'"{MARK}').replace(b'"weight": "1/2"', b'"weight": "1/3"'))
    expected = verify_outcome(monkeypatch, capsys, path, reference_load)
    assert expected == (2, "", "error: Expecting ',' delimiter: line 1 column 1591 (char 1590)\n")
    assert verify_outcome(monkeypatch, capsys, path, load_json) == expected


@pytest.mark.parametrize("error", [ValueError("judged bad"), KeyError("kind")], ids=["value_error", "key_error"])
def test_judge_verdict_is_final(tmp_path, monkeypatch, error):
    # what the judge raises reaches the caller as it was raised, and the file is not read again
    path = tmp_path / "file.json"
    path.write_bytes(CORPUS["orjson_compact"]())
    whole = whole_text_reads(monkeypatch)

    def judge(obj):
        raise error

    with pytest.raises(type(error)) as raised:
        load_json(str(path), judge)
    assert raised.value is error and whole == []


def test_bad_header_is_final_where_the_decode_declines(tmp_path, monkeypatch, capsys):
    path = tmp_path / "file.json"
    path.write_bytes(CORPUS["rows_apart_with_space"]())
    whole = whole_text_reads(monkeypatch)
    load_json(str(path))
    assert whole  # the decode declines rows set apart by another spacing
    whole.clear()
    path.write_bytes(path.read_bytes().replace(b'"weight": "1/2"', b'"weight": "1/3"'))
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed certificate JSON: kind 'two_block_isometry' carries weight 1/3, expected 1/2\n"
    assert whole == []


@pytest.mark.parametrize("side", [2**31, 2**13], ids=["count_2_62", "count_2_26"])
def test_impossible_count_allocates_nothing(tmp_path, traced_peak, side):
    # four pairs cannot hold side**2 rows: refused before a (side**2, 2) buffer is asked for
    path = tmp_path / "file.json"
    path.write_bytes(dumped(with_target_count(side, side)))
    obj, peak = traced_peak(lambda: load_json(str(path)))
    assert obj["target"]["rows"] == side  # read whole, for its reader to reject
    assert peak < 1 << 20


def header_message(data: bytes):
    """What ``_certificate_header`` says of ``data`` with every ``"entries"`` array, from its ``[`` to the last ``]`` before
    the next ``"`` or ``}`` as the skeleton ends it, set to one valid pair, or None."""
    repaired = re.sub(rb'("entries"[ \t\n\r]*:[ \t\n\r]*)\[[^"}]*\]', rb"\1[[0, 0]]", data)
    try:
        _certificate_header(json.loads(repaired))
    except (ValueError, UnicodeDecodeError) as exc:
        return f"error: {exc}\n"
    return None


def test_mutated_certificates_verify_alike(tmp_path, monkeypatch, capsys, decode_paths):
    # one to three random byte edits of the written certificate layouts, half of them with a wrong weight
    rng = np.random.default_rng(2301)
    layouts = [CORPUS["orjson_compact"](), CORPUS["json_dumps_default"]()]
    alphabet = b'[]{},:" \n\r-+.eE0123456789NaInfitylsru\\\xff'
    path, reader = tmp_path / "file.json", load_json
    named_first = 0
    for trial in range(400):
        data = bytearray(layouts[rng.integers(len(layouts))])
        if trial % 2:
            data = bytearray(data.replace(b'1/2"', b'1/3"'))
        for _ in range(rng.integers(1, 4)):
            k, edit = int(rng.integers(len(data))), bytes(rng.choice(list(alphabet), size=rng.integers(1, 4)).tolist())
            data[k : k + int(rng.integers(0, 3))] = edit
        path.write_bytes(data)
        monkeypatch.setattr(cli, "load_json", reference_load)
        expected = cli.main(["verify", str(path)]), capsys.readouterr().err
        monkeypatch.setattr(cli, "load_json", reader)
        for _ in decode_paths():
            outcome = cli.main(["verify", str(path)]), capsys.readouterr().err
            if outcome != expected:  # only a header the skeleton shows to be bad, named before the decode error
                assert outcome == (2, header_message(bytes(data))), bytes(data)
                named_first += 1
    assert named_first > 0, named_first
