"""Persistent memory-mapped snapshots of :class:`~repro.graph.compiled.CompiledGraph`.

The compiled CSR layer is already flat integer buffers, so persistence is
deliberately boring: a small header, a JSON metadata block (interned user
table, label table, attributes, section directory) and the raw little-endian
bytes of every offsets/targets buffer, 8-byte aligned.  Loading does **not**
deserialize the adjacency — it wraps ``mmap.mmap(..., ACCESS_READ)`` regions
in zero-copy ``memoryview`` casts that the traversal cores index exactly
like ``array('l')``.  Two payoffs:

* **cold start becomes an mmap** — refresh-to-first-query drops from the
  O(|V|+|E|) :func:`~repro.graph.compiled.compile_graph` build to reading a
  header and faulting pages on demand (PERF-11);
* **N serving processes share one physical copy** — every worker maps the
  same file, so the kernel page cache backs all of them and aggregate RSS
  stays near-flat as workers are added.

File layout (``<stem>.snap``)::

    +--------------------------------------------------------------+
    | header  struct '<8sIIqqqqq'                                  |
    |   magic  b"REPROSNP" | version | flags | epoch               |
    |   node count | label count | meta length | arrays length     |
    | header crc32  (u32, over the packed header)                  |
    +--------------------------------------------------------------+
    | meta    JSON (UTF-8): node_ids, labels, graph_name,          |
    |         per-label edge counts, section directory,            |
    |         attrs_bytes / attrs_crc32 / arrays_crc32             |
    | meta crc32  (u32)                                            |
    +--------------------------------------------------------------+
    | attrs   JSON (UTF-8) per-node attribute table — its own      |
    |         block so loading can defer the parse until the first |
    |         attribute read (adoption into a live graph rebinds   |
    |         to canonical dicts and never parses it at all)       |
    |         ... then zero padding to an 8-byte edge              |
    +--------------------------------------------------------------+
    | arrays  raw little-endian int64 sections, one per CSR half:  |
    |         fwd.<i>.offsets / fwd.<i>.targets / bwd.<i>....      |
    |         per label, then the merged all.fwd.* / all.bwd.*     |
    +--------------------------------------------------------------+

Beside the base file, :class:`SnapshotStore` persists journal bursts as
numbered **delta segments** (``<stem>.delta.<k>``): small JSON documents
holding the payload-enriched mutation ops between two epochs.  ``load()``
mmaps the base and replays contiguous segments through
:meth:`CompiledGraph.apply_deltas`; ``checkpoint()`` appends a segment when
the live journal covers the gap and rewrites the base (a *rebase*)
otherwise.

Staleness contract
------------------
A loaded snapshot is **never silently stale**.  When a live graph is given,
adoption (a) rebinds the attribute dicts to the canonical graph, (b) replays
any remaining journal gap, and (c) cross-checks node ids, label table and
per-label edge counts; any mismatch raises :class:`SnapshotStaleError` and
:meth:`SnapshotStore.load_or_compile` falls back to a clean recompile that
*rewrites* the store.  Unreadable files (torn writes, bad checksums, foreign
versions) raise :class:`SnapshotFormatError` naming the offending field —
never a raw ``struct.error`` and never silently wrong CSR rows.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SnapshotFormatError, SnapshotStaleError
from repro.graph.compiled import (
    _SNAPSHOT_ATTR,
    CSR,
    CompiledGraph,
    compile_graph,
)
from repro.graph.social_graph import SocialGraph

__all__ = [
    "SnapshotStore",
    "SnapshotIOHooks",
    "RecoveryReport",
    "save_snapshot",
    "load_snapshot",
]

MAGIC = b"REPROSNP"
FORMAT_VERSION = 1
#: magic, version, flags, epoch, nodes, labels, meta bytes, arrays bytes.
_HEADER = struct.Struct("<8sIIqqqqq")
_CRC = struct.Struct("<I")
_ITEM = 8  # bytes per CSR integer (int64 little-endian)

_DELTA_FORMAT = "repro-snapshot-delta"
_META_FORMAT = "repro-snapshot"


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _canonical_ops(ops: Sequence[Sequence[Any]]) -> bytes:
    """The byte string delta checksums are computed over (stable across runs)."""
    return json.dumps(list(ops), separators=(",", ":"), sort_keys=True).encode("utf-8")


def _document_crc(base_epoch: int, epoch: int, ops: Sequence[Sequence[Any]]) -> int:
    """Whole-document delta checksum: covers the epochs, not just the ops.

    ``ops_crc32`` alone leaves the ``base_epoch``/``epoch`` digits
    unprotected — a single flipped bit there would replay a valid op stream
    onto the wrong epoch, which is exactly the silent staleness the format
    promises never to serve.
    """
    blob = json.dumps(
        [base_epoch, epoch, list(ops)], separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return _crc32(blob)


def _require_little_endian(path) -> None:
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        raise SnapshotFormatError(
            path, "byteorder", "snapshot format requires a little-endian host"
        )


def _buffer_bytes(buffer) -> bytes:
    """Raw bytes of one CSR half — private ``array`` and mapped view alike."""
    return buffer.tobytes()


def _section_name(direction: str, label_id: Optional[int], half: str) -> str:
    if label_id is None:
        return f"all.{direction}.{half}"
    return f"{direction}.{label_id}.{half}"


class _LazyAttrTable:
    """The per-node attribute table, parsed from its JSON block on first use.

    Attribute reads are rare on the load path — the traversal cores touch
    ``attrs`` only when a path expression carries attribute conditions, and
    a snapshot adopted into a live graph swaps in the canonical dicts
    without ever reading this block — so deferring the parse keeps
    refresh-to-first-query at mmap speed even for large user tables.
    Supports exactly the operations :class:`CompiledGraph` performs on its
    ``attrs`` list (index, assign, append, iterate).
    """

    __slots__ = ("_payload", "_path", "_crc", "_count", "_rows")

    def __init__(self, payload, path, crc: int, count: int) -> None:
        self._payload = payload
        self._path = path
        self._crc = crc
        self._count = count
        self._rows = None

    def _force(self) -> list:
        if self._rows is None:
            blob = bytes(self._payload)
            if _crc32(blob) != self._crc:
                raise SnapshotFormatError(
                    self._path, "attrs_crc32", "attribute table checksum mismatch"
                )
            try:
                rows = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise SnapshotFormatError(
                    self._path, "attrs", f"attribute table is not valid JSON: {error}"
                )
            if not isinstance(rows, list) or len(rows) != self._count:
                raise SnapshotFormatError(
                    self._path, "attrs", "attribute table disagrees with header"
                )
            self._rows = rows
            self._payload = None  # drop the buffer reference
        return self._rows

    def __len__(self) -> int:
        return self._count if self._rows is None else len(self._rows)

    def __getitem__(self, index):
        return self._force()[index]

    def __setitem__(self, index, value) -> None:
        self._force()[index] = value

    def append(self, value) -> None:
        self._force().append(value)
        self._count = len(self._rows)

    def __iter__(self):
        return iter(self._force())


class SnapshotIOHooks:
    """Pluggable seam over the store's file I/O — the fault-injection surface.

    The default implementation just performs the real operation at every
    point; :class:`repro.reliability.faults.FaultInjector` subclasses it to
    inject deterministic faults (torn writes, failed fsync, ``ENOSPC``,
    partial reads, bit flips, simulated crashes).  Injection points, where
    ``<file>`` is ``base`` (the ``.snap`` file) or ``delta`` (a segment):

    ======================  ====================================================
    ``<file>.write``        writing the tmp file (torn write / bit flip / ENOSPC)
    ``<file>.fsync``        fsync of the tmp file (EIO / crash)
    ``<file>.replace``      just before the atomic ``os.replace``
    ``<file>.replaced``     just after it — a crash here leaves the new file
                            visible but later checkpoint steps undone
    ``<file>.read``         whole-file reads: the header probe, delta segments
    ``delta.unlink``        just before a segment unlink during a rebase
    ======================  ====================================================

    The base file's *arrays* region is read through ``mmap`` and has no read
    hook — a partial read of mmapped data is indistinguishable from on-disk
    truncation, which the ``<file>.write`` torn-write faults already model.
    """

    def write_tmp(self, tmp: Path, final: Path, payload: bytes) -> None:
        """Write ``payload`` to the tmp file, flushed and fsynced."""
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            self.fsync(handle, final)

    def fsync(self, handle, final: Path) -> None:
        os.fsync(handle.fileno())

    def before_replace(self, tmp: Path, final: Path) -> None:
        """Called between the durable tmp write and ``os.replace``."""

    def after_replace(self, final: Path) -> None:
        """Called after ``os.replace`` made the new contents visible."""

    def after_read(self, path: Path, data: bytes) -> bytes:
        """Filter whole-file reads (partial read / bit flip injection)."""
        return data

    def before_unlink(self, path: Path) -> None:
        """Called before a delta segment is unlinked during a rebase."""


_DEFAULT_IO_HOOKS = SnapshotIOHooks()


def _atomic_write(
    path: Path, payload: bytes, hooks: Optional[SnapshotIOHooks] = None
) -> None:
    """Write ``payload`` to ``path`` via tmp + fsync + rename (torn-write safe)."""
    hooks = hooks if hooks is not None else _DEFAULT_IO_HOOKS
    tmp = path.with_name(path.name + ".tmp")
    try:
        hooks.write_tmp(tmp, path, payload)
        hooks.before_replace(tmp, path)
        os.replace(tmp, path)
    except Exception:
        # A *failure* (ENOSPC, failed fsync, replace error) must not leave a
        # stray tmp file behind.  A *crash* is modelled as a BaseException
        # and deliberately skips this — crashed writers cannot clean up, so
        # :class:`SnapshotStore` reaps stale tmp files on open instead.
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    hooks.after_replace(path)


# ---------------------------------------------------------------------------
# Base-file serialization
# ---------------------------------------------------------------------------


def save_snapshot(
    snapshot: CompiledGraph, path, *, io_hooks: Optional[SnapshotIOHooks] = None
) -> int:
    """Serialize ``snapshot`` to ``path`` atomically; return the bytes written.

    Every label's row overlay is folded in first (saving is a whole-graph
    read; the on-disk CSR is always complete), and tombstoned slots are
    squeezed out through :meth:`CompiledGraph.compacted` — the on-disk
    format never carries a dead slot, so a later :func:`load_snapshot` needs
    neither overlay nor tombstone state.  User ids and attribute values must be
    JSON-representable (strings, numbers, booleans, ``None`` and
    lists/dicts thereof) — the substrate's documented serialization domain.
    """
    path = Path(path)
    _require_little_endian(path)
    snapshot = snapshot.compacted()

    sections: List[Tuple[str, bytes]] = []
    label_edge_counts: List[int] = []
    for label_id in range(len(snapshot.labels)):
        forward = snapshot.forward(label_id)  # folds the label's row overlay
        backward = snapshot.backward(label_id)
        label_edge_counts.append(forward[0][-1])
        sections.append((_section_name("fwd", label_id, "offsets"), _buffer_bytes(forward[0])))
        sections.append((_section_name("fwd", label_id, "targets"), _buffer_bytes(forward[1])))
        sections.append((_section_name("bwd", label_id, "offsets"), _buffer_bytes(backward[0])))
        sections.append((_section_name("bwd", label_id, "targets"), _buffer_bytes(backward[1])))
    for direction, csr in (("fwd", snapshot.forward()), ("bwd", snapshot.backward())):
        sections.append((_section_name(direction, None, "offsets"), _buffer_bytes(csr[0])))
        sections.append((_section_name(direction, None, "targets"), _buffer_bytes(csr[1])))

    directory: List[Tuple[str, int, int]] = []
    arrays = io.BytesIO()
    cursor = 0
    for name, data in sections:
        count = len(data) // _ITEM
        directory.append((name, cursor, count))
        arrays.write(data)
        cursor += count
    arrays_blob = arrays.getvalue()

    attrs_blob = json.dumps(
        [dict(attrs) for attrs in snapshot.attrs], separators=(",", ":")
    ).encode("utf-8")
    meta = {
        "format": _META_FORMAT,
        "item": _ITEM,
        "graph_name": getattr(snapshot.graph, "name", "") if snapshot.graph else "",
        "node_ids": list(snapshot.node_ids),
        "labels": list(snapshot.labels),
        "label_edge_counts": label_edge_counts,
        "sections": [list(row) for row in directory],
        "attrs_bytes": len(attrs_blob),
        "attrs_crc32": _crc32(attrs_blob),
        "arrays_crc32": _crc32(arrays_blob),
    }
    meta_blob = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode("utf-8")
    meta_len = len(meta_blob) + _CRC.size
    prefix = _HEADER.size + _CRC.size + meta_len + len(attrs_blob)
    padding = (-prefix) % _ITEM

    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        0,  # flags, reserved
        snapshot.epoch,
        len(snapshot.node_ids),
        len(snapshot.labels),
        meta_len,
        len(arrays_blob),
    )
    payload = b"".join(
        [
            header,
            _CRC.pack(_crc32(header)),
            meta_blob,
            _CRC.pack(_crc32(meta_blob)),
            attrs_blob,
            b"\x00" * padding,
            arrays_blob,
        ]
    )
    _atomic_write(path, payload, io_hooks)
    return len(payload)


def _parse_header(path: Path, data: bytes) -> Tuple[int, int, int, int, int]:
    """Validate the fixed header; return (epoch, nodes, labels, meta_len, arrays_len)."""
    if len(data) < _HEADER.size + _CRC.size:
        raise SnapshotFormatError(
            path, "size", f"file is {len(data)} bytes, shorter than the header"
        )
    header = data[: _HEADER.size]
    magic, version, _flags, epoch, nodes, labels, meta_len, arrays_len = _HEADER.unpack(
        header
    )
    if magic != MAGIC:
        raise SnapshotFormatError(path, "magic", f"expected {MAGIC!r}, found {magic!r}")
    if version != FORMAT_VERSION:
        raise SnapshotFormatError(
            path, "version", f"unsupported format version {version}"
        )
    (stored_crc,) = _CRC.unpack(data[_HEADER.size : _HEADER.size + _CRC.size])
    if stored_crc != _crc32(header):
        raise SnapshotFormatError(path, "header_crc", "header checksum mismatch")
    if nodes < 0 or labels < 0 or meta_len < _CRC.size or arrays_len < 0:
        raise SnapshotFormatError(path, "counts", "negative or impossible counts")
    return epoch, nodes, labels, meta_len, arrays_len


def read_snapshot_header(
    path, *, io_hooks: Optional[SnapshotIOHooks] = None
) -> Dict[str, int]:
    """Read and validate just the fixed header (cheap staleness probe)."""
    path = Path(path)
    hooks = io_hooks if io_hooks is not None else _DEFAULT_IO_HOOKS
    try:
        with open(path, "rb") as handle:
            data = handle.read(_HEADER.size + _CRC.size)
    except OSError:
        raise
    data = hooks.after_read(path, data)
    epoch, nodes, labels, meta_len, arrays_len = _parse_header(path, data)
    return {
        "epoch": epoch,
        "nodes": nodes,
        "labels": labels,
        "meta_len": meta_len,
        "arrays_len": arrays_len,
    }


def load_snapshot(
    path, *, graph: Optional[SocialGraph] = None, verify: bool = False
) -> CompiledGraph:
    """Memory-map ``path`` into a zero-copy :class:`CompiledGraph`.

    With ``graph=None`` the snapshot is fully standalone: attribute
    conditions read the deserialized attrs, witness edges are synthesized
    from the CSR, and the caller (typically a worker process) never builds
    the canonical dict-of-dicts at all.  With a live ``graph`` the snapshot
    is *adopted*: attrs are rebound to the canonical dicts, any epoch gap is
    replayed from the graph's journal, structural cross-checks run, and the
    snapshot is installed as the graph's compile cache — or
    :class:`SnapshotStaleError` is raised.  ``verify=True`` additionally
    checksums the full arrays region (an O(bytes) read that defeats lazy
    page faulting; off by default, used by the torn-write tests).
    """
    path = Path(path)
    _require_little_endian(path)
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size == 0:
            raise SnapshotFormatError(path, "size", "file is empty")
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    view = memoryview(mapped)
    epoch, nodes, labels_count, meta_len, arrays_len = _parse_header(
        path, bytes(view[: _HEADER.size + _CRC.size])
    )
    meta_start = _HEADER.size + _CRC.size
    meta_end = meta_start + meta_len
    if meta_end > size:
        raise SnapshotFormatError(path, "meta", "metadata block extends past the file")
    meta_blob = bytes(view[meta_start : meta_end - _CRC.size])
    (meta_crc,) = _CRC.unpack(bytes(view[meta_end - _CRC.size : meta_end]))
    if meta_crc != _crc32(meta_blob):
        raise SnapshotFormatError(path, "meta_crc", "metadata checksum mismatch")
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise SnapshotFormatError(path, "meta", f"metadata is not valid JSON: {error}")
    if meta.get("format") != _META_FORMAT:
        raise SnapshotFormatError(
            path, "meta", f"unexpected format tag {meta.get('format')!r}"
        )
    if meta.get("item") != _ITEM:
        raise SnapshotFormatError(
            path, "item", f"unsupported item size {meta.get('item')!r}"
        )
    node_ids = meta.get("node_ids")
    labels = meta.get("labels")
    attrs_bytes = meta.get("attrs_bytes")
    if not isinstance(node_ids, list) or len(node_ids) != nodes:
        raise SnapshotFormatError(path, "node_ids", "node table disagrees with header")
    if not isinstance(labels, list) or len(labels) != labels_count:
        raise SnapshotFormatError(path, "labels", "label table disagrees with header")
    if not isinstance(attrs_bytes, int) or attrs_bytes < 0:
        raise SnapshotFormatError(path, "attrs_bytes", "missing attribute block size")
    attrs_end = meta_end + attrs_bytes
    arrays_start = attrs_end + ((-attrs_end) % _ITEM)
    if attrs_end > size:
        raise SnapshotFormatError(path, "attrs", "attribute block extends past the file")
    if arrays_start + arrays_len > size:
        raise SnapshotFormatError(
            path,
            "arrays",
            f"file truncated: need {arrays_start + arrays_len} bytes, have {size}",
        )
    attrs = _LazyAttrTable(
        view[meta_end:attrs_end], path, meta.get("attrs_crc32"), nodes
    )
    if verify:
        attrs._force()  # checksum + shape check, eagerly

    arrays_region = view[arrays_start : arrays_start + arrays_len]
    if verify and _crc32(bytes(arrays_region)) != meta.get("arrays_crc32"):
        raise SnapshotFormatError(path, "arrays_crc32", "CSR region checksum mismatch")
    items = arrays_region.cast("q")

    directory: Dict[str, memoryview] = {}
    total_items = arrays_len // _ITEM
    for row in meta.get("sections", ()):
        if not (isinstance(row, list) and len(row) == 3):
            raise SnapshotFormatError(path, "sections", f"malformed directory row {row!r}")
        name, offset, count = row
        if offset < 0 or count < 0 or offset + count > total_items:
            raise SnapshotFormatError(
                path, str(name), "section extends past the arrays region"
            )
        directory[name] = items[offset : offset + count]

    def _csr(direction: str, label_id: Optional[int]) -> CSR:
        offsets_name = _section_name(direction, label_id, "offsets")
        targets_name = _section_name(direction, label_id, "targets")
        try:
            offsets = directory[offsets_name]
            targets = directory[targets_name]
        except KeyError as error:
            raise SnapshotFormatError(path, str(error.args[0]), "section missing")
        if len(offsets) != nodes + 1:
            raise SnapshotFormatError(
                path, offsets_name, f"expected {nodes + 1} offsets, found {len(offsets)}"
            )
        edge_count = offsets[-1] if len(offsets) else 0
        if edge_count != len(targets):
            raise SnapshotFormatError(
                path,
                targets_name,
                f"offsets promise {edge_count} entries, section holds {len(targets)}",
            )
        return offsets, targets

    forward = [_csr("fwd", label_id) for label_id in range(labels_count)]
    backward = [_csr("bwd", label_id) for label_id in range(labels_count)]
    snapshot = CompiledGraph.from_mapping(
        node_ids=node_ids,
        attrs=attrs,
        labels=labels,
        forward=forward,
        backward=backward,
        forward_all=_csr("fwd", None),
        backward_all=_csr("bwd", None),
        epoch=epoch,
        graph=None,
        backing=(mapped, view, items),
    )
    if graph is not None:
        _adopt(path, snapshot, graph)
    return snapshot


def _adopt(path: Path, snapshot: CompiledGraph, graph: SocialGraph) -> None:
    """Bind a loaded snapshot to a live graph or raise :class:`SnapshotStaleError`.

    Order matters: attrs are rebound to the canonical dicts *before* the
    journal gap is replayed, so attribute-update markers (which carry no
    payload in the live journal) land on shared dicts exactly like a fresh
    compile.
    """
    # Delta replay may have tombstoned slots (remove_user segments): those
    # hold no user and rebind to ``None``.  A snapshot user missing from the
    # live graph also rebinds to ``None`` for now — either the journal gap
    # replayed below removes it (tombstoning the slot), or the structural
    # checks after the replay raise :class:`SnapshotStaleError`.
    dead = snapshot.dead_slots
    missing = 0
    live_attrs: List[Any] = []
    for index, user in enumerate(snapshot.node_ids):
        if index in dead:
            live_attrs.append(None)
            continue
        attrs = graph._nodes.get(user)
        if attrs is None:
            missing += 1
        live_attrs.append(attrs)
    snapshot.attrs = live_attrs
    if missing and snapshot.epoch == graph.epoch:
        raise SnapshotStaleError(
            path, f"{missing} snapshot users are not in the live graph"
        )
    snapshot.graph = graph
    if snapshot.epoch != graph.epoch:
        deltas = graph.mutations_since(snapshot.epoch)
        if deltas is None or not snapshot.apply_deltas(deltas):
            raise SnapshotStaleError(
                path,
                f"epoch {snapshot.epoch} is behind the live graph "
                f"({graph.epoch}) and the journal does not cover the gap",
            )
    if snapshot.number_of_live_nodes() != graph.number_of_users():
        raise SnapshotStaleError(
            path,
            f"snapshot has {snapshot.number_of_live_nodes()} users, "
            f"graph has {graph.number_of_users()}",
        )
    if set(snapshot.node_index) != set(graph.users()):
        raise SnapshotStaleError(path, "snapshot and graph user sets differ")
    # Compare as sets: delta patches intern new labels in arrival order,
    # while a fresh compile sorts the alphabet — both orders are valid.  The
    # snapshot may know *more* labels than the graph: the graph forgets a
    # label with its last edge, the snapshot keeps the (empty) label id —
    # the per-label edge counts below hold such a label to zero edges.
    if not set(graph.labels()) <= set(snapshot.labels):
        raise SnapshotStaleError(
            path,
            f"graph labels {graph.labels()!r} not covered by snapshot labels "
            f"{snapshot.labels!r}",
        )
    for label_id, label in enumerate(snapshot.labels):
        expected = graph.number_of_relationships(label)
        if snapshot.number_of_edges(label_id) != expected:
            raise SnapshotStaleError(
                path,
                f"label {label!r}: snapshot has {snapshot.number_of_edges(label_id)} "
                f"edges, graph has {expected}",
            )
    setattr(graph, _SNAPSHOT_ATTR, snapshot)


# ---------------------------------------------------------------------------
# Delta segments
# ---------------------------------------------------------------------------


def _enrich_ops(graph: SocialGraph, ops: Sequence[Tuple[Any, ...]]) -> List[List[Any]]:
    """Attach attribute payloads so persisted ops replay without the graph.

    Live-journal ``add_user`` / ``update_user`` markers carry no attributes
    (the dicts are shared); a standalone replay needs them, so the
    checkpoint captures the user's *current* attrs — correct because any
    later change appears as a later ``update_user`` in the same stream.  A
    user removed later in the same span has no current attrs anymore; the
    payload is empty then, which replay never reads — the trailing
    ``remove_user`` tombstones the slot either way.
    """
    enriched: List[List[Any]] = []
    for op in ops:
        kind = op[0]
        if kind in ("add_user", "update_user"):
            enriched.append([kind, op[1], dict(graph._nodes.get(op[1], {}))])
        else:
            enriched.append(list(op))
    return enriched


def _write_delta(
    path: Path,
    base_epoch: int,
    epoch: int,
    ops: List[List[Any]],
    hooks: Optional[SnapshotIOHooks] = None,
) -> None:
    document = {
        "format": _DELTA_FORMAT,
        "version": FORMAT_VERSION,
        "base_epoch": base_epoch,
        "epoch": epoch,
        "ops": ops,
        "ops_crc32": _crc32(_canonical_ops(ops)),
        "doc_crc32": _document_crc(base_epoch, epoch, ops),
    }
    _atomic_write(
        path, json.dumps(document, separators=(",", ":")).encode("utf-8"), hooks
    )


def _read_delta(path: Path, hooks: Optional[SnapshotIOHooks] = None) -> Dict[str, Any]:
    hooks = hooks if hooks is not None else _DEFAULT_IO_HOOKS
    try:
        blob = hooks.after_read(path, path.read_bytes())
        document = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise SnapshotFormatError(path, "json", f"delta segment is not JSON: {error}")
    if not isinstance(document, dict) or document.get("format") != _DELTA_FORMAT:
        raise SnapshotFormatError(path, "format", "not a snapshot delta segment")
    if document.get("version") != FORMAT_VERSION:
        raise SnapshotFormatError(
            path, "version", f"unsupported delta version {document.get('version')!r}"
        )
    ops = document.get("ops")
    if not isinstance(ops, list):
        raise SnapshotFormatError(path, "ops", "ops is not a list")
    if document.get("ops_crc32") != _crc32(_canonical_ops(ops)):
        raise SnapshotFormatError(path, "ops_crc32", "delta checksum mismatch")
    for key in ("base_epoch", "epoch"):
        if not isinstance(document.get(key), int):
            raise SnapshotFormatError(path, key, "missing or non-integer epoch")
    if document.get("doc_crc32") != _document_crc(
        document["base_epoch"], document["epoch"], ops
    ):
        raise SnapshotFormatError(
            path, "doc_crc32", "delta document checksum mismatch"
        )
    return document


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`SnapshotStore.fsck` found and did.

    ``healthy`` means the store ended in a servable state: either a clean
    load succeeds on the (possibly truncated) chain, or the store is empty
    and a warm start will recompile.  Quarantined files are *renamed*, never
    deleted — ``<name>.quarantine.<k>`` keeps the evidence for post-mortems
    while taking it out of the load path.  JSON-friendly via :meth:`to_dict`
    (the CI fault-injection job uploads it as an artifact).
    """

    reaped_tmp: Tuple[str, ...]
    quarantined: Tuple[str, ...]
    base_quarantined: bool
    segments_kept: int
    tip_epoch: Optional[int]
    healthy: bool
    actions: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reaped_tmp": list(self.reaped_tmp),
            "quarantined": list(self.quarantined),
            "base_quarantined": self.base_quarantined,
            "segments_kept": self.segments_kept,
            "tip_epoch": self.tip_epoch,
            "healthy": self.healthy,
            "actions": list(self.actions),
        }


class SnapshotStore:
    """A base snapshot plus contiguous delta segments under one path stem.

    ``SnapshotStore("warm/graph.snap")`` manages ``warm/graph.snap`` and
    ``warm/graph.delta.0``, ``warm/graph.delta.1`` ... — the disk-first,
    derived-and-disposable layout: everything here can be regenerated from
    the canonical graph, so corruption is an inconvenience (recompile), not
    data loss.

    * :meth:`save` writes a fresh base and clears every segment;
    * :meth:`checkpoint` appends the journal burst since the persisted tip
      as one segment (removals included — replay tombstones the slot) — or
      rebases when the journal cannot cover the gap or
      ``max_delta_segments`` is reached;
    * :meth:`load` mmaps the base, replays segments, and (optionally)
      adopts into a live graph — raising :class:`SnapshotStaleError` rather
      than ever serving stale data;
    * :meth:`load_or_compile` is the warm-start entry: any load failure
      falls back to ``compile_graph`` and rewrites the store.
    """

    #: Segment count that triggers a rebase on the next checkpoint.
    max_delta_segments = 16

    def __init__(
        self,
        path,
        *,
        max_delta_segments: Optional[int] = None,
        io_hooks: Optional[SnapshotIOHooks] = None,
        checkpoint_retries: int = 2,
        retry_backoff_seconds: float = 0.01,
        sleep: Callable[[float], None] = time.sleep,
        stale_tmp_seconds: float = 60.0,
    ) -> None:
        path = Path(path)
        stem = path.name[: -len(".snap")] if path.name.endswith(".snap") else path.name
        self.directory = path.parent
        self.stem = stem
        self.base_path = self.directory / f"{stem}.snap"
        if max_delta_segments is not None:
            self.max_delta_segments = max(0, max_delta_segments)
        self.io_hooks = io_hooks if io_hooks is not None else _DEFAULT_IO_HOOKS
        self.checkpoint_retries = max(0, checkpoint_retries)
        self.retry_backoff_seconds = retry_backoff_seconds
        self.stale_tmp_seconds = stale_tmp_seconds
        self._sleep = sleep
        self.checkpoint_retries_used = 0
        self.tmp_files_reaped = 0
        self.last_recovery: Optional[RecoveryReport] = None
        # Crash hygiene: a writer that died mid-checkpoint cannot clean up
        # its tmp file; reap stale ones here.  Only *old* tmp files go — a
        # fresh one may belong to a live writer in another process.
        self._reap_tmp()

    # ------------------------------------------------------------------ paths

    def delta_path(self, index: int) -> Path:
        return self.directory / f"{self.stem}.delta.{index}"

    def delta_paths(self) -> List[Path]:
        """Existing segments, contiguous from 0 (a gap ends the chain)."""
        paths: List[Path] = []
        index = 0
        while True:
            candidate = self.delta_path(index)
            if not candidate.exists():
                return paths
            paths.append(candidate)
            index += 1

    def _clear_deltas(self) -> None:
        for path in self.delta_paths():
            self.io_hooks.before_unlink(path)
            path.unlink()

    def _tmp_paths(self) -> List[Path]:
        """Leftover ``*.tmp`` files belonging to this store's stem."""
        if not self.directory.exists():
            return []
        paths = list(self.directory.glob(f"{self.stem}.snap.tmp"))
        paths.extend(sorted(self.directory.glob(f"{self.stem}.delta.*.tmp")))
        return paths

    def _reap_tmp(self, *, force: bool = False) -> List[str]:
        """Unlink orphaned tmp files; return the names removed.

        Without ``force`` only files older than ``stale_tmp_seconds`` go —
        a fresh tmp may belong to a checkpoint in flight in another serving
        process, and reaping it would fail that writer's ``os.replace``.
        :meth:`fsck` forces, because it runs on a store known to be broken.
        """
        reaped: List[str] = []
        now = time.time()
        for tmp in self._tmp_paths():
            try:
                if not force and now - tmp.stat().st_mtime < self.stale_tmp_seconds:
                    continue
                tmp.unlink()
            except OSError:
                continue
            reaped.append(tmp.name)
        self.tmp_files_reaped += len(reaped)
        return reaped

    def _quarantine(self, path: Path) -> Optional[str]:
        """Rename ``path`` to ``<name>.quarantine.<k>``; return the new name."""
        for attempt in range(10000):
            target = path.with_name(f"{path.name}.quarantine.{attempt}")
            if target.exists():
                continue
            try:
                os.replace(path, target)
            except OSError:
                return None
            return target.name
        return None  # pragma: no cover - 10k quarantine collisions

    # ------------------------------------------------------------------- fsck

    def fsck(self, *, verify: bool = True) -> RecoveryReport:
        """Validate the store and heal it in place; report what was done.

        Reaps every orphaned tmp file, then repeatedly attempts a full
        standalone load (``verify=True`` checksums the arrays region and
        attribute table too, catching silent bit flips): each failing pass
        quarantines the unreadable file the error names — a corrupt base
        takes the whole chain with it; a corrupt delta segment truncates the
        chain from that segment on (the contiguous good prefix keeps
        serving).  Quarantined files are renamed to
        ``<name>.quarantine.<k>``, never deleted.  The loop ends when a load
        succeeds, the store is empty, or nothing further can be attributed.
        """
        actions: List[str] = []
        reaped = self._reap_tmp(force=True)
        actions.extend(f"reaped stale tmp file {name}" for name in reaped)
        quarantined: List[str] = []
        base_quarantined = False
        loaded = False
        absent = False
        budget = len(self.delta_paths()) + 2
        while budget > 0:
            budget -= 1
            try:
                self.load(verify=verify)
                loaded = True
                break
            except FileNotFoundError:
                absent = True
                # No base: any segments left are orphans of a dead rebase.
                for path in self.delta_paths():
                    name = self._quarantine(path)
                    if name is not None:
                        quarantined.append(name)
                        actions.append(f"quarantined orphaned segment as {name}")
                break
            except (SnapshotFormatError, OSError) as error:
                bad = Path(getattr(error, "path", self.base_path))
                if bad == self.base_path:
                    name = self._quarantine(self.base_path)
                    if name is None:
                        break
                    base_quarantined = True
                    quarantined.append(name)
                    actions.append(f"quarantined corrupt base as {name} ({error})")
                    continue
                chain = self.delta_paths()
                start = next(
                    (i for i, path in enumerate(chain) if path == bad), 0
                )
                if not chain:
                    break
                for path in chain[start:]:
                    name = self._quarantine(path)
                    if name is not None:
                        quarantined.append(name)
                        actions.append(
                            f"quarantined delta segment {path.name} as {name} "
                            f"({error})"
                        )
        tip: Optional[int] = None
        if loaded:
            try:
                tip = self.tip_epoch()
            except (SnapshotFormatError, OSError):  # pragma: no cover
                tip = None
        report = RecoveryReport(
            reaped_tmp=tuple(reaped),
            quarantined=tuple(quarantined),
            base_quarantined=base_quarantined,
            segments_kept=len(self.delta_paths()),
            tip_epoch=tip,
            healthy=loaded or absent,
            actions=tuple(actions),
        )
        self.last_recovery = report
        return report

    # ------------------------------------------------------------------- save

    def save(self, snapshot: CompiledGraph) -> int:
        """Write ``snapshot`` as a fresh base, dropping every delta segment."""
        self.directory.mkdir(parents=True, exist_ok=True)
        written = save_snapshot(snapshot, self.base_path, io_hooks=self.io_hooks)
        self._clear_deltas()
        return written

    def checkpoint(self, graph: SocialGraph) -> str:
        """Persist the graph's current compiled state; return what happened.

        ``"base"``   — no base existed, wrote one;
        ``"current"`` — the persisted tip already matches the live epoch;
        ``"delta"``  — appended one segment covering the journal burst
        (user removals ride along — replay tombstones the slot);
        ``"rebase"`` — journal gap uncovered / segment budget exhausted /
        base unreadable: rewrote the base.

        Transient I/O failures (full disk, failed fsync) are retried up to
        ``checkpoint_retries`` times with deterministic exponential backoff
        — each attempt restarts from a consistent on-disk state because
        every write is atomic (tmp + fsync + ``os.replace``).  The final
        failure propagates as the original :class:`OSError`.
        """
        attempts = self.checkpoint_retries + 1
        for attempt in range(attempts):
            if attempt:
                self.checkpoint_retries_used += 1
                self._sleep(self.retry_backoff_seconds * (2 ** (attempt - 1)))
            try:
                return self._checkpoint_once(graph)
            except OSError:
                if attempt + 1 >= attempts:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _checkpoint_once(self, graph: SocialGraph) -> str:
        snapshot = compile_graph(graph)
        if not self.base_path.exists():
            self.save(snapshot)
            return "base"
        try:
            tip = self.tip_epoch()
        except SnapshotFormatError:
            self.save(snapshot)
            return "rebase"
        if tip == graph.epoch:
            return "current"
        ops = graph.mutations_since(tip) if tip is not None else None
        segments = self.delta_paths()
        if ops is None or len(segments) >= self.max_delta_segments:
            self.save(snapshot)
            return "rebase"
        _write_delta(
            self.delta_path(len(segments)),
            tip,
            graph.epoch,
            _enrich_ops(graph, ops),
            self.io_hooks,
        )
        return "delta"

    # ------------------------------------------------------------------- load

    def load(
        self, graph: Optional[SocialGraph] = None, *, verify: bool = False
    ) -> CompiledGraph:
        """Mmap the base, replay contiguous delta segments, optionally adopt.

        Raises :class:`FileNotFoundError` when no base exists,
        :class:`SnapshotFormatError` on any unreadable file, and
        :class:`SnapshotStaleError` when adoption into ``graph`` finds the
        persisted state behind the live epoch with no covering journal.
        """
        snapshot = load_snapshot(self.base_path, graph=None, verify=verify)
        for path in self.delta_paths():
            document = _read_delta(path, self.io_hooks)
            if document["base_epoch"] != snapshot.epoch:
                raise SnapshotFormatError(
                    path,
                    "base_epoch",
                    f"segment starts at epoch {document['base_epoch']}, "
                    f"snapshot is at {snapshot.epoch}",
                )
            ops = [tuple(op) for op in document["ops"]]
            if not snapshot.apply_deltas(ops, epoch=document["epoch"]):
                raise SnapshotFormatError(
                    path, "ops", "persisted delta could not be replayed"
                )
        if graph is not None:
            _adopt(self.base_path, snapshot, graph)
        return snapshot

    def load_or_compile(
        self, graph: SocialGraph
    ) -> Tuple[CompiledGraph, str]:
        """Warm-start: adopt the persisted snapshot, self-heal, or recompile.

        Returns ``(snapshot, source)`` with ``source`` one of ``"mapped"``
        (persisted state adopted zero-copy), ``"healed"`` (an unreadable
        file made :meth:`fsck` quarantine the corrupt suffix and the
        surviving prefix — plus any journal replay — served the load),
        ``"absent"``, ``"stale"`` or ``"corrupt"`` (each followed by a
        recompile that rewrote the store).
        """
        try:
            return self.load(graph), "mapped"
        except FileNotFoundError:
            source = "absent"
        except SnapshotStaleError:
            source = "stale"
        except (SnapshotFormatError, OSError):
            source = "corrupt"
            report = self.fsck()
            if report.quarantined or report.reaped_tmp:
                try:
                    return self.load(graph), "healed"
                except FileNotFoundError:
                    source = "corrupt"
                except SnapshotStaleError:
                    source = "stale"
                except (SnapshotFormatError, OSError):
                    source = "corrupt"
        snapshot = compile_graph(graph)
        self.save(snapshot)
        return snapshot, source

    # ------------------------------------------------------------------ stats

    def tip_epoch(self) -> Optional[int]:
        """The epoch the store would load at, or ``None`` with no base."""
        if not self.base_path.exists():
            return None
        epoch = read_snapshot_header(self.base_path, io_hooks=self.io_hooks)["epoch"]
        for path in self.delta_paths():
            document = _read_delta(path, self.io_hooks)
            if document["base_epoch"] != epoch:
                break  # orphaned segment from a torn checkpoint: ignore tail
            epoch = document["epoch"]
        return epoch

    def stat(self) -> Dict[str, Any]:
        """Disk accounting: base/delta bytes, segment count, persisted epoch."""
        base_bytes = self.base_path.stat().st_size if self.base_path.exists() else 0
        segments = self.delta_paths()
        delta_bytes = sum(path.stat().st_size for path in segments)
        try:
            epoch: Optional[int] = self.tip_epoch()
        except SnapshotFormatError:
            epoch = None
        quarantine_files = (
            len(list(self.directory.glob(f"{self.stem}.*quarantine.*")))
            if self.directory.exists()
            else 0
        )
        return {
            "path": str(self.base_path),
            "exists": self.base_path.exists(),
            "base_bytes": base_bytes,
            "delta_bytes": delta_bytes,
            "disk_bytes": base_bytes + delta_bytes,
            "delta_segments": len(segments),
            "epoch": epoch,
            "tmp_files": len(self._tmp_paths()),
            "quarantine_files": quarantine_files,
            "checkpoint_retries_used": self.checkpoint_retries_used,
            "tmp_files_reaped": self.tmp_files_reaped,
        }

    def __repr__(self) -> str:
        return f"<SnapshotStore {self.base_path} (+{len(self.delta_paths())} deltas)>"
