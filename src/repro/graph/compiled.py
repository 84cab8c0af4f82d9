"""Compiled CSR snapshots of a :class:`~repro.graph.social_graph.SocialGraph`.

The canonical graph structure is a dict-of-dict adjacency of per-pair
``(label, attributes, ...)`` rows keyed by arbitrary hashable user ids — ideal
for mutation and for the paper-facing API, terrible for the traversal hot
paths: every hop hashes a user id and walks nested dictionaries.

:class:`CompiledGraph` is the derived, rebuildable index layer on top: a
frozen snapshot that interns user ids and relationship labels to dense
integers and stores, per label, forward and reverse adjacency in CSR form
(one ``array('l')`` of offsets, one of targets).  The evaluation engines in
:mod:`repro.reachability` run their product searches entirely on these
integer arrays; user ids, attributes and witness ``Relationship`` objects
are translated back only at the API boundary.

Staleness contract
------------------
``SocialGraph`` stamps every mutation with an ``epoch`` counter.  A snapshot
remembers the epoch it was compiled at; :func:`compile_graph` returns the
cached snapshot while the epoch still matches and transparently brings it up
to date otherwise.  The snapshot is therefore always *lazily* consistent:
engines that call :func:`compile_graph` per query observe every committed
mutation.  Attribute dictionaries are shared with the canonical graph (not
copied), so reads through :meth:`CompiledGraph.attributes_of` always see
current values; only *structural* interning (node set, label set, adjacency)
needs refreshing.

Delta maintenance
-----------------
Refreshing used to mean one O(|V| + |E|) rebuild per burst of mutations —
rebuild-dominated as soon as the workload interleaves writes with queries.
``SocialGraph`` now keeps a bounded **mutation journal** next to the epoch,
and :func:`compile_graph` asks it for the exact operations committed since
the snapshot's epoch.  When the journal covers the gap,
:meth:`CompiledGraph.apply_deltas` patches the snapshot *in place* in
O(|delta|):

* **attribute writes** need no structural work at all (the dicts are
  shared) — the patch is a pure epoch advance plus derived-state policy
  sweep, which is what makes attribute-hot workloads cheap again;
* **user adds** append to the interned id maps and extend every CSR offset
  array by one (amortized O(labels) per user);
* **edge adds / removes** materialise the touched *out-row* (forward side)
  and *in-row* (backward side) of the label into a small per-label **row
  overlay** — ``{node: array}`` — over the untouched base CSR.  Every
  reader that wants one row (the traversal loops, ``out_neighbors``,
  ``out_degree``) takes the overlay entry when there is one and the base
  slice otherwise, so a patched edge is visible at once and nothing is
  re-derived: one op costs O(degree of the two touched rows).  The overlay
  is **folded** into a fresh CSR pair only when it outgrows a share of the
  label's own size (``_FOLD_SHARE`` — amortised O(1) per op), or when a
  whole-graph consumer asks for the raw arrays through
  :meth:`CompiledGraph.forward` / :meth:`~CompiledGraph.backward`
  (``snapshot.save``, ``compacted()``, the transitive closure, the sharding
  partitioner and summaries, the crash simulator).  A point query never
  triggers a fold.  Untouched labels keep their arrays
  byte-for-byte, and a mapped base is never written: overlay rows and folded
  pairs are always private arrays;
* **edge counts are maintained, not rescanned**: every journal edge op is
  a real +1/-1 change (the graph rejects duplicate adds and absent
  removes), so the patch steps the label's edge count in O(1);
* **user removals** tombstone the slot: the dense index is kept but marked
  dead — every sweep skips it, and the next ``add_user`` reuses the slot
  for the new user.  The
  removed user's incident edges arrive as *preceding* ``remove_edge`` ops
  (``SocialGraph.remove_user`` journals them first), so the tombstone
  itself is O(1) bookkeeping;
* **journal overflow**, foreign epochs, or any other inconsistency abort
  the patch — :func:`compile_graph` falls back to the full rebuild, which
  remains the semantics-defining reference path.

Entries in :attr:`CompiledGraph.derived` declare how deltas affect them via
:func:`register_derived_policy`: ``"structural"`` entries (the interned line
index, the denial filter and the denial work that pays for it) survive
attribute-only patches and are dropped by structural ones, ``"keep"`` entries manage their own freshness, and
everything else is conservatively dropped by any patch.  Long-lived
consumers that require the frozen build-time structure (the cluster
backend's stale-read contract) call :meth:`CompiledGraph.pin`; a pinned
snapshot is never patched — the next refresh builds a fresh object and
leaves the pinned one untouched.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, islice, repeat
from operator import sub
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graph.social_graph import Relationship, SocialGraph, UserId

__all__ = [
    "CompiledGraph",
    "build_csr",
    "compile_graph",
    "register_derived_policy",
    "require_social_graph",
]

#: CSR adjacency: ``targets[offsets[u]:offsets[u + 1]]`` are ``u``'s neighbours.
CSR = Tuple[array, array]

_SNAPSHOT_ATTR = "_compiled_snapshot"

#: Sentinel parked in :attr:`CompiledGraph.node_ids` at tombstoned slots.
#: Never a valid user id, unhashable lookups can't alias it, and any code
#: that leaks it into output fails loudly instead of resurrecting the user.
_TOMBSTONE = object()

#: One label's adjacency as row readers see it: the base CSR pair plus the
#: overlay of rows patched since the pair was built.  ``node``'s row is
#: ``overlay[node]`` when the overlay is non-empty and has the node, else
#: ``targets[offsets[node]:offsets[node + 1]]``.
RowView = Tuple[Sequence[int], Sequence[int], Dict[int, array]]

#: Edge ops as :meth:`CompiledGraph._patch_edge` applies them: the change in
#: the label's edge count and in both touched rows' length.
_ADD, _REMOVE = 1, -1

#: A label's row overlay is folded into a fresh CSR pair once it holds more
#: than ``1 / _FOLD_SHARE`` of the entries of the label's own CSR (offsets
#: plus targets).  A fold costs O(that CSR) and an edge op grows the overlay
#: by at most what the op itself copied, so the fold is amortised O(1) per
#: op and the overlay's memory stays a fixed share of the label's.
_FOLD_SHARE = 8

#: How mutation deltas affect one :attr:`CompiledGraph.derived` entry.
#: ``"always"`` (the conservative default for unregistered keys) drops the
#: entry on any patch; ``"structural"`` keeps it across attribute-only
#: patches; ``"keep"`` never drops it — the entry manages its own freshness.
_DERIVED_POLICIES: Dict[str, str] = {}


def register_derived_policy(name: str, policy: str) -> None:
    """Declare how delta patches treat derived entries named ``name``.

    ``name`` matches a ``derived`` key directly, or the first element of a
    tuple key (the interned line index registers ``"line-index"`` and stores
    under ``("line-index", orientation)``).  ``policy`` is ``"always"``,
    ``"structural"`` or ``"keep"`` as described on the module.
    """
    if policy not in ("always", "structural", "keep"):
        raise ValueError(f"unknown derived policy {policy!r}")
    _DERIVED_POLICIES[name] = policy



def build_csr(pairs: Sequence[Tuple[int, int]], node_count: int) -> CSR:
    """Counting-sort ``(source, target)`` int pairs into a CSR adjacency.

    The CSR builder for pair lists — the snapshot's merged-adjacency folds
    and :meth:`CompiledGraph.compacted`, :mod:`repro.reachability.scc` and
    every dense structure in :mod:`repro.reachability.interned` go through
    it.  A fresh compile appends rows straight into arrays and reverses
    them with :func:`_transpose` instead, so it holds no pair list.
    """
    counts = [0] * node_count
    for source, _target in pairs:
        counts[source] += 1
    offsets = array("l", [0]) * (node_count + 1)
    total = 0
    for node in range(node_count):
        offsets[node] = total
        total += counts[node]
    offsets[node_count] = total
    cursor = offsets.tolist()
    targets = array("l", [0]) * total
    for source, target in pairs:
        targets[cursor[source]] = target
        cursor[source] += 1
    return offsets, targets


def _transpose(csr: CSR) -> CSR:
    """Return the reverse of a CSR adjacency over the same node range.

    A stable counting sort: each reverse row lists its sources in ascending
    order — what :func:`build_csr` makes of the flipped pairs — without
    materialising the pairs.
    """
    offsets, targets = csr
    count = len(offsets) - 1
    degrees = [0] * count
    for target in targets:
        degrees[target] += 1
    reverse_offsets = array("l", accumulate(degrees, initial=0))
    del degrees
    cursor = reverse_offsets.tolist()
    sources = array("l", [0]) * len(targets)
    row_of = chain.from_iterable(
        map(repeat, range(count), map(sub, islice(offsets, 1, None), offsets))
    )
    for source, target in zip(row_of, targets):
        slot = cursor[target]
        sources[slot] = source
        cursor[target] = slot + 1
    return reverse_offsets, sources


#: Byte width of one CSR entry on this platform (``array('l')`` item size).
_ITEMSIZE = array("l").itemsize


def _copy_ints(values) -> array:
    """Return a private ``array('l')`` copy of an array or int-memoryview.

    Memory-mapped snapshots expose their CSR halves as read-only
    ``memoryview`` casts; copy-on-write paths funnel through here so the
    copy stays a C-level ``frombytes`` whenever the item widths line up.
    """
    if isinstance(values, memoryview) and values.itemsize == _ITEMSIZE:
        fresh = array("l")
        fresh.frombytes(values.tobytes())
        return fresh
    return array("l", values)


def _extend_ints(destination: array, values) -> None:
    """Append an array slice or int-memoryview slice to ``destination``."""
    if isinstance(values, memoryview) and values.itemsize == _ITEMSIZE:
        destination.frombytes(values.tobytes())
    else:
        destination.extend(values)


def _read_row(csr: CSR, overlay: Dict[int, array], node: int):
    """``node``'s row of one adjacency half: the overlay entry, else the base slice."""
    row = overlay.get(node) if overlay else None
    if row is None:
        offsets, targets = csr
        row = targets[offsets[node]:offsets[node + 1]]
    return row


def _own_row(csr: CSR, overlay: Dict[int, array], node: int) -> array:
    """``node``'s editable overlay row, materialised from the base on first touch."""
    row = overlay.get(node)
    if row is None:
        offsets, targets = csr
        row = overlay[node] = _copy_ints(targets[offsets[node]:offsets[node + 1]])
    return row


def _stitch_csr(offsets, targets, rows: Mapping[int, array]) -> CSR:
    """Replace the rows in ``rows`` of a CSR pair without a full rebuild.

    Untouched stretches of ``targets`` are moved by C-level slice copies;
    per-element interpreter work is confined to one offset-shift pass over
    the suffix starting at the first replaced row.  The base pair may be
    plain arrays or a mapped snapshot's read-only memoryviews — the output
    is always a pair of private arrays (this *is* the copy-on-write step).
    """
    affected = sorted(rows)
    new_targets = array("l")
    row_delta: List[int] = []
    prev_end = 0
    for node in affected:
        start, end = offsets[node], offsets[node + 1]
        _extend_ints(new_targets, targets[prev_end:start])
        row = rows[node]
        new_targets += row
        row_delta.append(len(row) - (end - start))
        prev_end = end
    _extend_ints(new_targets, targets[prev_end:])

    new_offsets = _copy_ints(offsets)  # C-level copy; suffix rewritten below
    last = len(offsets) - 1
    shift = 0
    for position, node in enumerate(affected):
        shift += row_delta[position]
        next_node = affected[position + 1] if position + 1 < len(affected) else last
        if shift:
            new_offsets[node + 1:next_node + 1] = array(
                "l", map(shift.__add__, offsets[node + 1:next_node + 1])
            )
    return new_offsets, new_targets


class CompiledGraph:
    """An integer-interned CSR snapshot of one :class:`SocialGraph`.

    Structurally frozen between refreshes: queries between two mutations see
    one immutable view.  A refresh either patches the snapshot in place
    through :meth:`apply_deltas` (journal-covered mutation bursts) or
    replaces it with a fresh build — see the module docstring for the
    contract, and :meth:`pin` for consumers that must keep the build-time
    structure forever.
    """

    __slots__ = (
        "graph",
        "epoch",
        "node_ids",
        "node_index",
        "labels",
        "label_index",
        "attrs",
        "_forward",
        "_backward",
        "_forward_all",
        "_backward_all",
        "derived",
        "_out_overlay",
        "_in_overlay",
        "_overlay_cells",
        "_label_edges",
        "_merged_pending",
        "_free_slots",
        "_dead",
        "_pinned",
        "delta_events",
        "_mapped",
        "_offsets_private",
        "_backing",
    )

    def __init__(self, graph: SocialGraph) -> None:
        self.graph = graph
        self.epoch: int = getattr(graph, "epoch", 0)
        #: dense index -> user id, in the graph's (deterministic) insertion order
        self.node_ids: List[UserId] = list(graph.users())
        #: user id -> dense index
        self.node_index: Dict[UserId, int] = {
            user: index for index, user in enumerate(self.node_ids)
        }
        #: dense label id -> label (sorted, matching ``SocialGraph.labels()``)
        self.labels: Tuple[str, ...] = graph.labels()
        self.label_index: Dict[str, int] = {
            label: index for index, label in enumerate(self.labels)
        }
        #: dense index -> live attribute mapping (shared with the graph)
        self.attrs: List[Mapping[str, Any]] = [
            graph._nodes[user] for user in self.node_ids
        ]
        # One walk in index order appends each row straight into the
        # forward arrays (no per-edge pairs are materialised); the merged
        # adjacency collapses parallel labels to one entry per pair, which
        # is enough for plain reachability sweeps.
        node_index = self.node_index
        label_index = self.label_index
        label_offsets = [array("l", [0]) for _ in self.labels]
        label_targets = [array("l") for _ in self.labels]
        append_to = [targets.append for targets in label_targets]
        forward = list(zip(label_offsets, label_targets))
        merged_offsets = array("l", [0])
        merged_targets = array("l")
        append_merged = merged_targets.append
        rows = graph._succ
        for user in self.node_ids:
            for target, row in rows[user].items():
                target_index = node_index[target]
                append_merged(target_index)
                for slot in range(0, len(row), 2):
                    append_to[label_index[row[slot]]](target_index)
            merged_offsets.append(len(merged_targets))
            for offsets, targets in forward:
                offsets.append(len(targets))
        self._forward: List[CSR] = forward
        self._backward: List[CSR] = [_transpose(csr) for csr in forward]
        self._forward_all: CSR = (merged_offsets, merged_targets)
        self._backward_all: CSR = _transpose(self._forward_all)
        #: derived per-snapshot indexes (e.g. the interned line index),
        #: keyed by the deriving module; they share this snapshot's lifetime,
        #: so epoch-based invalidation comes for free.  Delta patches sweep
        #: the dict through :func:`register_derived_policy`.
        self.derived: Dict[Any, Any] = {}
        # Persistence state: a freshly compiled snapshot owns private arrays;
        # a memory-mapped one (from_mapping) flips these and carries the mmap
        # objects keeping its buffers alive.
        self._mapped = False
        self._offsets_private = True
        self._backing: Tuple[Any, ...] = ()
        self._reset_delta_state()

    def _reset_delta_state(self) -> None:
        """Start delta maintenance over the CSR pairs just installed."""
        # Per label: the row overlays of both sides, how many array entries
        # they hold (one per row plus the rows' contents — the fold trigger),
        # and the exact edge count.
        self._out_overlay: List[Dict[int, array]] = [{} for _ in self.labels]
        self._in_overlay: List[Dict[int, array]] = [{} for _ in self.labels]
        self._overlay_cells: List[int] = [0] * len(self.labels)
        self._label_edges: List[int] = [offsets[-1] for offsets, _ in self._forward]
        # The merged adjacency is read by whole-graph consumers only and is
        # still brought up to date lazily, from the pairs queued here.
        self._merged_pending: List[Tuple[int, int]] = []
        # Tombstone state: slots freed by remove_user deltas, reusable (LIFO)
        # by the next add_user patch.  ``_dead`` is the membership view the
        # sweep cores consult through :attr:`dead_slots`.
        self._free_slots: List[int] = []
        self._dead: Set[int] = set()
        self._pinned = False
        #: Counters for benchmarks/tests.  Events: patches applied, ops
        #: absorbed, label folds and merged-adjacency compactions performed,
        #: slots tombstoned and reused.  Exact work: CSR target entries
        #: written by label folds, journal entries :func:`compile_graph` had
        #: visited.
        self.delta_events: Dict[str, int] = {
            "applies": 0,
            "ops": 0,
            "label_compactions": 0,
            "merged_compactions": 0,
            "tombstones": 0,
            "slot_reuses": 0,
            "fold_entries_copied": 0,
            "journal_entries_visited": 0,
        }

    @classmethod
    def from_mapping(
        cls,
        *,
        node_ids: Sequence[UserId],
        attrs: Sequence[Mapping[str, Any]],
        labels: Sequence[str],
        forward: Sequence[CSR],
        backward: Sequence[CSR],
        forward_all: CSR,
        backward_all: CSR,
        epoch: int,
        graph: Optional[SocialGraph] = None,
        backing: Tuple[Any, ...] = (),
    ) -> "CompiledGraph":
        """Wrap already-built CSR buffers (typically mmap views) as a snapshot.

        This is the zero-copy constructor behind
        :class:`~repro.graph.snapshot.SnapshotStore`: the CSR halves are used
        *as given* — memory-mapped ``memoryview`` casts index exactly like
        ``array('l')`` in every traversal core — and ``backing`` keeps the
        underlying ``mmap`` / file objects alive for the snapshot's lifetime.

        The result is fully functional standalone (``graph=None``): attribute
        conditions read the deserialized ``attrs`` dicts and witness
        :class:`Relationship` objects are synthesized from the CSR (without
        edge attributes).  Mutation paths copy-on-write: the first structural
        patch privatizes the offset arrays it must extend, patched rows are
        private copies in the row overlay and folds always emit private
        arrays, so a mapped region itself is never written through.
        """
        snapshot = cls.__new__(cls)
        snapshot.graph = graph
        snapshot.epoch = epoch
        snapshot.node_ids = list(node_ids)
        snapshot.node_index = {
            user: index for index, user in enumerate(snapshot.node_ids)
        }
        snapshot.labels = tuple(labels)
        snapshot.label_index = {
            label: index for index, label in enumerate(snapshot.labels)
        }
        # Accept any list-like attribute table as-is: the loader hands over a
        # lazily-parsed view so warm starts never pay the JSON decode, and a
        # plain list is simply donated.
        snapshot.attrs = attrs if callable(getattr(attrs, "append", None)) else list(attrs)
        snapshot._forward = list(forward)
        snapshot._backward = list(backward)
        snapshot._forward_all = forward_all
        snapshot._backward_all = backward_all
        snapshot.derived = {}
        snapshot._mapped = True
        snapshot._offsets_private = False
        snapshot._backing = tuple(backing)
        snapshot._reset_delta_state()
        return snapshot

    # -------------------------------------------------------------- identity

    def is_stale(self) -> bool:
        """Whether the canonical graph has mutated since this snapshot was built."""
        return self.epoch != getattr(self.graph, "epoch", self.epoch)

    @property
    def pinned(self) -> bool:
        """Whether :meth:`pin` excluded this snapshot from in-place patching."""
        return self._pinned

    @property
    def mapped(self) -> bool:
        """Whether this snapshot was loaded zero-copy from a memory mapping."""
        return self._mapped

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR adjacency buffers (mapped or private).

        Counts every per-label and merged offsets/targets buffer plus the
        row overlays (one entry per patched row and one per neighbour in it)
        and the queued merged-adjacency pairs; interned id maps and attribute
        dicts are Python objects and excluded.  This is the number the index-size
        accounting (``GraphService.statistics`` /
        ``SnapshotStore.stat``) reports.
        """

        def _buffer_bytes(buffer) -> int:
            if isinstance(buffer, memoryview):
                return buffer.nbytes
            return len(buffer) * buffer.itemsize

        total = 0
        for csr_list in (self._forward, self._backward):
            for offsets, targets in csr_list:
                total += _buffer_bytes(offsets) + _buffer_bytes(targets)
        for offsets, targets in (self._forward_all, self._backward_all):
            total += _buffer_bytes(offsets) + _buffer_bytes(targets)
        total += (sum(self._overlay_cells) + len(self._merged_pending) * 2) * _ITEMSIZE
        return total

    @property
    def overlay_rows(self) -> int:
        """Rows patched since their label's last fold (out- and in-rows)."""
        return sum(map(len, self._out_overlay)) + sum(map(len, self._in_overlay))

    def pin(self) -> "CompiledGraph":
        """Freeze this snapshot's structure for its remaining lifetime.

        A pinned snapshot is never patched — :meth:`apply_deltas` refuses
        it, with no exception: once the graph mutates, the next refresh
        builds a *new* snapshot object and this one keeps the build-time
        structure forever.  Long-lived consumers with stale-read semantics
        (the cluster index answers every query from the snapshot captured at
        ``build()``) pin so that delta maintenance for everyone else cannot
        mutate the state they hold; to see newer structure they rebuild on
        a fresh snapshot.  Returns ``self`` for chaining.
        """
        self._pinned = True
        return self

    def number_of_nodes(self) -> int:
        """Return the number of dense slots (live *and* tombstoned).

        This is the size every per-node array is indexed by — sweep cores
        allocate over it.  For the number of users the snapshot actually
        represents, see :meth:`number_of_live_nodes`.
        """
        return len(self.node_ids)

    def number_of_live_nodes(self) -> int:
        """Return ``|V|`` excluding tombstoned slots — the live user count."""
        return len(self.node_ids) - len(self._dead)

    @property
    def dead_slots(self) -> frozenset:
        """Dense indices tombstoned by ``remove_user`` deltas (usually empty).

        Sweep cores skip these slots when seeding; they carry no edges (the
        canonical graph removes incident relationships before the user, so
        the preceding ``remove_edge`` deltas empty the rows) and their
        attribute entries are ``None``.
        """
        return frozenset(self._dead)

    def number_of_labels(self) -> int:
        """Return the size of the interned label alphabet."""
        return len(self.labels)

    def index_of(self, user: UserId) -> int:
        """Return the dense index of ``user`` (raises :class:`NodeNotFoundError`)."""
        try:
            return self.node_index[user]
        except (KeyError, TypeError):
            raise NodeNotFoundError(user) from None

    def user_of(self, index: int) -> UserId:
        """Return the user id interned at ``index``."""
        return self.node_ids[index]

    def label_id(self, label: str) -> int:
        """Return the dense id of ``label``, or ``-1`` when the graph has no such edges."""
        return self.label_index.get(label, -1)

    def attributes_of(self, index: int) -> Mapping[str, Any]:
        """Return the (live) attribute mapping of the node at ``index``."""
        return self.attrs[index]

    # ------------------------------------------------------------- adjacency

    def forward(self, label_id: Optional[int] = None) -> CSR:
        """Return the forward CSR ``(offsets, targets)`` for one label (or merged).

        The whole-graph read: the returned arrays are complete, so a label's
        row overlay is folded into a fresh pair first (and the merged
        adjacency brought up to date) — consumers iterate the arrays raw.
        Readers that want single rows use :meth:`out_rows` /
        :meth:`out_neighbors` instead, which never fold.
        """
        if label_id is None:
            if self._merged_pending:
                self._compact_merged()
            return self._forward_all
        if self._out_overlay[label_id]:
            self._fold_label(label_id)
        return self._forward[label_id]

    def backward(self, label_id: Optional[int] = None) -> CSR:
        """Return the reverse CSR ``(offsets, sources)`` for one label (or merged)."""
        if label_id is None:
            if self._merged_pending:
                self._compact_merged()
            return self._backward_all
        if self._in_overlay[label_id]:
            self._fold_label(label_id)
        return self._backward[label_id]

    def out_rows(self, label_id: int) -> RowView:
        """Return one label's forward adjacency as ``(offsets, targets, overlay)``.

        The row-at-a-time read the traversal loops use (see :data:`RowView`):
        no fold, O(1).  The view stays self-consistent for the epoch it was
        taken in — a fold installs a new pair *and* a new overlay dict.
        """
        offsets, targets = self._forward[label_id]
        return offsets, targets, self._out_overlay[label_id]

    def in_rows(self, label_id: int) -> RowView:
        """Return one label's reverse adjacency as ``(offsets, sources, overlay)``."""
        offsets, sources = self._backward[label_id]
        return offsets, sources, self._in_overlay[label_id]

    def _half(self, label_id: Optional[int], forward: bool) -> Tuple[CSR, Dict[int, array]]:
        """One adjacency half for single-row reads: its CSR pair and overlay
        (the merged adjacency is brought up to date and has no overlay)."""
        if label_id is None:
            return (self.forward(None) if forward else self.backward(None)), {}
        if forward:
            return self._forward[label_id], self._out_overlay[label_id]
        return self._backward[label_id], self._in_overlay[label_id]

    def _neighbors(self, index: int, label_id: Optional[int], forward: bool) -> array:
        (offsets, targets), overlay = self._half(label_id, forward)
        row = overlay.get(index)
        if row is not None:
            return row[:]  # the overlay row is live patch state: hand out a copy
        return targets[offsets[index]:offsets[index + 1]]

    def _degree(self, index: int, label_id: Optional[int], forward: bool) -> int:
        (offsets, _targets), overlay = self._half(label_id, forward)
        row = overlay.get(index)
        return offsets[index + 1] - offsets[index] if row is None else len(row)

    def out_neighbors(self, index: int, label_id: Optional[int] = None) -> array:
        """Return the targets of edges leaving the node at ``index`` (never folds)."""
        return self._neighbors(index, label_id, True)

    def in_neighbors(self, index: int, label_id: Optional[int] = None) -> array:
        """Return the sources of edges entering the node at ``index`` (never folds)."""
        return self._neighbors(index, label_id, False)

    def out_degree(self, index: int, label_id: Optional[int] = None) -> int:
        """Return the snapshot out-degree of the node at ``index``."""
        return self._degree(index, label_id, True)

    def in_degree(self, index: int, label_id: Optional[int] = None) -> int:
        """Return the snapshot in-degree of the node at ``index``."""
        return self._degree(index, label_id, False)

    def number_of_edges(self, label_id: Optional[int] = None) -> int:
        """Return the number of edges of one label (or of distinct node pairs)."""
        if label_id is None:
            return self.forward(None)[0][-1]
        return self._label_edges[label_id]

    # ------------------------------------------------------ delta maintenance

    def apply_deltas(
        self, deltas: Sequence[Tuple[Any, ...]], *, epoch: Optional[int] = None
    ) -> bool:
        """Patch this snapshot in place with a journal-covered mutation burst.

        ``deltas`` is what :meth:`SocialGraph.mutations_since` returned for
        the span between this snapshot's epoch and the live one, oldest
        first.  Returns ``True`` when the patch succeeded (the snapshot's
        epoch now matches the graph's); ``False`` when the burst cannot be
        absorbed — an operation referencing unknown state, or any internal
        inconsistency — in which case the caller must fall back to a full
        rebuild and discard this object.  A failed patch may leave the
        snapshot between epochs, but ``is_stale()`` then stays true, so no
        consumer that checks freshness can observe it.

        ``remove_user`` ops **tombstone** the slot instead of aborting: the
        dense index is marked dead (see :attr:`dead_slots`), its incident
        edges having already arrived as the preceding ``remove_edge`` ops,
        and the next ``add_user`` reuses the slot.  Remove-heavy churn
        therefore patches in O(|delta|) like everything else.

        Ops may carry an attribute payload (``("add_user", u, attrs)`` /
        ``("update_user", u, attrs)``) — the persisted-delta form replayed
        by :class:`~repro.graph.snapshot.SnapshotStore` onto snapshots with
        no live graph attached; live-journal ops omit it because attribute
        dicts are shared with the graph.  ``epoch`` pins the post-patch
        epoch for persisted replays; by default the patch advances to the
        attached graph's live epoch.

        Cost: O(|delta| + degree of the touched rows) per call.  An edge op
        edits its out-row and in-row in the label's row overlay and steps
        the label's edge count; a label is folded into a fresh CSR
        pair here only when its overlay has outgrown ``1 / _FOLD_SHARE`` of
        the label's own size.
        """
        if self._pinned:
            return False
        try:
            structural = False
            for op in deltas:
                kind = op[0]
                if kind == "update_user":
                    if len(op) > 2 and self.graph is None:
                        # Persisted replay without a live graph: install the
                        # payload (the attrs at checkpoint time) directly.
                        self.attrs[self.node_index[op[1]]] = dict(op[2])
                    continue  # attached: attribute dicts are shared
                structural = True
                if kind == "add_user":
                    self._patch_add_user(op[1], op[2] if len(op) > 2 else None)
                elif kind == "remove_user":
                    self._patch_remove_user(op[1])
                elif kind == "add_edge":
                    self._patch_edge(_ADD, op[1], op[2], op[3])
                elif kind == "remove_edge":
                    self._patch_edge(_REMOVE, op[1], op[2], op[3])
                else:
                    return False
        except (KeyError, IndexError, ValueError):
            return False  # incl. a duplicate add / absent remove: out of sync
        self._sweep_derived(structural)
        if epoch is not None:
            self.epoch = epoch
        else:
            self.epoch = getattr(self.graph, "epoch", self.epoch)
        self.delta_events["applies"] += 1
        self.delta_events["ops"] += len(deltas)
        return True

    def _privatize_offsets(self) -> None:
        """Copy-on-write: replace mapped offset views with private arrays.

        ``_patch_add_user`` appends one slot to every offsets array; a mapped
        snapshot's offsets are read-only memoryviews, so the first such patch
        converts them all (one C-level copy each, O(|V|) per array).  Targets
        stay mapped: nothing mutates them in place — patched rows are private
        copies in the overlay and folds emit fresh private arrays per label.
        """
        for csr_list in (self._forward, self._backward):
            for label_id, (offsets, targets) in enumerate(csr_list):
                if not isinstance(offsets, array):
                    csr_list[label_id] = (_copy_ints(offsets), targets)
        if not isinstance(self._forward_all[0], array):
            self._forward_all = (_copy_ints(self._forward_all[0]), self._forward_all[1])
        if not isinstance(self._backward_all[0], array):
            self._backward_all = (
                _copy_ints(self._backward_all[0]),
                self._backward_all[1],
            )
        self._offsets_private = True

    def _patch_add_user(
        self, user: UserId, attrs: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Intern one added user: extend the id maps and every offset array.

        ``attrs`` is the persisted-delta payload; without it the live
        graph's (shared) attribute dict is linked, exactly like at build.
        A tombstoned slot is reused (LIFO) before the arrays grow: its CSR
        rows are already logically empty, so rebinding the id maps and the
        attribute entry is the whole patch.
        """
        if user in self.node_index:
            raise KeyError(user)  # journal out of sync with the snapshot
        if self._free_slots:
            index = self._free_slots.pop()
            self._dead.discard(index)
            self.node_ids[index] = user
            self.node_index[user] = index
            self.attrs[index] = self._added_attrs(user, attrs)
            self.delta_events["slot_reuses"] += 1
            return
        if not self._offsets_private:
            self._privatize_offsets()
        index = len(self.node_ids)
        self.node_ids.append(user)
        self.node_index[user] = index
        self.attrs.append(self._added_attrs(user, attrs))
        for csr_list in (self._forward, self._backward):
            for offsets, _targets in csr_list:
                offsets.append(offsets[-1])
        self._forward_all[0].append(self._forward_all[0][-1])
        self._backward_all[0].append(self._backward_all[0][-1])

    def _added_attrs(
        self, user: UserId, attrs: Optional[Mapping[str, Any]]
    ) -> Mapping[str, Any]:
        """Resolve the attribute entry for one ``add_user`` patch.

        Preference order: the persisted payload, then the live graph's
        shared dict.  A user the live graph no longer knows is removed again
        *later in the same burst* (the dict is already gone) — a placeholder
        suffices, since the trailing ``remove_user`` tombstones the slot
        before any query can read it.
        """
        if attrs is not None:
            return dict(attrs)
        if self.graph is None:
            raise KeyError(user)  # standalone snapshot needs the payload
        entry = self.graph._nodes.get(user)
        return {} if entry is None else entry

    def _patch_remove_user(self, user: UserId) -> None:
        """Tombstone one removed user's dense slot.

        The canonical graph removes every incident relationship *before*
        recording ``remove_user`` (and the journal preserves order), so by
        the time this op is patched the slot's rows are emptied by the
        preceding ``remove_edge`` ops (empty overlay rows; the base rows
        under them go at the next fold).  The tombstone itself is O(1): the
        id maps forget the user, the slot is marked dead (sweeps skip it
        through :attr:`dead_slots`) and parked for reuse by the next
        ``add_user``.
        """
        index = self.node_index.pop(user)  # KeyError aborts the patch
        self.node_ids[index] = _TOMBSTONE
        self.attrs[index] = None  # accidental reads fail loudly
        self._dead.add(index)
        self._free_slots.append(index)
        self.delta_events["tombstones"] += 1

    def _patch_edge(self, op: int, source: UserId, target: UserId, label: str) -> None:
        """Apply one edge op to its label's row overlay and edge count."""
        source_index = self.node_index[source]
        target_index = self.node_index[target]
        label_id = self.label_index.get(label)
        if label_id is None:
            label_id = self._intern_label(label)
        forward = self._forward[label_id]
        grown = self._patch_row(
            forward, self._out_overlay[label_id], source_index, target_index, op
        ) + self._patch_row(
            self._backward[label_id], self._in_overlay[label_id],
            target_index, source_index, op,
        )
        self._label_edges[label_id] += op
        cells = self._overlay_cells[label_id] = self._overlay_cells[label_id] + grown
        self._merged_pending.append((source_index, target_index))
        if cells * _FOLD_SHARE > len(forward[0]) + len(forward[1]):
            self._fold_label(label_id)

    @staticmethod
    def _patch_row(
        csr: CSR,
        overlay: Dict[int, array],
        node: int,
        neighbor: int,
        op: int,
    ) -> int:
        """Add or remove ``neighbor`` in ``node``'s overlay row (materialised
        from the base on first touch); return the growth in overlay cells.

        A duplicate add or an absent remove means the ops are out of sync
        with the snapshot: ``ValueError`` aborts the patch.
        """
        fresh = node not in overlay
        row = _own_row(csr, overlay, node)
        degree = len(row)
        if op == _ADD:
            if neighbor in row:
                raise ValueError(neighbor)
            row.append(neighbor)
        else:
            row.remove(neighbor)
        return op + (degree + 1 if fresh else 0)

    def _intern_label(self, label: str) -> int:
        """Extend the label alphabet with a label first seen after the build."""
        label_id = len(self.labels)
        self.labels = self.labels + (label,)
        self.label_index[label] = label_id
        count = len(self.node_ids)
        empty_offsets = array("l", [0]) * (count + 1)
        self._forward.append((empty_offsets, array("l")))
        self._backward.append((array("l", empty_offsets), array("l")))
        self._out_overlay.append({})
        self._in_overlay.append({})
        self._overlay_cells.append(0)
        self._label_edges.append(0)
        return label_id

    def _fold_label(self, label_id: int) -> None:
        """Fold a label's row overlay into a fresh CSR pair.

        A **stitch**: untouched stretches of the targets array are copied
        wholesale (C-level slice copies), the overlay rows dropped in
        between, and per-element Python work is limited to one O(|V|)
        offset-shift pass.  The label gets *new* overlay dicts, so row
        views handed out earlier stay self-consistent, and the logical
        adjacency — hence the edge count — is unchanged.
        """
        self._forward[label_id] = _stitch_csr(
            *self._forward[label_id], self._out_overlay[label_id]
        )
        self._backward[label_id] = _stitch_csr(
            *self._backward[label_id], self._in_overlay[label_id]
        )
        self._out_overlay[label_id] = {}
        self._in_overlay[label_id] = {}
        self._overlay_cells[label_id] = 0
        self.delta_events["label_compactions"] += 1
        self.delta_events["fold_entries_copied"] += 2 * self._label_edges[label_id]

    def _compact_merged(self) -> None:
        """Bring the merged (label-collapsed) adjacency up to date.

        The merged view holds one entry per distinct ``(source, target)``
        pair across all labels, so an edge delta's effect on it depends on
        the *other* labels too.  The queued candidate pairs are resolved
        authoritatively against the per-label rows (overlay-aware, so no
        label is folded for this) — present anywhere vs present in the
        merged base — and the edited rows are stitched in exactly like a
        label fold.  Only when the candidate set rivals the merged size
        does this fall back to the full per-element rebuild, so a burst
        touching few edges never pays O(|E|) interpreter work for the
        merged view either.
        """
        pending = self._merged_pending
        self._merged_pending = []
        count = len(self.node_ids)
        offsets, targets = self._forward_all
        candidates = set(pending)
        if candidates and len(candidates) * 2 <= offsets[-1]:
            label_rows = list(zip(self._forward, self._out_overlay))
            out_rows: Dict[int, array] = {}
            in_rows: Dict[int, array] = {}
            reverse = self._backward_all
            for source, target in candidates:
                anywhere = any(
                    target in _read_row(csr, overlay, source)
                    for csr, overlay in label_rows
                )
                if anywhere == (target in _read_row(self._forward_all, out_rows, source)):
                    continue
                out_row = _own_row(self._forward_all, out_rows, source)
                in_row = _own_row(reverse, in_rows, target)
                if anywhere:
                    out_row.append(target)
                    in_row.append(source)
                else:
                    out_row.remove(target)
                    in_row.remove(source)
            if out_rows:
                self._forward_all = _stitch_csr(offsets, targets, out_rows)
                self._backward_all = _stitch_csr(*reverse, in_rows)
        else:
            distinct: Set[Tuple[int, int]] = set()
            for label_id in range(len(self.labels)):
                label_offsets, label_targets = self.forward(label_id)
                for source in range(len(label_offsets) - 1):
                    for cursor in range(label_offsets[source], label_offsets[source + 1]):
                        distinct.add((source, label_targets[cursor]))
            pairs = list(distinct)
            self._forward_all = build_csr(pairs, count)
            self._backward_all = build_csr(
                [(target, source) for source, target in pairs], count
            )
        self.delta_events["merged_compactions"] += 1

    def _sweep_derived(self, structural: bool) -> None:
        """Apply the registered invalidation policies to ``derived`` entries."""
        for key in list(self.derived):
            name = key[0] if isinstance(key, tuple) else key
            policy = _DERIVED_POLICIES.get(name, "always")
            if policy == "keep":
                continue
            if policy == "structural" and not structural:
                continue
            del self.derived[key]

    def compacted(self) -> "CompiledGraph":
        """Return an equivalent snapshot with every tombstoned slot squeezed out.

        Returns ``self`` when all slots are live (the common case — no work,
        no copy).  Otherwise the row overlays are folded, live slots are
        renumbered densely (insertion order preserved) and every CSR pair is
        rebuilt over the live index space.  The persistence layer serializes
        through this, so the on-disk format never carries a tombstone and
        stays byte-compatible with pre-tombstone readers.
        """
        if not self._dead:
            return self
        for label_id in range(len(self.labels)):
            self.forward(label_id)  # fold the overlay: CSRs become authoritative
        self.forward(None)
        remap: Dict[int, int] = {}
        node_ids: List[UserId] = []
        attrs: List[Mapping[str, Any]] = []
        for index, user in enumerate(self.node_ids):
            if index in self._dead:
                continue
            remap[index] = len(node_ids)
            node_ids.append(user)
            attrs.append(self.attrs[index])
        count = len(node_ids)

        def _rebuild(offsets, targets) -> CSR:
            pairs: List[Tuple[int, int]] = []
            for source in range(len(offsets) - 1):
                mapped = remap.get(source)
                if mapped is None:
                    continue  # dead slot: row is empty post-fold anyway
                for cursor in range(offsets[source], offsets[source + 1]):
                    pairs.append((mapped, remap[targets[cursor]]))
            return build_csr(pairs, count)

        clone = CompiledGraph.__new__(CompiledGraph)
        clone.graph = self.graph
        clone.epoch = self.epoch
        clone.node_ids = node_ids
        clone.node_index = {user: index for index, user in enumerate(node_ids)}
        clone.labels = self.labels
        clone.label_index = dict(self.label_index)
        clone.attrs = attrs
        clone._forward = [_rebuild(*csr) for csr in self._forward]
        clone._backward = [_rebuild(*csr) for csr in self._backward]
        clone._forward_all = _rebuild(*self._forward_all)
        clone._backward_all = _rebuild(*self._backward_all)
        clone.derived = {}
        clone._mapped = False
        clone._offsets_private = True
        clone._backing = ()
        clone._reset_delta_state()
        clone.delta_events = dict(self.delta_events)
        return clone

    # --------------------------------------------------------------- witness

    def relationship(self, source: int, target: int, label_id: int) -> Relationship:
        """Return the :class:`Relationship` behind one CSR edge.

        Witness paths are reconstructed on demand through this lookup, so the
        search cores never touch per-edge objects.  The canonical graph
        builds the value with the edge's live attributes; standalone
        (mapped) snapshots have no graph to consult and synthesize a bare
        edge instead.
        """
        if self.graph is None:
            return Relationship(
                self.node_ids[source], self.node_ids[target], self.labels[label_id]
            )
        return self.graph.get_relationship(
            self.node_ids[source], self.node_ids[target], self.labels[label_id]
        )

    def __repr__(self) -> str:
        dead = f", {len(self._dead)} dead slots" if self._dead else ""
        return (
            f"<CompiledGraph epoch={self.epoch}: {self.number_of_live_nodes()} nodes, "
            f"{self.number_of_edges()} node pairs, {len(self.labels)} labels{dead}>"
        )


def compile_graph(graph: SocialGraph) -> CompiledGraph:
    """Return the (lazily refreshed) compiled snapshot of ``graph``.

    The snapshot is cached on the graph instance and reused until the graph's
    ``epoch`` moves, so repeated queries between mutations share one build.
    When the epoch has moved, the graph's mutation journal is consulted
    first: a journal-covered gap is absorbed by
    :meth:`CompiledGraph.apply_deltas` in O(|delta| + degree of the touched
    rows) — same object, patched in place, with user removals tombstoning
    their slots — and only journal overflow or a :meth:`pinned
    <CompiledGraph.pin>` snapshot fall back to the full O(|V| + |E|) rebuild
    (a fresh object, as before).
    """
    snapshot: Optional[CompiledGraph] = getattr(graph, _SNAPSHOT_ATTR, None)
    if snapshot is not None:
        if not snapshot.is_stale():
            return snapshot
        if not snapshot.pinned:
            visited = graph.journal_entries_visited
            deltas = graph.mutations_since(snapshot.epoch)
            snapshot.delta_events["journal_entries_visited"] += (
                graph.journal_entries_visited - visited
            )
            if deltas is not None and snapshot.apply_deltas(deltas):
                return snapshot
    snapshot = CompiledGraph(graph)
    setattr(graph, _SNAPSHOT_ATTR, snapshot)
    return snapshot


def require_social_graph(graph: object, consumer: str) -> None:
    """Raise the one ``TypeError`` evaluators and index builders give a non-graph.

    They work from ``compile_graph``'s snapshot and the graph's epoch, which
    only a :class:`SocialGraph` has; anything else is told where to go
    instead of being walked by a second, duck-typed code path.
    """
    if not isinstance(graph, SocialGraph):
        raise TypeError(
            f"{consumer} works from a SocialGraph's compiled snapshot and epoch, "
            f"not a {type(graph).__name__}; restrict a graph with "
            "SocialGraph.subgraph, or walk a graph-like object with "
            "repro.testing.oracle"
        )
