"""Multi-process shard serving over mmapped snapshots.

One worker process per shard, each holding its shard's persisted snapshot
**zero-copy** (:meth:`~repro.graph.snapshot.SnapshotStore.load` mmaps the
base segment read-only; the kernel shares the pages across workers).  The
parent routes the same ``(user, state, mask)`` message triples the
in-process :class:`~repro.sharding.router.ShardRouter` uses, over pipes:
each bulk-synchronous round sends every touched shard its pending seeds
*first* and only then collects exports, so the workers' sweep work runs in
parallel.

The pool reads the manifest written by
:meth:`~repro.sharding.shard.ShardedGraph.save` — shard stems for loading,
the owner map for routing — and never recomputes the partition.  Ghost
nodes are self-describing (:data:`~repro.sharding.shard.GHOST_ATTR` is an
ordinary persisted attribute), so a worker needs nothing but its snapshot
file.  Workers survive ``fork`` and ``spawn`` alike: the worker body is a
module-level function, its only state the snapshot path.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path
from typing import Dict, Hashable, List, Sequence, Set, Tuple

from repro.graph.snapshot import SnapshotStore
from repro.policy.path_expression import PathExpression
from repro.reachability.compiled_search import CompiledAutomaton, MaskBitsMemo
from repro.sharding.router import _ShardSweepState, ghost_indices
from repro.sharding.shard import ShardedGraph

__all__ = ["ShardServingPool"]


def _shard_worker(stem_path: str, conn) -> None:
    """Serve one shard snapshot over a pipe (module-level for ``spawn``)."""
    snapshot = SnapshotStore(Path(stem_path)).load()
    conn.send(
        (
            "ready",
            {
                "mapped": bool(snapshot.mapped),
                "nodes": snapshot.number_of_live_nodes(),
                "ghosts": len(ghost_indices(snapshot)),
                "nbytes": snapshot.nbytes,
            },
        )
    )
    state = None
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "quit":
            break
        if kind == "begin":
            expression = PathExpression.parse(message[1])
            state = _ShardSweepState(snapshot, CompiledAutomaton(expression, snapshot))
            conn.send(("ok",))
        elif kind == "seeds":
            state.deliver(message[1])
            state.run()
            conn.send(("round", state.export()))
        elif kind == "collect":
            user_of = snapshot.node_ids
            accepts: Dict[Hashable, int] = {
                user_of[node]: mask for node, mask in state.accepted_owned()
            }
            conn.send(("accepts", accepts))
        else:  # pragma: no cover - protocol misuse
            conn.send(("error", f"unknown message {kind!r}"))
    conn.close()


class ShardServingPool:
    """N shard workers jointly answering bulk audience queries.

    The parent is a pure router: it holds no graph data, only the
    manifest's owner map.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, directory, *, start_method: str = "fork") -> None:
        directory = Path(directory)
        self.manifest = ShardedGraph.read_manifest(directory)
        self.start_method = start_method
        self._owners: Dict[str, int] = {
            user: shard for user, shard in self.manifest["owners"]
        }
        context = multiprocessing.get_context(start_method)
        self.workers: List = []
        self.conns: List = []
        self.worker_info: List[Dict] = []
        self.rounds = 0
        self.messages = 0
        try:
            for stem in self.manifest["stems"]:
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker,
                    args=(str(directory / stem), child_conn),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.workers.append(process)
                self.conns.append(parent_conn)
            for conn in self.conns:
                kind, info = conn.recv()
                assert kind == "ready"
                self.worker_info.append(info)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------- api

    @property
    def shard_count(self) -> int:
        return len(self.conns)

    def home_of(self, user: Hashable) -> int:
        """The shard owning ``user`` (manifest keys are stringified ids)."""
        return self._owners[str(user)]

    def bulk_audience(
        self, sources: Sequence[Hashable], expression
    ) -> Dict[Hashable, Set[Hashable]]:
        """Audiences of ``sources`` under ``expression``, workers in concert.

        Equals the single-process
        :func:`~repro.reachability.compiled_search.audience_sweep` answer on
        the same graph — the property ``tests/sharding/test_multiprocess.py``
        asserts across the fork/spawn matrix.
        """
        sources = list(dict.fromkeys(sources))
        if len(sources) > 1 << 16:
            raise ValueError("bulk audience is limited to 65536 owners per call")
        text = str(expression)
        for conn in self.conns:
            conn.send(("begin", text))
        for conn in self.conns:
            kind, *_rest = conn.recv()
            assert kind == "ok"
        pending: Dict[int, List[Tuple[Hashable, int, int]]] = {}
        for bit, user in enumerate(sources):
            pending.setdefault(self.home_of(user), []).append((user, -1, 1 << bit))
        while pending:
            self.rounds += 1
            touched = sorted(pending)
            # Send everything first: the touched workers sweep in parallel.
            for shard in touched:
                self.conns[shard].send(("seeds", pending[shard]))
            outgoing: Dict[int, List[Tuple[Hashable, int, int]]] = {}
            for shard in touched:
                kind, exports = self.conns[shard].recv()
                assert kind == "round"
                for user, state_id, mask in exports:
                    outgoing.setdefault(self.home_of(user), []).append(
                        (user, state_id, mask)
                    )
                    self.messages += 1
            pending = outgoing
        for conn in self.conns:
            conn.send(("collect",))
        audiences: Dict[Hashable, Set[Hashable]] = {
            source: set() for source in sources
        }
        bits_of = MaskBitsMemo()
        for conn in self.conns:
            kind, accepts = conn.recv()
            assert kind == "accepts"
            for user, mask in accepts.items():
                for bit in bits_of[mask]:
                    audiences[sources[bit]].add(user)
        return audiences

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for conn in self.conns:
            try:
                conn.send(("quit",))
            except (BrokenPipeError, OSError):
                pass
        for process in self.workers:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self.conns = []
        self.workers = []

    def __enter__(self) -> "ShardServingPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ShardServingPool {self.shard_count} workers "
            f"({self.start_method}), {len(self._owners)} routed users>"
        )
