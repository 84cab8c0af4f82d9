"""The server process of the wire workloads.

``python server_child.py <users>`` builds the shared graph and
policies, registers one tenant through ``TenantRegistry.create`` (default
2 ms gather window), warms the rules' audiences, binds a
``ServingServer`` to port 0 and prints ``READY <port> <users> <edges>``.

Control lines on stdin (one reply line each on stdout):

``trace``        install the timing shims of :mod:`tracing` (once)
``dump <path>``  write the recorded spans to ``<path>`` and forget them
EOF              stop the server, print ``EXIT <ru_maxrss KB>`` and leave

Exiting on stdin EOF means a parent that dies, however it dies, leaves no
orphan behind.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent.parent / "src"))


async def _serve(users: int) -> None:
    from repro.serving.server import ServingServer
    from repro.serving.session import TenantRegistry
    from repro.workloads.driver import install_policies

    import inputs
    import tracing

    material = inputs.build_inputs(users, 0)  # the graph does not depend on the seed
    # Four times the default admission bound: the VM stalls for 100-200 ms
    # now and then, and at 2000 req/s 256 pending requests are 128 ms.  A stall
    # should show as latency (goodput), not as refused operations.
    registry = TenantRegistry(max_pending=1024)
    session = registry.create(inputs.TENANT, material.graph)
    install_policies(session.service, material.workload)
    # Warm what a long-running server has warm: one sweep per rule fills the
    # target-set memo the coalesced checks are answered from (800 sweeps,
    # about a second), one audience per expression the plan and parse caches.
    session.service.bulk_access([rid for rid, _owner, _expression in material.resources])
    for expression in inputs.RULE_EXPRESSIONS:
        session.service.audience(material.users[-1], expression)
    # The generator's collector is off; give the server the same quiet start
    # (its own collector stays on: collection pauses are the program's cost).
    gc.collect()
    gc.freeze()

    server = ServingServer(registry, port=0)
    _host, port = await server.start()
    print(
        f"READY {port} {material.graph.number_of_users()} "
        f"{material.graph.number_of_relationships()}",
        flush=True,
    )

    loop = asyncio.get_running_loop()
    done = loop.create_future()
    tracer = tracing.Tracer()
    buffer = bytearray()

    def on_stdin() -> None:
        chunk = os.read(0, 65536)
        if not chunk:
            loop.remove_reader(0)
            if not done.done():
                done.set_result(None)
            return
        buffer.extend(chunk)
        while b"\n" in buffer:
            line, _, rest = bytes(buffer).partition(b"\n")
            buffer[:] = rest
            words = line.decode("utf-8").split(None, 1)
            if not words:
                continue
            if words[0] == "trace":
                tracer.install_library()
                tracer.install_serving()
                print("TRACING", flush=True)
            elif words[0] == "dump":
                print(f"DUMPED {tracer.dump(words[1])}", flush=True)

    loop.add_reader(0, on_stdin)
    try:
        await done
    finally:
        await server.stop()
    print(f"EXIT {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True)


if __name__ == "__main__":
    asyncio.run(_serve(int(sys.argv[1])))
