"""``python -m repro.serving`` — run a demo multi-tenant serving instance.

Builds one generated workload graph per tenant (seeded, so two runs serve
identical data), installs the workload's policies, starts the TCP
JSON-lines server and prints the bound address plus a copy-pasteable
sample request.  Stdlib-only; stop with Ctrl-C.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.serving.server import ServingServer
from repro.serving.session import TenantRegistry
from repro.workloads.driver import install_policies
from repro.workloads.generator import WorkloadSpec, build_workload


def _build_registry(args: argparse.Namespace):
    registry = TenantRegistry(
        max_batch=args.max_batch,
        max_pending=args.max_pending,
    )
    sample = None
    for index in range(args.tenants):
        tenant_id = f"tenant-{index}"
        workload = build_workload(
            WorkloadSpec(users=args.users, seed=args.seed + index)
        )
        session = registry.create(tenant_id, workload.graph)
        install_policies(session.service, workload)
        if sample is None and workload.requests:
            requester, resource_id = workload.requests[0]
            sample = {
                "id": 1,
                "op": "check",
                "tenant": tenant_id,
                "requester": str(requester),
                "resource": resource_id,
            }
    return registry, sample


async def _serve(args: argparse.Namespace) -> None:
    registry, sample = _build_registry(args)
    server = ServingServer(registry, host=args.host, port=args.port)
    host, port = await server.start()
    print(f"serving {args.tenants} tenant(s) on {host}:{port}")
    if sample is not None:
        print(f"sample: {json.dumps(sample)}")
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Run a demo multi-tenant serving instance.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument("--users", type=int, default=300, help="users per tenant graph")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="cap on a coalesced batch; 1 serves request-at-a-time",
    )
    parser.add_argument("--max-pending", type=int, default=256)
    args = parser.parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("stopped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
