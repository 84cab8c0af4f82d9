#!/usr/bin/env python3
"""Public-API surface checker: the exported surface cannot drift silently.

Run from the repository root (CI runs it in the ``docs`` job):

    python tools/check_api.py            # verify against tools/api_surface.json
    python tools/check_api.py --update   # re-record an intentional change

The *surface* is what PR 5 declared stable:

* ``repro.__all__`` — every name the package exports;
* the public method signatures of :class:`repro.GraphService` (parameter
  names, kinds, and whether each has a default — default *values* are left
  out so their reprs cannot churn across Python versions);
* the field lists of the result dataclasses (:class:`PlannedResult` ...
  :class:`BulkReachResult`, which the serving layer also hands out) and of
  :class:`ExecutionPlan`.

The snapshot lives in ``tools/api_surface.json``.  A mismatch exits
non-zero with a unified diff: either the change is accidental (fix the
code) or intentional (run ``--update`` and commit the new snapshot — the
diff then documents the surface change in review).
"""

from __future__ import annotations

import dataclasses
import difflib
import inspect
import json
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO / "tools" / "api_surface.json"

sys.path.insert(0, str(REPO / "src"))

import repro  # noqa: E402  (path bootstrap above)
from repro.service import facade, planner, results  # noqa: E402

#: The dataclasses whose field lists are part of the stable surface.
DATACLASSES = [
    results.PlannedResult,
    results.ReachResult,
    results.AudienceResult,
    results.AccessResult,
    results.BulkAccessResult,
    results.BulkReachResult,
    planner.ExecutionPlan,
]


def _signature_of(function) -> List[Dict[str, object]]:
    rows = []
    for name, parameter in inspect.signature(function).parameters.items():
        if name == "self":
            continue
        rows.append(
            {
                "name": name,
                "kind": parameter.kind.name,
                "has_default": parameter.default is not inspect.Parameter.empty,
            }
        )
    return rows


def build_surface() -> Dict[str, object]:
    """Collect the current surface from the live package."""
    service_methods = {
        name: _signature_of(member)
        for name, member in sorted(vars(facade.GraphService).items())
        if not name.startswith("_") and callable(member)
    }
    service_properties = sorted(
        name
        for name, member in vars(facade.GraphService).items()
        if not name.startswith("_") and isinstance(member, property)
    )
    dataclass_fields = {
        cls.__name__: [
            {
                "name": field.name,
                "has_default": (
                    field.default is not dataclasses.MISSING
                    or field.default_factory is not dataclasses.MISSING
                ),
            }
            for field in dataclasses.fields(cls)
        ]
        for cls in DATACLASSES
    }
    return {
        "all": sorted(repro.__all__),
        "graph_service_methods": service_methods,
        "graph_service_properties": service_properties,
        "dataclasses": dataclass_fields,
    }


def render(surface: Dict[str, object]) -> str:
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def main(argv: List[str]) -> int:
    surface = build_surface()
    rendered = render(surface)
    if "--update" in argv:
        SNAPSHOT.write_text(rendered, encoding="utf-8")
        try:
            shown = SNAPSHOT.relative_to(REPO)
        except ValueError:  # snapshot redirected outside the repo (tests)
            shown = SNAPSHOT
        print(f"check_api: snapshot updated ({shown})")
        return 0
    if not SNAPSHOT.exists():
        print(
            "check_api: no committed snapshot; run `python tools/check_api.py "
            "--update` and commit tools/api_surface.json",
            file=sys.stderr,
        )
        return 1
    committed = SNAPSHOT.read_text(encoding="utf-8")
    if committed == rendered:
        exported = len(surface["all"])
        methods = len(surface["graph_service_methods"])
        print(
            f"check_api: surface matches the snapshot "
            f"({exported} exports, {methods} GraphService methods)"
        )
        return 0
    diff = difflib.unified_diff(
        committed.splitlines(keepends=True),
        rendered.splitlines(keepends=True),
        fromfile="tools/api_surface.json (committed)",
        tofile="tools/api_surface.json (current code)",
    )
    sys.stderr.writelines(diff)
    print(
        "check_api: the exported API surface drifted from the committed "
        "snapshot — fix the accidental break, or record the intentional "
        "change with `python tools/check_api.py --update`",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
