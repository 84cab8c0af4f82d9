"""Benchmark-harness support: workload generation, open-loop arrivals and
policy installation, query mixes, scenarios, metrics."""

from repro.workloads.driver import install_policies, open_loop_arrivals
from repro.workloads.generator import (
    GRAPH_FAMILIES,
    Workload,
    WorkloadSpec,
    build_graph,
    build_workload,
)
from repro.workloads.metrics import MetricSeries, Timer, format_table
from repro.workloads.queries import (
    expression_of_shape,
    random_expression,
    random_query_mix,
    random_step,
)
from repro.workloads.scenarios import SCENARIOS, Scenario, scenario, scenario_names

__all__ = [
    "install_policies",
    "open_loop_arrivals",
    "GRAPH_FAMILIES",
    "Workload",
    "WorkloadSpec",
    "build_graph",
    "build_workload",
    "MetricSeries",
    "Timer",
    "format_table",
    "expression_of_shape",
    "random_expression",
    "random_query_mix",
    "random_step",
    "SCENARIOS",
    "Scenario",
    "scenario",
    "scenario_names",
]
