"""Scenarios: declarative, named compositions of the scenario space.

A scenario composes a system grid × timing preset × adversary strategy
× seeded fault plan × workload into one registered, campaign-runnable
name (``python -m repro scenario list|show|run``).  See
:mod:`repro.scenarios.spec` for the data model,
:mod:`repro.scenarios.library` for the built-ins and
:mod:`repro.scenarios.runtime` for deployment.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "AdversarySpec": "spec",
    "FaultPlanSpec": "spec",
    "ScenarioSpec": "spec",
    "WorkloadSpec": "spec",
    "all_scenarios": "registry",
    "build_fault_plan": "runtime",
    "deploy_scenario": "runtime",
    "get_scenario": "registry",
    "install_workload": "runtime",
    "mount_adversary": "runtime",
    "register_scenario": "registry",
    "scenario_names": "registry",
    "unregister_scenario": "registry",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
