"""``repro.faults`` — deterministic fault injection for the capture path.

The subsystem that sits between the simulator and the sniffer/attack
pipeline and makes imperfect capture a *controlled, reproducible*
experimental variable instead of an untested assumption:

* :class:`FaultPlan` / :class:`FaultSpec` (:mod:`repro.faults.plan`) —
  the declarative, JSON-serialisable description of a noise campaign,
  fingerprinted into obs run manifests and applied to the clean
  captures the trace cache returns;
* the fault transforms (:mod:`repro.faults.transforms`) — seeded,
  composable corruptions of the columnar DCI stream (burst and i.i.d.
  capture loss, CRC-corrupt decodes, RNTI churn, clock skew, cell
  outages, duplicated decodes), applied via :func:`apply_plan`;
* the trace generators (:mod:`repro.faults.generators`) — seeded
  synthetic traces the property-based test harness quantifies the
  fault invariants over.

Plans thread through the pipeline via ``runtime.configure(fault_plan=
...)`` (set by the CLI's ``--faults PLAN.json``) or the explicit
``fault_plan=`` parameter of the ``collect_*`` functions; see the
"Fault injection" section of EXPERIMENTS.md for the plan schema.
"""

from .plan import FaultPlan, FaultSpec
from .transforms import (FaultInvariantError, apply_plan, fault_names,
                         fault_param_names, get_fault, register_fault,
                         validate_spec)

__all__ = [
    "FaultInvariantError", "FaultPlan", "FaultSpec", "apply_plan",
    "fault_names", "fault_param_names", "get_fault", "register_fault",
    "validate_spec",
]
