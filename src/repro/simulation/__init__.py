"""Cache simulation of polyhedral programs.

* :mod:`repro.simulation.nonwarping` — Algorithm 1: concrete tree-walk
  simulation.
* :mod:`repro.simulation.symbolic` — symbolic cache states (Section 5.2).
* :mod:`repro.simulation.warping` — Algorithm 2: warping symbolic cache
  simulation (Sections 5.1-5.3).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulation.result": ("LevelStats", "SimulationResult"),
    "repro.simulation.nonwarping": ("simulate as simulate_nonwarping",),
    "repro.simulation.warping": ("simulate_warping",),
})

__all__ = ["LevelStats", "SimulationResult", "simulate_nonwarping",
           "simulate_warping"]
