"""Large-scale simulation of SOUP's replication scheme (paper Sec. 5).

* :mod:`repro.sim.scenario` — experiment configuration: dataset, scale,
  duration, behaviour models, altruism / departure events, attack mixes and
  the related-work online-time distributions of Table 4.
* :mod:`repro.sim.engine` — the epoch-based simulator: joins, bootstrap
  recommendations, profile requests with experience-set recording, daily
  experience exchanges + Eq.-(1) updates, Algorithm-1 selection rounds,
  replica placement with protective dropping, and metric collection.
* :mod:`repro.sim.metrics` — result containers and summary helpers
  (availability series, replica CDFs, cohort splits, drop rates,
  mirror-set churn).
* :mod:`repro.sim.attacks` — slander and sybil-flooding adversaries.
"""

from repro.sim.attacks import FloodingAttack, SlanderAttack
from repro.sim.engine import SoupSimulation, run_scenario
from repro.sim.metrics import SimulationResult, cdf_points
from repro.sim.reporting import sparkline
from repro.sim.scenario import OnlineDistribution, ScenarioConfig

__all__ = [
    "FloodingAttack",
    "SlanderAttack",
    "SoupSimulation",
    "run_scenario",
    "SimulationResult",
    "cdf_points",
    "sparkline",
    "OnlineDistribution",
    "ScenarioConfig",
]
