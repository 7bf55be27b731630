"""Extensions from the paper's discussion section (Sec. 8).

The paper closes with three concrete improvement directions.  The one the
engine runs is implemented here on top of the unchanged core:

* :mod:`repro.extensions.ties` — **expressive social relations**: tie
  strengths replace the binary friend bit; experience sets from close
  friends carry more weight, which further dampens slander from
  weakly-tied infiltrators, and the social filter β can scale with the
  relation's strength (``ScenarioConfig.use_tie_strength``).

The other two are benchmark code, since no run-time path uses them:

* **extended recommendations** — friends report mirror bandwidth and
  selection favours faster mirrors: a selection strategy the engine runs,
  registered by its benchmark (``benchmarks/qos.py``);
* **large profiles** via (n, k) erasure coding: the codec and its
  availability maths (``benchmarks/coding``), beside the extension
  benchmark that uses them; the middleware replicates whole profiles.
"""

from repro.extensions.ties import (
    TieStrengthModel,
    tie_adjusted_beta,
    weigh_reports_by_tie,
)

__all__ = [
    "TieStrengthModel",
    "tie_adjusted_beta",
    "weigh_reports_by_tie",
]
