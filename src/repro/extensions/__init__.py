"""Extensions from the paper's discussion section (Sec. 8).

The paper closes with three concrete improvement directions; each is
implemented here on top of the unchanged core:

* :mod:`repro.extensions.ties` — **expressive social relations**: tie
  strengths replace the binary friend bit; experience sets from close
  friends carry more weight, which further dampens slander from
  weakly-tied infiltrators, and the social filter β can scale with the
  relation's strength.
* :mod:`repro.extensions.bandwidth` — **extended recommendations**:
  friends also report the bandwidth observed at mirrors, and selection
  breaks availability ties toward faster mirrors for better QoS.
* :mod:`repro.coding` — **large profiles** via (n, k) erasure coding:
  the codec and its availability maths, for the extension benchmark only
  (the middleware replicates whole profiles; see there).
"""

from repro.extensions.bandwidth import (
    BandwidthTracker,
    qos_adjusted_ranking,
    simulate_qos_benefit,
)
from repro.extensions.ties import (
    TieStrengthModel,
    tie_adjusted_beta,
    weigh_reports_by_tie,
)

__all__ = [
    "BandwidthTracker",
    "qos_adjusted_ranking",
    "simulate_qos_benefit",
    "TieStrengthModel",
    "tie_adjusted_beta",
    "weigh_reports_by_tie",
]
