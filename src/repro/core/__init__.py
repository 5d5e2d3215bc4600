"""The paper's contribution: streaming influential-node tracking.

- :mod:`repro.core.sieve` — the SieveStreaming++ threshold sieve.
- :mod:`repro.core.sieve_adn` — SieveADN (Alg. 1): sieve over an
  addition-only dynamic interaction network.
- :mod:`repro.core.basic_reduction` — BasicReduction (Alg. 2): L staggered
  SieveADN instances covering every residual lifetime.
- :mod:`repro.core.histapprox` — HistApprox (Alg. 3): smooth-histogram
  subset of instances with ε-redundancy pruning.
- :mod:`repro.core.greedy` — lazy (CELF) greedy and Random baselines.
"""

from repro.core.basic_reduction import BasicReduction
from repro.core.greedy import lazy_greedy, random_solution
from repro.core.histapprox import HistApprox
from repro.core.sieve import ThresholdSieve
from repro.core.sieve_adn import SieveADN

__all__ = [
    "ThresholdSieve",
    "SieveADN",
    "BasicReduction",
    "HistApprox",
    "lazy_greedy",
    "random_solution",
]
