"""Time-decaying dynamic interaction network (TDN) substrate.

The TDN model (paper §II-B): each arriving edge ``(u, v, tau)`` gets a
lifetime ``l in {1..L}``; at time ``t`` the edge is alive iff
``tau <= t < tau + l``. Submodules:

- :mod:`repro.tdn.lifetimes` — seeded-NumPy lifetime assignment
  (geometric / constant / infinite).
- :mod:`repro.tdn.graph` — driver-side multigraph with scheduled expiry and
  BFS reachability.
- :mod:`repro.tdn.influence` — counting influence-spread oracles ``f_t``:
  a BFS over any graph, and the reach closure of a graph that only grows.
- :mod:`repro.tdn.spark_graph` — edges-DataFrame TDN with a
  level-synchronous BFS influence spread (frontier on the driver).
"""

from repro.tdn.graph import TDNGraph
from repro.tdn.influence import InfluenceOracle
from repro.tdn.lifetimes import (
    ConstantLifetime,
    GeometricLifetime,
    InfiniteLifetime,
)

__all__ = [
    "TDNGraph",
    "InfluenceOracle",
    "ConstantLifetime",
    "GeometricLifetime",
    "InfiniteLifetime",
]
