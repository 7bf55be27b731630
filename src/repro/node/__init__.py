"""The SOUP node: middleware + application interface (paper Sec. 6, Fig. 12).

A :class:`~repro.node.middleware.SoupNode` wires together the module
structure of the paper's implementation:

* **Application Manager** — lets arbitrary social applications run on top of
  the middleware and encapsulates their content into SOUP objects.
* **Social Manager** — friend lists, friend requests, attribute grants.
* **Security Manager** — all encryption: ABE for data, RSA signatures for
  SOUP objects.
* **Mirror Manager** — mirror selection (the :mod:`repro.core` machinery),
  replica pushes, replica storage for others, update surrogacy.
* **Interface Manager** — DHT directory operations and point-to-point
  delivery over the simulated network; gateway relaying for mobile nodes.

Nodes run over :mod:`repro.network` (traffic-metered simulated links) and
:mod:`repro.dht` (the Pastry directory), which is exactly the setting of the
paper's deployment measurements (Sec. 7).
"""

from repro.node.devices import DeviceGroup, DeviceReplica, UpdateLog
from repro.node.middleware import SoupNode
from repro.node.profile import DataItem, Profile
from repro.node.sync import PendingUpdate, UpdateBuffer

__all__ = [
    "DeviceGroup",
    "DeviceReplica",
    "UpdateLog",
    "SoupNode",
    "DataItem",
    "Profile",
    "PendingUpdate",
    "UpdateBuffer",
]
