"""The runtime's gossip sub-procedures (paper Figure 1).

Layer names used for protocol attachment and bandwidth accounting:

- ``peer_sampling`` — global peer sampling (:mod:`repro.gossip.peer_sampling`);
- ``uo1`` — same-component utility overlay (:class:`~repro.core.layers.uo1.SameComponentOverlay`);
- ``uo2`` — distant-component utility overlay (:class:`~repro.core.layers.uo2.DistantComponentOverlay`);
- ``port_selection`` — logical port → node mapping (:class:`~repro.core.layers.port_selection.PortSelection`);
- ``port_connection`` — link realization between ports (:class:`~repro.core.layers.port_connection.PortConnection`);
- ``core`` — the component's shape-building core protocol (:func:`~repro.core.layers.core_protocol.make_core_protocol`).
"""

LAYER_PEER_SAMPLING = "peer_sampling"
LAYER_UO1 = "uo1"
LAYER_UO2 = "uo2"
LAYER_PORT_SELECTION = "port_selection"
LAYER_PORT_CONNECTION = "port_connection"
LAYER_CORE = "core"

#: The runtime layers, in stack (execution) order.
RUNTIME_LAYERS = (
    LAYER_PEER_SAMPLING,
    LAYER_UO1,
    LAYER_UO2,
    LAYER_CORE,
    LAYER_PORT_SELECTION,
    LAYER_PORT_CONNECTION,
)

# The layer modules read the names above, so they are imported after them.
from repro.core.layers.core_protocol import (  # noqa: E402
    ComponentShapeProximity,
    make_core_protocol,
)
from repro.core.layers.port_connection import PortConnection  # noqa: E402
from repro.core.layers.port_selection import PortSelection  # noqa: E402
from repro.core.layers.uo1 import SameComponentOverlay  # noqa: E402
from repro.core.layers.uo2 import DistantComponentOverlay  # noqa: E402

__all__ = [
    "ComponentShapeProximity",
    "DistantComponentOverlay",
    "LAYER_CORE",
    "LAYER_PEER_SAMPLING",
    "LAYER_PORT_CONNECTION",
    "LAYER_PORT_SELECTION",
    "LAYER_UO1",
    "LAYER_UO2",
    "PortConnection",
    "PortSelection",
    "RUNTIME_LAYERS",
    "SameComponentOverlay",
    "make_core_protocol",
]
