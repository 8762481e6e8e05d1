"""Component-scoped gossip aggregation (push-sum).

The paper's future work calls for "a common framework and new tools [...]
to detect and evaluate such composition opportunities" — i.e. components
must be able to *measure themselves* (load, size, latency) to drive QoS
decisions. The standard decentralized tool is push-sum gossip averaging
(Kempe, Dobra & Gehrke, FOCS 2003): every node holds a ``(sum, weight)``
pair and repeatedly splits it with a random neighbour; all estimates
``sum/weight`` converge exponentially to the true average, and
``average × member count`` recovers totals.

:class:`PushSum` runs as one more protocol on the node stack, gossiping
with UO1 neighbours so the aggregate stays scoped to the node's component.
:func:`attach_push_sum` / :func:`component_average` wrap the lifecycle for
applications.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.core.layers import LAYER_UO1
from repro.core.profiles import NodeProfile
from repro.sim.engine import RoundContext
from repro.sim.protocol import Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Deployment

#: Attachment label for the aggregation layer.
LAYER_AGGREGATION = "aggregation_pushsum"


class PushSum(Protocol):
    """One node's push-sum instance, scoped to its component.

    Parameters
    ----------
    node_id, profile:
        Identity and role of the hosting node.
    value:
        The local measurement contributed to the average.
    layer, uo1_layer:
        Attachment labels of this protocol and the same-component overlay
        supplying gossip partners.
    """

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        value: float,
        layer: str = LAYER_AGGREGATION,
        uo1_layer: str = LAYER_UO1,
    ):
        self.node_id = node_id
        self.profile = profile
        self.layer = layer
        self.uo1_layer = uo1_layer
        self.sum = float(value)
        self.weight = 1.0

    # -- queries -------------------------------------------------------------

    @property
    def estimate(self) -> float:
        """This node's current estimate of the component average."""
        if self.weight == 0.0:
            return 0.0
        return self.sum / self.weight

    # -- protocol -------------------------------------------------------------

    def step(self, ctx: RoundContext) -> None:
        # A one-way push, so not a GossipProtocol — but the same gate order
        # as GossipProtocol.step: loss coin, partner rule, then the
        # transport's ``deliverable``. A lost push is modelled as a skipped
        # turn, never as lost mass — keeping the push-sum invariant exact
        # (real deployments pair the push with an ack/rollback for the same
        # reason).
        if not ctx.exchange_ok():
            return
        partner_id = self._choose_partner(ctx)
        if partner_id is None:
            return
        if not ctx.transport.deliverable(ctx, partner_id, self.layer):
            return  # cut link: also a skipped turn, mass stays on this side
        # Push half of the mass to the partner, keep half.
        half_sum, half_weight = self.sum / 2.0, self.weight / 2.0
        self.sum, self.weight = half_sum, half_weight
        partner = ctx.network.node(partner_id).protocol(self.layer)
        assert isinstance(partner, PushSum)
        partner.on_push(half_sum, half_weight)
        # One scalar pair per message in the byte model (≈ one descriptor).
        ctx.transport.record_message(self.layer, 1)

    def on_push(self, pushed_sum: float, pushed_weight: float) -> None:
        self.sum += pushed_sum
        self.weight += pushed_weight

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        if not ctx.node.has_protocol(self.uo1_layer):
            return None
        candidates = []
        for node_id in ctx.node.protocol(self.uo1_layer).neighbors():
            if not ctx.network.is_alive(node_id):
                continue
            peer = ctx.network.node(node_id)
            if peer.has_protocol(self.layer):
                candidates.append(node_id)
        if not candidates:
            return None
        return ctx.rng().choice(candidates)


def attach_push_sum(
    deployment: "Deployment",
    component: str,
    value_of: Callable[[int], float],
) -> None:
    """Attach a push-sum instance to every live member of ``component``.

    ``value_of(node_id)`` supplies each member's local measurement.
    Idempotent per deployment/component pair is *not* attempted: attaching
    twice raises, like any duplicate layer.
    """
    members = deployment.role_map.member_ids(component)
    if not members:
        raise ConfigurationError(f"component {component!r} has no members")
    for node_id in members:
        if not deployment.network.is_alive(node_id):
            continue
        node = deployment.network.node(node_id)
        role = deployment.role_map.role(node_id)
        profile = deployment._profile_for(role)
        node.attach(
            LAYER_AGGREGATION,
            PushSum(node_id, profile, value_of(node_id)),
        )


def estimates(deployment: "Deployment", component: str) -> Dict[int, float]:
    """Current per-member estimates of the component average."""
    out: Dict[int, float] = {}
    for node_id in deployment.role_map.member_ids(component):
        if not deployment.network.is_alive(node_id):
            continue
        node = deployment.network.node(node_id)
        if node.has_protocol(LAYER_AGGREGATION):
            protocol = node.protocol(LAYER_AGGREGATION)
            assert isinstance(protocol, PushSum)
            out[node_id] = protocol.estimate
    return out


def component_average(
    deployment: "Deployment",
    component: str,
    value_of: Callable[[int], float],
    rounds: int = 30,
    tolerance: float = 1e-3,
) -> Tuple[float, int]:
    """Attach push-sum, run until all estimates agree, return (average, rounds).

    Convergence: the spread of member estimates falls below ``tolerance``
    relative to their mean (or the round budget runs out; the best estimate
    so far is returned either way).
    """
    attach_push_sum(deployment, component, value_of)
    executed = 0
    for _ in range(rounds):
        deployment.run(1)
        executed += 1
        values: List[float] = list(estimates(deployment, component).values())
        if not values:
            break
        spread = max(values) - min(values)
        scale = max(1e-12, abs(sum(values) / len(values)))
        if spread / scale <= tolerance:
            break
    values = list(estimates(deployment, component).values())
    average = sum(values) / len(values) if values else 0.0
    return average, executed
