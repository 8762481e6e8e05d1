"""Port selection — mapping logical ports to concrete nodes.

Paper §3.3: one overlay "handle[s] the mapping between logical ports and
actual nodes (port selection)". Implemented as an epidemic extremum
aggregation per port: every member that the port's selector rule allows to
propose starts by proposing itself, and members repeatedly merge belief
tables pairwise with the selector's total order. After O(log n) exchanges
every member of the component agrees on the same manager — the selector's
oracle outcome over the full membership.

Self-stabilization: beliefs naming dead or reassigned nodes are discarded as
soon as they are detected, re-opening the election; this is what re-elects a
port manager after a crash or a reconfiguration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.port import PortSpec
from repro.core.profiles import NodeProfile
from repro.sim.engine import RoundContext
from repro.sim.protocol import GossipProtocol

#: A belief: the (node_id, rank) currently thought to manage a port.
Belief = Tuple[int, int]


class PortSelection(GossipProtocol):
    """One node's port-selection instance for its component's ports.

    Parameters
    ----------
    node_id, profile:
        Identity and current role of the hosting node.
    ports:
        The port declarations of the node's component.
    layer:
        Attachment/accounting label (``port_selection``).
    partner_layers:
        Same-node layers whose neighbour lists supply same-component gossip
        partners (UO1 first, then the core protocol).
    """

    #: The payload is a belief table, not a descriptor list.
    traces_flow = False

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        ports: Tuple[PortSpec, ...],
        layer: str = "port_selection",
        partner_layers: Tuple[str, ...] = ("uo1", "core"),
    ):
        super().__init__(node_id, layer)
        self.profile = profile
        self.ports = tuple(ports)
        self.partner_layers = tuple(partner_layers)
        self.beliefs: Dict[str, Belief] = {}
        self._propose()

    # -- identity -----------------------------------------------------------------

    def set_profile(self, profile: NodeProfile, ports: Tuple[PortSpec, ...]) -> None:
        """Adopt a new role (reconfiguration): reset and re-propose."""
        self.profile = profile
        self.ports = tuple(ports)
        self.beliefs = {}
        self._propose()

    def _propose(self) -> None:
        """Enter (or re-enter) the election without clobbering better beliefs.

        A self-proposal is merged through the selector's total order, so a
        node that already knows a better manager keeps it; the proposal only
        matters when the node has no belief (bootstrap, post-validation) or
        actually is the best candidate.
        """
        for port in self.ports:
            if port.selector.proposes(self.node_id, self.profile.rank):
                candidate = (self.node_id, self.profile.rank)
                mine = self.beliefs.get(port.name)
                self.beliefs[port.name] = (
                    candidate if mine is None else port.selector.better(mine, candidate)
                )

    # -- queries ---------------------------------------------------------------------

    def manager_of(self, port_name: str) -> Optional[int]:
        """The node id currently believed to manage ``port_name``."""
        belief = self.beliefs.get(port_name)
        return belief[0] if belief else None

    def is_manager_of(self, port_name: str) -> bool:
        return self.manager_of(port_name) == self.node_id

    def neighbors(self) -> List[int]:
        return sorted({belief[0] for belief in self.beliefs.values()})

    def forget(self, node_id: int) -> None:
        doomed = [name for name, belief in self.beliefs.items() if belief[0] == node_id]
        for name in doomed:
            del self.beliefs[name]
        self._propose()

    # -- internals ----------------------------------------------------------------------

    def _begin_round(self, ctx: RoundContext) -> bool:
        """Re-open elections that named dead or reassigned nodes; a
        component without ports has nothing to gossip about."""
        self._validate_beliefs(ctx)
        self._propose()
        return bool(self.ports)

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        return dict(self.beliefs), None

    def _unreachable(self, partner_id: int) -> None:
        """A cut-off partner costs this round's exchange, nothing else: a
        manager behind a lossy link is still the manager, and only
        validation (dead or reassigned) may re-open an election —
        ``forget()`` here would drop beliefs."""

    def _validate_beliefs(self, ctx: RoundContext) -> None:
        """Drop beliefs naming dead or reassigned nodes (failure detection)."""
        port_map = {port.name: port for port in self.ports}
        doomed = []
        for name, (manager_id, rank) in self.beliefs.items():
            if name not in port_map:
                doomed.append(name)
                continue
            if manager_id == self.node_id:
                if not port_map[name].selector.proposes(self.node_id, self.profile.rank):
                    doomed.append(name)
                continue
            if not ctx.network.is_alive(manager_id):
                doomed.append(name)
                continue
            peer = ctx.network.node(manager_id)
            if not peer.has_protocol(self.layer):
                doomed.append(name)
                continue
            peer_protocol = peer.protocol(self.layer)
            assert isinstance(peer_protocol, PortSelection)
            profile = peer_protocol.profile
            if profile.component != self.profile.component or profile.rank != rank:
                doomed.append(name)
        for name in doomed:
            del self.beliefs[name]

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """A random live same-component node drawn from the helper layers."""
        candidates: List[int] = []
        for layer in self.partner_layers:
            if not ctx.node.has_protocol(layer):
                continue
            for node_id in ctx.node.protocol(layer).neighbors():
                if node_id == self.node_id or not ctx.network.is_alive(node_id):
                    continue
                peer = ctx.network.node(node_id)
                if not peer.has_protocol(self.layer):
                    continue
                peer_protocol = peer.protocol(self.layer)
                assert isinstance(peer_protocol, PortSelection)
                if peer_protocol.profile.component == self.profile.component:
                    candidates.append(node_id)
            if candidates:
                break
        if not candidates:
            return None
        return ctx.rng().choice(candidates)

    def _absorb(self, ctx: RoundContext, _kept, received: Dict[str, Belief]) -> None:
        """Merge a received belief table through the selectors' total orders.

        Beliefs naming dead nodes are rejected *on receipt* — without this,
        a crashed manager survives as a zombie: each node drops it during
        validation only to re-adopt it from the next gossip exchange.
        """
        port_map = {port.name: port for port in self.ports}
        adopted = 0
        for name, belief in received.items():
            port = port_map.get(name)
            if port is None:
                continue
            if not ctx.network.is_alive(belief[0]):
                continue
            mine = self.beliefs.get(name)
            if mine is not None:
                belief = port.selector.better(mine, belief)
            if belief != mine:
                self.beliefs[name] = belief
                adopted += 1
        if ctx.obs is not None and adopted:
            ctx.obs.count_key(self._k_churn, adopted)
