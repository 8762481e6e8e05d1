"""Port selection — mapping logical ports to concrete nodes.

Paper §3.3: one overlay "handle[s] the mapping between logical ports and
actual nodes (port selection)". Implemented as an epidemic extremum
aggregation per port: every member that the port's selector rule allows to
propose starts by proposing itself, and members repeatedly merge belief
tables pairwise with the selector's total order. After O(log n) exchanges
every member of the component agrees on the same manager — the selector's
oracle outcome over the full membership.

The election does not start from nothing: the UO1 and core views on the same
node hold ranked descriptors of component members, and every round the node
first adopts the best valid candidate they name (:meth:`PortSelection._seed`).
Gossip then only has to carry a manager to the members whose views miss it.

Self-stabilization: beliefs naming dead or reassigned nodes are discarded as
soon as they are detected — and refused when offered, by gossip or by a
sibling view — re-opening the election; this is what re-elects a port
manager after a crash or a reconfiguration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.layers import LAYER_CORE, LAYER_UO1
from repro.core.port import PortSpec
from repro.core.profiles import NodeProfile
from repro.sim.engine import RoundContext
from repro.sim.protocol import GossipProtocol

#: A belief: the (node_id, rank) currently thought to manage a port.
Belief = Tuple[int, int]

#: Same-node layers whose views supply same-component gossip partners and
#: election candidates (UO1 first, then the core protocol).
_PARTNER_LAYERS = (LAYER_UO1, LAYER_CORE)


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
    """

    #: The payload is a belief table, not a descriptor list.
    traces_flow = False

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        ports: Tuple[PortSpec, ...],
        layer: str = "port_selection",
    ):
        super().__init__(node_id, layer)
        self.set_profile(profile, ports)

    # -- identity -----------------------------------------------------------------

    def set_profile(self, profile: NodeProfile, ports: Tuple[PortSpec, ...]) -> None:
        """Adopt a new role (reconfiguration): reset and re-propose."""
        self.profile = profile
        self.ports = tuple(ports)
        self._port_map: Dict[str, PortSpec] = {port.name: port for port in self.ports}
        self.beliefs: Dict[str, Belief] = {}
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

    def neighbors(self) -> List[int]:
        return sorted({belief[0] for belief in self.beliefs.values()})

    def forget(self, node_id: int) -> None:
        doomed = [name for name, belief in self.beliefs.items() if belief[0] == node_id]
        for name in doomed:
            del self.beliefs[name]
        self._propose()

    # -- internals ----------------------------------------------------------------------

    def _begin_round(self, ctx: RoundContext) -> bool:
        """Take what the sibling views already know, re-open elections that
        named dead or reassigned nodes; a component without ports has
        nothing to elect or gossip about."""
        if not self.ports:
            return False
        self._seed(ctx)
        self._validate_beliefs(ctx)
        self._propose()
        return True

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        return dict(self.beliefs), None

    def _unreachable(self, partner_id: int) -> None:
        """A cut-off partner costs this round's exchange, nothing else: a
        manager behind a lossy link is still the manager, and only
        validation (dead or reassigned) may re-open an election —
        ``forget()`` here would drop beliefs."""

    def _valid_manager(self, ctx: RoundContext, node_id: int, rank: int) -> bool:
        """Whether ``ctx.peers`` says ``node_id`` is alive, runs this layer
        and holds ``rank`` in this node's component right now (failure
        detection).

        The one gate a belief passes on its way into the table, whatever
        brought it — gossip, a sibling view — and every round it stays.
        """
        peers = ctx.peers
        if not peers.is_alive(node_id):
            return False
        profile = peers.profile(node_id, self.layer)
        return (
            profile is not None
            and profile.component == self.profile.component
            and profile.rank == rank
        )

    def _adopt(self, ctx: RoundContext, port: PortSpec, candidate: Belief) -> bool:
        """Take ``candidate`` as ``port``'s manager if the selector prefers it
        to the belief held and it is valid; returns whether the table changed.

        Validity is asked last: a settled table turns every offer down on
        the comparison alone, without a remote read.
        """
        mine = self.beliefs.get(port.name)
        if mine is not None and port.selector.better(mine, candidate) == mine:
            return False
        if not self._valid_manager(ctx, *candidate):
            return False
        self.beliefs[port.name] = candidate
        return True

    def _seed(self, ctx: RoundContext) -> None:
        """Adopt the best manager the sibling layers' views already name.

        A ranked descriptor of a component member states what the election
        would otherwise have to carry here hop by hop. An invalid one (a
        rank left over from before a reassignment) must never get in: it
        would beat the correct belief on the lower id every round. Ranks do
        not depend on age, so the views are read without being settled.
        """
        component = self.profile.component
        ports = self.ports
        for layer in _PARTNER_LAYERS:
            if not ctx.node.has_protocol(layer):
                continue
            for node_id, profile in ctx.node.protocol(layer).view.profiles():
                if not isinstance(profile, NodeProfile) or profile.component != component:
                    continue
                rank = profile.rank
                for port in ports:
                    if port.selector.proposes(node_id, rank):
                        self._adopt(ctx, port, (node_id, rank))

    def _validate_beliefs(self, ctx: RoundContext) -> None:
        """Drop beliefs naming dead or reassigned nodes (failure detection)."""
        port_map = self._port_map
        doomed = []
        for name, (manager_id, rank) in self.beliefs.items():
            if name not in port_map:
                doomed.append(name)
            elif manager_id == self.node_id:
                if not port_map[name].selector.proposes(self.node_id, self.profile.rank):
                    doomed.append(name)
            elif not self._valid_manager(ctx, manager_id, rank):
                doomed.append(name)
        for name in doomed:
            del self.beliefs[name]

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """A random live same-component node drawn from the helper layers."""
        peers, component = ctx.peers, self.profile.component
        candidates: List[int] = []
        for layer in _PARTNER_LAYERS:
            if not ctx.node.has_protocol(layer):
                continue
            for node_id in ctx.node.protocol(layer).neighbors():
                if node_id == self.node_id or not peers.is_alive(node_id):
                    continue
                profile = peers.profile(node_id, self.layer)
                if profile is not None and profile.component == component:
                    candidates.append(node_id)
            if candidates:
                break
        if not candidates:
            return None
        return ctx.rng().choice(candidates)

    def _absorb(self, ctx: RoundContext, _kept, received: Dict[str, Belief]) -> None:
        """Merge a received belief table through the selectors' total orders.

        Beliefs naming dead or reassigned nodes are rejected *on receipt* —
        without this, a crashed manager survives as a zombie: each node
        drops it during validation only to re-adopt it from the next gossip
        exchange; and a live node named at the rank it held before a
        reassignment displaces the correct belief on the lower id, to be
        deleted a round later with nothing left in its place.
        """
        adopted = 0
        for name, belief in received.items():
            port = self._port_map.get(name)
            if port is None:
                continue
            adopted += self._adopt(ctx, port, belief)
        if ctx.obs is not None and adopted:
            ctx.obs.count_key(self._k_churn, adopted)
