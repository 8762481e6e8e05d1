"""Port connection — realizing the links between ports.

Paper §3.3: the last overlay handles "the connection between different ports
according to the links specified in the target topology". Nodes gossip a
table of *port bindings* — records ``(component, port) → (manager, age)`` —
in two directions:

- with same-component neighbours (via UO1), spreading knowledge of both the
  local ports' managers and whatever remote bindings are known;
- with UO2's long-distance contacts in *linked* components, which is how a
  binding first crosses the component boundary.

A node alternates between the two. A node that believes it manages a linked
port does not: it gossips every round across that port's own link — the one
exchange that can hand the two managers each other's binding.

A link ``A.p -- B.q`` is *realized* once the manager of ``A.p`` holds a
fresh binding for ``B.q`` and vice versa: at the node level those two
managers are connected, which is exactly the paper's definition of a link
("a connection between two nodes from two different components").

Bindings age every round and expire, so a manager crash or a reconfiguration
heals: the stale binding dies out while port selection elects a replacement
whose fresh binding then propagates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.layers import LAYER_PORT_SELECTION, LAYER_UO1, LAYER_UO2
from repro.core.link import LinkSpec, PortRef
from repro.core.profiles import NodeProfile
from repro.sim.engine import RoundContext
from repro.sim.protocol import GossipProtocol

#: A binding: who manages a port, and how stale that knowledge is.
Binding = Tuple[int, int]  # (manager_id, age)

#: Bindings older than this many rounds are discarded (failure healing).
DEFAULT_BINDING_TTL = 16


class PortConnection(GossipProtocol):
    """One node's port-connection instance.

    Parameters
    ----------
    node_id, profile:
        Identity and current role of the hosting node.
    links:
        Every link of the assembly that touches the node's component.
    layer:
        Attachment/accounting label (``port_connection``).
    binding_ttl:
        Rounds before an unrefreshed binding is dropped.
    """

    #: The payload is a binding table, not a descriptor list.
    traces_flow = False

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        links: Tuple[LinkSpec, ...],
        layer: str = "port_connection",
        binding_ttl: int = DEFAULT_BINDING_TTL,
    ):
        super().__init__(node_id, layer)
        self.binding_ttl = binding_ttl
        self.set_profile(profile, links)

    # -- identity ------------------------------------------------------------------

    def set_profile(self, profile: NodeProfile, links: Tuple[LinkSpec, ...]) -> None:
        """Adopt a new role (reconfiguration): stale bindings are flushed,
        and what the rounds read of ``links`` is indexed once.

        ``_relevant`` — the only port refs this node needs bindings for: the
        endpoints of its component's links. Bounding the table here bounds
        the gossip message size by the node's link degree, not the whole
        assembly. ``_oriented`` — each link with (this component's endpoint,
        the other endpoint). ``_linked`` — the components across the links,
        sorted: set order depends on the per-process string hash seed and
        candidate order feeds ``rng.choice`` — unsorted, runs would differ
        across processes despite fixed seeds.
        """
        self.profile = profile
        self.links = tuple(links)
        self.bindings: Dict[PortRef, Binding] = {}
        own = profile.component
        self._relevant = frozenset(
            ref for link in self.links for ref in link.endpoints()
        )
        oriented = []
        for link in self.links:
            if link.a.component == own:
                oriented.append((link, link.a, link.b))
            elif link.b.component == own:
                oriented.append((link, link.b, link.a))
        self._oriented: Tuple[Tuple[LinkSpec, PortRef, PortRef], ...] = tuple(oriented)
        self._linked: Tuple[str, ...] = tuple(
            sorted({ref.component for ref in self._relevant} - {own})
        )

    # -- queries ---------------------------------------------------------------------

    def binding_for(self, ref: PortRef) -> Optional[int]:
        """The manager currently bound to ``ref``, if known and fresh."""
        binding = self.bindings.get(ref)
        return binding[0] if binding else None

    def realized_links(self) -> List[Tuple[LinkSpec, int, int]]:
        """Links this node can currently resolve end-to-end.

        Returns ``(link, local_manager, remote_manager)`` for every link of
        the component whose both endpoint bindings are known here.
        """
        resolved = []
        for link, local_ref, remote_ref in self._oriented:
            local_manager = self.binding_for(local_ref)
            remote_manager = self.binding_for(remote_ref)
            if local_manager is not None and remote_manager is not None:
                resolved.append((link, local_manager, remote_manager))
        return resolved

    def neighbors(self) -> List[int]:
        """Remote managers this node is linked to, where it manages a port."""
        out = set()
        for _link, local_manager, remote_manager in self.realized_links():
            if local_manager == self.node_id:
                out.add(remote_manager)
        return sorted(out)

    def forget(self, node_id: int) -> None:
        doomed = [ref for ref, (mgr, _) in self.bindings.items() if mgr == node_id]
        for ref in doomed:
            del self.bindings[ref]

    # -- internals ----------------------------------------------------------------------

    def _begin_round(self, ctx: RoundContext) -> bool:
        """Age and expire, re-publish the local managers; a component
        without links has nothing to gossip about."""
        self._age_and_expire()
        self._refresh_local_bindings(ctx)
        return bool(self.links)

    def _offer(self, ctx: RoundContext, flow, peer_id, request):
        return dict(self.bindings), None

    def _unreachable(self, partner_id: int) -> None:
        """A cut-off partner costs this round's exchange, nothing else:
        bindings lapse by TTL or with a dead manager, never because a
        gossip partner was unreachable — ``forget()`` here would drop them."""

    def _age_and_expire(self) -> None:
        aged: Dict[PortRef, Binding] = {}
        for ref, (manager_id, age) in self.bindings.items():
            if age + 1 <= self.binding_ttl:
                aged[ref] = (manager_id, age + 1)
        self.bindings = aged

    def _refresh_local_bindings(self, ctx: RoundContext) -> None:
        """Re-publish the managers of this component's ports from the local
        port-selection beliefs (age 0: authoritative at the source)."""
        if not ctx.node.has_protocol(LAYER_PORT_SELECTION):
            return
        selection = ctx.node.protocol(LAYER_PORT_SELECTION)
        for _link, local_ref, _remote_ref in self._oriented:
            manager_id = selection.manager_of(local_ref.port)
            if manager_id is not None:
                self.bindings[local_ref] = (manager_id, 0)

    def _choose_partner(self, ctx: RoundContext) -> Optional[int]:
        """A manager gossips across its own link; anyone else prefers a
        long-distance contact in a linked component on odd rounds and a
        same-component neighbour on even ones.

        The legality predicate reads the two managers' tables only, so a
        node that — by its own selection beliefs — manages a linked port
        spends every round on a contact in the component across that link.
        A node that manages nothing, or holds no such contact yet,
        alternates, each turn falling back to the other pool.
        """
        alternation = (self._linked, None) if ctx.round % 2 else (None, self._linked)
        for components in (self._across_managed_ports(ctx), *alternation):
            candidates = self._live_peers(ctx, components)
            if candidates:
                return ctx.rng().choice(candidates)
        return None

    def _across_managed_ports(self, ctx: RoundContext) -> Tuple[str, ...]:
        """The components across the links of the ports this node believes
        it manages itself, in link order."""
        node = ctx.node
        if not node.has_protocol(LAYER_PORT_SELECTION):
            return ()
        selection = node.protocol(LAYER_PORT_SELECTION)
        across: List[str] = []
        for _link, local_ref, remote_ref in self._oriented:
            if (
                selection.manager_of(local_ref.port) == self.node_id
                and remote_ref.component not in across
            ):
                across.append(remote_ref.component)
        return tuple(across)

    def _live_peers(
        self, ctx: RoundContext, components: Optional[Tuple[str, ...]]
    ) -> List[int]:
        """Live nodes running this layer among UO2's contacts in
        ``components`` — among UO1's neighbours for ``None``."""
        node = ctx.node
        if components is None:
            if not node.has_protocol(LAYER_UO1):
                return []
            pool = node.protocol(LAYER_UO1).neighbors()
        elif components and node.has_protocol(LAYER_UO2):
            uo2 = node.protocol(LAYER_UO2)
            pool = [
                descriptor.node_id
                for component in components
                for descriptor in uo2.contacts(component)
            ]
        else:
            return []
        peers = ctx.peers
        return [
            node_id
            for node_id in pool
            if peers.is_alive(node_id) and peers.runs(node_id, self.layer)
        ]

    def _absorb(
        self, ctx: RoundContext, _kept, received: Dict[PortRef, Binding]
    ) -> None:
        """Keep the freshest binding per port; drop dead managers on sight.

        Only bindings for this component's link endpoints are retained —
        everything else is another part of the assembly's business and
        would bloat the table (and every future message) linearly in the
        total number of ports.
        """
        adopted = 0
        for ref, (manager_id, age) in received.items():
            if ref not in self._relevant:
                continue
            if age > self.binding_ttl:
                continue
            if not ctx.peers.is_alive(manager_id):
                continue
            mine = self.bindings.get(ref)
            if mine is None or age < mine[1]:
                self.bindings[ref] = (manager_id, age)
                adopted += 1
        if ctx.obs is not None and adopted:
            ctx.obs.count_key(self._k_churn, adopted)
