"""The runtime: deploying an assembly onto a node population.

This module wires the paper's Figure 1 into per-node protocol stacks:

    global peer sampling  →  UO1 / UO2  →  core protocol
                                     →  port selection → port connection

:class:`Runtime` is the factory (assembly + configuration + seed);
:class:`Deployment` is one live system: a network, an engine, and the
convergence tracker producing the paper's per-layer metrics. Deployments
support churn provisioning (joining nodes enter as spares) and one
lifecycle call, :meth:`Deployment.rebalance`, which re-deals roles over the
live population — after failures, or onto a new assembly in place
(dynamic reconfiguration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError, ConvergenceTimeout
from repro.core.assembly import Assembly
from repro.core.convergence import ConvergenceReport, ConvergenceTracker
from repro.core.layers import (
    LAYER_CORE,
    LAYER_PEER_SAMPLING,
    LAYER_PORT_CONNECTION,
    LAYER_PORT_SELECTION,
    LAYER_UO1,
    LAYER_UO2,
)
from repro.core.layers.core_protocol import make_core_protocol
from repro.core.layers.port_connection import PortConnection
from repro.core.layers.port_selection import PortSelection
from repro.core.layers.uo1 import SameComponentOverlay
from repro.core.layers.uo2 import DistantComponentOverlay
from repro.core.profiles import NodeProfile
from repro.core.roles import Role, RoleMap, SPARE_COMPONENT
from repro.gossip.peer_sampling import PeerSampling
from repro.shapes.random_graph import RandomGraph
from repro.sim.config import GossipParams, TransportCosts
from repro.runtime.api import RunnerConfig, make_runner
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport


@dataclass(frozen=True)
class RuntimeConfig:
    """Tuning knobs of the layered runtime.

    The defaults follow the standard values of the gossip literature (view
    sizes 12-16, buffers of half the view); the paper does not publish its
    own parameters, so these are the documented substitution (DESIGN.md §2).
    """

    peer_sampling: GossipParams = field(
        default_factory=lambda: GossipParams(view_size=16, gossip_size=8, healer=1, swapper=7)
    )
    uo1: GossipParams = field(
        default_factory=lambda: GossipParams(view_size=10, gossip_size=5, healer=1, swapper=4)
    )
    core: GossipParams = field(
        default_factory=lambda: GossipParams(view_size=12, gossip_size=6, healer=1, swapper=4)
    )
    uo2_contacts_per_component: int = 2
    binding_ttl: int = 16
    core_flavor: str = "vicinity"
    costs: TransportCosts = field(default_factory=TransportCosts)

    def __post_init__(self) -> None:
        if self.core_flavor not in ("vicinity", "tman"):
            raise ConfigurationError(
                f"core_flavor must be 'vicinity' or 'tman', got {self.core_flavor!r}"
            )
        if self.uo2_contacts_per_component < 1:
            raise ConfigurationError("uo2_contacts_per_component must be >= 1")
        if self.binding_ttl < 2:
            raise ConfigurationError("binding_ttl must be >= 2")


#: The Fig. 4 split. The *baseline* is "the bandwidth needed to realize
#: basic shapes": the per-component core protocols plus the peer-sampling
#: substrate every self-organizing overlay requires (the monolithic
#: elementary baseline runs exactly these two). The *overhead* is what the
#: assembly runtime adds on top — the four sub-procedures of §3.3.
BASELINE_LAYERS = (LAYER_CORE, LAYER_PEER_SAMPLING)
RUNTIME_OVERHEAD_LAYERS = (
    LAYER_UO1,
    LAYER_UO2,
    LAYER_PORT_SELECTION,
    LAYER_PORT_CONNECTION,
)


class Runtime:
    """Factory binding an assembly to a runtime configuration and a seed."""

    def __init__(
        self,
        assembly: Assembly,
        config: Optional[RuntimeConfig] = None,
        seed: int = 0,
    ):
        self.assembly = assembly
        self.config = config or RuntimeConfig()
        self.seed = seed

    def deploy(self, n_nodes: Optional[int] = None) -> "Deployment":
        """Create a network of ``n_nodes`` and install the full stack.

        ``n_nodes`` defaults to the assembly's ``total_nodes`` declaration
        (the DSL's ``nodes N`` clause).
        """
        count = n_nodes if n_nodes is not None else self.assembly.total_nodes
        if count is None:
            raise ConfigurationError(
                "n_nodes not given and the assembly declares no 'nodes N' clause"
            )
        if count < self.assembly.min_nodes():
            raise ConfigurationError(
                f"assembly {self.assembly.name!r} needs at least "
                f"{self.assembly.min_nodes()} nodes, got {count}"
            )
        return Deployment(self, count)


class Deployment:
    """One live deployment of an assembly.

    Attributes
    ----------
    network, engine, transport, streams:
        The simulation substrate.
    role_map:
        The oracle node → role assignment (kept current by
        :meth:`rebalance`).
    tracker:
        The per-layer convergence tracker attached as an engine observer.
    faults:
        The :class:`~repro.faults.transports.FaultTransport` once
        :meth:`install_faults` ran, else ``None``.
    """

    def __init__(self, runtime: Runtime, n_nodes: int):
        self.runtime = runtime
        self.assembly = runtime.assembly
        self.config = runtime.config
        self.streams = RandomStreams(runtime.seed)
        self.network = Network()
        self.transport = Transport(self.config.costs)
        self.network.create_nodes(n_nodes)
        self.role_map: RoleMap = self.assembly.assign_roles(self.network.node_ids())
        for node in self.network.nodes():
            self._install_stack(node, self.role_map.role(node.node_id))
        self.tracker = ConvergenceTracker(
            assembly_provider=lambda: self.assembly,
            role_map_provider=lambda: self.role_map,
            uo1_view_size=self.config.uo1.view_size,
        )
        # Through the unified factory; the hand-built substrate
        # (network/transport/streams) is passed through unchanged.
        self.engine = make_runner(
            RunnerConfig(n_nodes=n_nodes),
            network=self.network,
            transport=self.transport,
            streams=self.streams,
            observers=(self.tracker,),
        )
        self.faults = None

    def install_faults(self, zones=None):
        """Arm the deployment with faults (partitions, degraded links).

        The first call stacks one
        :class:`~repro.faults.transports.FaultTransport` on the engine's
        transport, with ``zones`` (a :class:`~repro.faults.zones.ZoneMap`)
        as the map its zone-pair link rules and zone outages resolve
        through. Every later call returns that same decorator, so exchanges
        are never vetoed (or RNG-drawn) twice; it may not bring another
        zone map. A fault schedule (:mod:`repro.faults.schedule`) drives the
        returned decorator. While it holds no active fault, exchanges take
        the fast path and runs stay bit-identical to a fault-free deployment.
        """
        if self.faults is None:
            from repro.faults.transports import FaultTransport

            self.faults = self.engine.transport = FaultTransport(
                self.engine.transport, self.streams, zones
            )
        elif zones is not None and zones is not self.faults.zones:
            raise ConfigurationError(
                "faults are already installed; pass the zone map on the first "
                "install_faults call"
            )
        return self.faults

    # -- stack installation ------------------------------------------------------

    def _shape_for(self, role: Role):
        if role.is_spare:
            # Spares idle in an unstructured pseudo-component until promoted.
            return RandomGraph(min_degree=0)
        return self.assembly.component(role.component).shape

    def _ports_for(self, role: Role):
        if role.is_spare:
            return ()
        return self.assembly.component(role.component).ports

    def _links_for(self, role: Role):
        if role.is_spare:
            return ()
        return tuple(self.assembly.links_of(role.component))

    def _profile_for(self, role: Role) -> NodeProfile:
        shape = self._shape_for(role)
        comp_size = max(1, role.comp_size)
        rank = min(role.rank, comp_size - 1)
        return NodeProfile(
            component=role.component,
            rank=role.rank,
            comp_size=role.comp_size,
            coord=shape.coordinate(rank, comp_size),
        )

    def _install_stack(self, node: Node, role: Role) -> None:
        """Attach the full Figure-1 stack for ``role`` to ``node``."""
        config = self.config
        profile = self._profile_for(role)
        node.attributes["role"] = role

        peer_sampling = PeerSampling(
            node.node_id, config.peer_sampling, layer=LAYER_PEER_SAMPLING
        )
        peer_sampling.bootstrap(
            self.streams.stream("bootstrap", node.node_id),
            self.network.rendezvous,
        )
        node.attach(LAYER_PEER_SAMPLING, peer_sampling)
        node.attach(
            LAYER_UO1,
            SameComponentOverlay(node.node_id, profile, config.uo1, layer=LAYER_UO1),
        )
        node.attach(
            LAYER_UO2,
            DistantComponentOverlay(
                node.node_id,
                profile,
                contacts_per_component=config.uo2_contacts_per_component,
                layer=LAYER_UO2,
            ),
        )
        node.attach(
            LAYER_CORE,
            make_core_protocol(
                node.node_id,
                profile,
                self._shape_for(role),
                config.core,
                layer=LAYER_CORE,
                flavor=config.core_flavor,
            ),
        )
        node.attach(
            LAYER_PORT_SELECTION,
            PortSelection(
                node.node_id,
                profile,
                self._ports_for(role),
                layer=LAYER_PORT_SELECTION,
            ),
        )
        node.attach(
            LAYER_PORT_CONNECTION,
            PortConnection(
                node.node_id,
                profile,
                self._links_for(role),
                layer=LAYER_PORT_CONNECTION,
                binding_ttl=config.binding_ttl,
            ),
        )

    # -- execution ------------------------------------------------------------------

    def run(self, rounds: int) -> int:
        """Run a fixed number of rounds (no early stop)."""
        return self.engine.run(rounds)

    def run_until_converged(
        self,
        max_rounds: int = 120,
        layers: Optional[Sequence[str]] = None,
        raise_on_timeout: bool = False,
    ) -> ConvergenceReport:
        """Run until every layer of ``layers`` (all five if ``None``) has
        converged since the tracker's last reset, or the budget runs out.

        The report covers ``layers`` only; an unknown layer raises
        ``ValueError`` before any round runs. With ``raise_on_timeout``, a
        budget miss raises :class:`~repro.errors.ConvergenceTimeout` naming
        the slowest unconverged layer instead of returning a partial report.
        """
        tracker = self.tracker
        tracker.waiting_for = tracker.layers_of(layers)
        try:
            executed = self.engine.run(max_rounds)
        finally:
            tracker.waiting_for = ()
        report = tracker.report(layers)
        report.executed = executed
        if raise_on_timeout and not report.converged:
            stuck = sorted(
                layer
                for layer, round_index in report.rounds.items()
                if round_index is None
            )
            raise ConvergenceTimeout(", ".join(stuck), max_rounds)
        return report

    # -- churn support ------------------------------------------------------------------

    def provisioner(self):
        """``provision(network, node)``: equips a joining node (a fault
        schedule's ``join`` op provisions through it).

        Joining nodes enter as *spares*: they get the full protocol stack
        and start mixing into the peer-sampling substrate, but no component
        role — so a join never reshuffles existing ranks. A later
        :meth:`rebalance` promotes spares into real roles (e.g. to refill a
        component after crashes).
        """

        def provision(network: Network, node: Node) -> None:
            self._install_stack(node, Role(SPARE_COMPONENT, 0, 1))

        return provision

    def rebalance(self, assembly: Optional[Assembly] = None) -> Dict[str, int]:
        """Re-run the assignment rule over the *live* population.

        The one way roles change after deploy. Crashed nodes lose their
        roles. Every component keeps its live members (up to its new quota,
        in their old rank order); spares, the overflow of shrunken
        components and the members of components that are gone fill the
        vacated places — the self-healing reaction to a failure wave.

        Given an ``assembly`` (dynamic reconfiguration, paper §4.iii), the
        deployment switches to it in place under that same rule: a
        component the new assembly still declares keeps its members, so an
        incremental change moves only what the new quotas force, and a
        total swap deals the fresh cut a deploy would. The new roles are
        computed before anything is touched, so a rejected assembly leaves
        the deployment intact. Nodes dead across the switch are demoted to
        spares, and the convergence tracker is reset so
        :meth:`run_until_converged` measures re-convergence from the switch.

        Returns how much moved: ``population`` (live nodes) and
        ``roles_moved`` (live nodes whose role differs), so a caller can
        tell a no-op from a real adjustment; a second call over an
        unchanged population moves nothing.
        """
        old_assembly = self.assembly
        changed = assembly is not None and assembly is not old_assembly
        if changed:
            assembly.validate()
        else:
            assembly = old_assembly
        old_map = self.role_map
        live = self.network.alive_ids()
        new_map = assembly.assign_roles(live, previous=old_map)
        moved = sum(
            1
            for node_id in live
            if not old_map.has_role(node_id)
            or old_map.role(node_id) != new_map.role(node_id)
        )
        self.assembly = self.runtime.assembly = assembly
        self._apply_role_changes(new_map, old_assembly if changed else None)
        if changed:
            self.tracker.reset()
        return {"population": len(live), "roles_moved": moved}

    def _apply_role_changes(
        self,
        new_map: RoleMap,
        old_assembly: Optional[Assembly] = None,
    ) -> None:
        """Point every node at its role under the (possibly new) assembly.

        Nodes whose role is unchanged are normally skipped, but when the
        *assembly* changed around them (``old_assembly`` given), their
        component's declaration may differ even though the role tuple does
        not — a changed shape rebuilds the core protocol, changed ports or
        links refresh just the port layers. A node without a new role (dead)
        keeps its stack across a rebalance; across an assembly change it is
        demoted to a spare, so a later revival rejoins the new assembly
        instead of gossiping the old one's shape at it.
        """
        old_map = self.role_map
        self.role_map = new_map
        for node in self.network.nodes():
            if not new_map.has_role(node.node_id):
                if old_assembly is not None:
                    self._adopt_role(node, Role(SPARE_COMPONENT, 0, 1))
                continue
            role = new_map.role(node.node_id)
            role_changed = (
                not old_map.has_role(node.node_id)
                or old_map.role(node.node_id) != role
            )
            if role_changed:
                self._adopt_role(node, role)
                continue
            if old_assembly is None or role.is_spare:
                continue
            old_spec = old_assembly.components.get(role.component)
            new_spec = self.assembly.components.get(role.component)
            if old_spec is None or new_spec is None:
                self._adopt_role(node, role)
                continue
            if old_spec.shape != new_spec.shape:
                self._adopt_role(node, role)
                continue
            old_links = tuple(old_assembly.links_of(role.component))
            if old_spec.ports != new_spec.ports or old_links != self._links_for(role):
                profile = self._profile_for(role)
                node.protocol(LAYER_PORT_SELECTION).set_profile(
                    profile, self._ports_for(role)
                )
                node.protocol(LAYER_PORT_CONNECTION).set_profile(
                    profile, self._links_for(role)
                )

    def _adopt_role(self, node: Node, role: Role) -> None:
        """Point an existing stack at a new role (profile update in place)."""
        profile = self._profile_for(role)
        node.attributes["role"] = role
        node.protocol(LAYER_UO1).set_profile(profile)
        node.protocol(LAYER_UO2).set_profile(profile)
        node.replace(
            LAYER_CORE,
            make_core_protocol(
                node.node_id,
                profile,
                self._shape_for(role),
                self.config.core,
                layer=LAYER_CORE,
                flavor=self.config.core_flavor,
            ),
        )
        node.protocol(LAYER_PORT_SELECTION).set_profile(profile, self._ports_for(role))
        node.protocol(LAYER_PORT_CONNECTION).set_profile(profile, self._links_for(role))

    # -- bandwidth accounting ------------------------------------------------------------

    def bandwidth_split(self, rounds: int) -> Dict[str, list]:
        """Per-round byte series: shape-building baseline vs runtime overhead.

        The Fig. 4 decomposition: ``baseline`` is the traffic any
        self-organizing construction of the basic shapes would pay (core
        protocols + peer sampling); ``overhead`` is what the assembly
        runtime adds (UO1, UO2, port selection, port connection).
        """
        baseline = [0] * rounds
        for layer in BASELINE_LAYERS:
            for index, value in enumerate(self.transport.bytes_series(layer, rounds)):
                baseline[index] += value
        overhead = [0] * rounds
        for layer in RUNTIME_OVERHEAD_LAYERS:
            for index, value in enumerate(self.transport.bytes_series(layer, rounds)):
                overhead[index] += value
        return {"baseline": baseline, "overhead": overhead}
