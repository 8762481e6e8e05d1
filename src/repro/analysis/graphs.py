"""Realized-topology graphs and structural quality metrics."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

import networkx as nx

from repro.core.layers import LAYER_CORE, LAYER_PORT_CONNECTION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Deployment


def realized_graph(
    deployment: "Deployment",
    layer: str = LAYER_CORE,
    include_links: bool = True,
) -> "nx.Graph":
    """The realized overlay of ``layer`` as an undirected networkx graph.

    Nodes carry ``component`` and ``rank`` attributes; an edge exists when
    either endpoint lists the other among its layer neighbours (gossip
    views are directed; the realized topology is their symmetric closure,
    which is what a connection-oriented application would open).

    With ``include_links`` (and the core layer), the inter-component edges
    realized by the port-connection layer are added with ``kind='link'``.
    """
    graph = nx.Graph()
    role_map = deployment.role_map
    for node in deployment.network.alive_nodes():
        if not role_map.has_role(node.node_id):
            continue
        role = role_map.role(node.node_id)
        graph.add_node(
            node.node_id, component=role.component, rank=role.rank
        )
    for node in deployment.network.alive_nodes():
        if not node.has_protocol(layer) or node.node_id not in graph:
            continue
        for neighbor in node.protocol(layer).neighbors():
            if neighbor in graph:
                graph.add_edge(node.node_id, neighbor, kind="overlay")
    if include_links and layer == LAYER_CORE:
        for node in deployment.network.alive_nodes():
            if not node.has_protocol(LAYER_PORT_CONNECTION):
                continue
            connection = node.protocol(LAYER_PORT_CONNECTION)
            for _, local_manager, remote_manager in connection.realized_links():
                # Only the local manager's own report is authoritative —
                # other members may briefly hold stale manager pairs.
                if local_manager != node.node_id:
                    continue
                if local_manager in graph and remote_manager in graph:
                    graph.add_edge(local_manager, remote_manager, kind="link")
    return graph


def component_subgraph(
    deployment: "Deployment", component: str, layer: str = LAYER_CORE
) -> "nx.Graph":
    """The realized overlay restricted to one component's members."""
    graph = realized_graph(deployment, layer, include_links=False)
    members = [
        node_id
        for node_id in graph.nodes
        if graph.nodes[node_id]["component"] == component
    ]
    return graph.subgraph(members).copy()


def shape_accuracy(deployment: "Deployment", component: str) -> float:
    """Fraction of the component's target edges realized (1.0 = perfect)."""
    spec = deployment.assembly.component(component)
    members = deployment.role_map.members(component)
    size = len(members)
    if size == 0:
        return 1.0
    id_of = {rank: node_id for node_id, rank in members}
    graph = component_subgraph(deployment, component)
    target = spec.shape.target_edges(size)
    if not target:
        return 1.0
    realized = sum(
        1
        for a, b in target
        if graph.has_edge(id_of.get(a), id_of.get(b))
    )
    return realized / len(target)


def topology_summary(deployment: "Deployment") -> Dict[str, Any]:
    """Structural health report of the whole realized topology.

    Keys: ``connected`` (is the union overlay one partition?), ``diameter``
    (of the largest connected part), ``n_nodes``/``n_edges``, per-component
    ``accuracy`` (realized fraction of target edges), and the count of
    realized inter-component ``links``.
    """
    graph = realized_graph(deployment)
    summary: Dict[str, Any] = {
        "n_nodes": graph.number_of_nodes(),
        "n_edges": graph.number_of_edges(),
        "connected": nx.is_connected(graph) if graph.number_of_nodes() else False,
        "links": sum(
            1 for _, _, data in graph.edges(data=True) if data.get("kind") == "link"
        ),
        "accuracy": {
            name: round(shape_accuracy(deployment, name), 4)
            for name in deployment.assembly.components
        },
    }
    if graph.number_of_nodes():
        largest = max(nx.connected_components(graph), key=len)
        summary["diameter"] = nx.diameter(graph.subgraph(largest))
    else:
        summary["diameter"] = None
    return summary
