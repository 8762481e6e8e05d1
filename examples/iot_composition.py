#!/usr/bin/env python3
"""Opportunistic composition of heterogeneous IoT sub-systems.

The paper's future-work section motivates "opportunistic composition across
initially unrelated services [...] especially in the emerging Internet of
Things (IoT)". This example assembles four deliberately different
sub-systems into one System of Systems:

- ``sensors``      — an unstructured pool (random graph), like a field of
  battery-powered devices that only need *some* connectivity;
- ``aggregation``  — a binary tree that collects and folds readings;
- ``storage``      — a ring (consistent-hashing style) persisting aggregates;
- ``gateway``      — a small clique of replicated API servers.

Links wire the pipeline: sensors → tree root, tree sink → storage ingest,
storage serve → gateway. The example then shows the part of the paper's
"third-party relay" idea that the runtime provides: a sensor holds UO2
long-distance contacts in storage, a component it has no declared link to.

Run:  python examples/iot_composition.py
"""

from __future__ import annotations

from repro import Runtime
from repro.core.link import PortRef
from repro.experiments.topologies import iot_composite


def main() -> None:
    assembly = iot_composite(
        n_sensors=32, tree_size=15, storage_size=12, gateway_size=5
    )
    print("components:")
    for name, spec in assembly.components.items():
        print(f"  {name:>12}: {spec.shape.name:<7} size {spec.size}")
    print("links:")
    for link in assembly.links:
        print(f"  {link}")

    deployment = Runtime(assembly, seed=23).deploy()
    report = deployment.run_until_converged(max_rounds=100)
    print(f"\nconverged in {report.slowest} rounds ({report.rounds})")

    # Walk the realized pipeline end to end.
    print("\nrealized pipeline:")
    for a, b in (
        (PortRef("sensors", "uplink"), PortRef("aggregation", "root")),
        (PortRef("aggregation", "sink"), PortRef("storage", "ingest")),
        (PortRef("storage", "serve"), PortRef("gateway", "south")),
    ):
        members = deployment.role_map.members(a.component)
        selector = deployment.assembly.port(a).selector
        manager = selector.choose(members)
        connection = deployment.network.node(manager).protocol("port_connection")
        print(f"  {a} (node {manager})  ->  {b} (node {connection.binding_for(b)})")

    # Opportunistic reach: ANY sensor can reach the storage component
    # through UO2's long-distance contacts, without a declared link.
    sensor = deployment.role_map.member_ids("sensors")[7]
    uo2 = deployment.network.node(sensor).protocol("uo2")
    contacts = uo2.contacts("storage")
    print(
        f"\nopportunistic reach: sensor node {sensor} holds "
        f"{len(contacts)} direct long-distance contact(s) in 'storage': "
        f"{[d.node_id for d in contacts]}"
    )
    print("components it can reach without any declared link: "
          f"{uo2.known_components()}")


if __name__ == "__main__":
    main()
