#!/usr/bin/env python3
"""The paper's flagship composite: a MongoDB-style sharded cluster.

"This enables a programmer to create, deploy and maintain easily the more
complex topologies [...] such as distributed NoSQL databases with sharding
(e.g. MongoDB relies on a star of cliques)."  — paper, §2.2

This example:

1. compiles the cluster from DSL text — a router *star* whose hub links to
   the head of four shard *cliques* (replica sets);
2. converges it and prints the realized wiring;
3. crashes a shard head and shows the self-healing re-election + re-linking;
4. scales the cluster to six shards at runtime via dynamic reconfiguration.

Run:  python examples/mongodb_sharded_cluster.py
"""

from __future__ import annotations

from repro import Runtime, compile_source

CLUSTER = """
# A 4-shard sharded cluster: star of cliques.
topology MongoCluster {
    nodes 80
    assign proportional
    component router : star(size = 8) {
        port hub : hub            # the mongos entry point: the star's hub
    }
    component shard0 : clique(size = 18) { port head : lowest_id }
    component shard1 : clique(size = 18) { port head : lowest_id }
    component shard2 : clique(size = 18) { port head : lowest_id }
    component shard3 : clique(size = 18) { port head : lowest_id }
    link router.hub -- shard0.head
    link router.hub -- shard1.head
    link router.hub -- shard2.head
    link router.hub -- shard3.head
}
"""

SCALED_CLUSTER = CLUSTER.replace("MongoCluster", "MongoClusterScaled").replace(
    "size = 18", "size = 12"
) + ""


def describe_wiring(deployment) -> None:
    hub = deployment.role_map.members("router")[0][0]
    connection = deployment.network.node(hub).protocol("port_connection")
    print(f"  router hub: node {hub}")
    for link, _, remote in sorted(
        connection.realized_links(), key=lambda item: str(item[0])
    ):
        print(f"  {link}  ->  shard head node {remote}")


def main() -> None:
    assembly = compile_source(CLUSTER)
    deployment = Runtime(assembly, seed=7).deploy()
    report = deployment.run_until_converged(max_rounds=100)
    print(f"cluster converged in {report.slowest} rounds "
          f"(per layer: {report.rounds})")
    describe_wiring(deployment)

    # -- failure: crash shard1's head -------------------------------------
    head = min(deployment.role_map.member_ids("shard1"))
    print(f"\ncrashing shard1 head (node {head}) ...")
    deployment.network.kill(head)
    deployment.tracker.reset()
    healed = deployment.run_until_converged(max_rounds=60)
    new_head = min(
        node_id
        for node_id in deployment.role_map.member_ids("shard1")
        if deployment.network.is_alive(node_id)
    )
    print(f"self-healed in {healed.slowest} rounds; "
          f"shard1 head re-elected: node {new_head}")
    describe_wiring(deployment)

    # -- evolving needs: scale out to six smaller shards -------------------
    scaled_source = SCALED_CLUSTER.replace(
        "link router.hub -- shard3.head",
        "link router.hub -- shard3.head\n"
        "    link router.hub -- shard4.head\n"
        "    link router.hub -- shard5.head",
    ).replace(
        "component shard3 : clique(size = 12) { port head : lowest_id }",
        "component shard3 : clique(size = 12) { port head : lowest_id }\n"
        "    component shard4 : clique(size = 12) { port head : lowest_id }\n"
        "    component shard5 : clique(size = 12) { port head : lowest_id }",
    )
    print("\nreconfiguring to 6 shards (no node restarts) ...")
    deployment.rebalance(compile_source(scaled_source))
    rescaled = deployment.run_until_converged(max_rounds=100)
    print(f"re-converged in {rescaled.slowest} rounds; shards now: "
          + ", ".join(
              name
              for name in deployment.assembly.components
              if name.startswith("shard")
          ))
    describe_wiring(deployment)


if __name__ == "__main__":
    main()
