# path: core/layers/fixture.py
"""Firing fixture: a local alias of ``ctx.network`` asks it for liveness."""


class Layer:
    def live(self, ctx, ids):
        network = ctx.network
        return [node_id for node_id in ids if network.is_alive(node_id)]
