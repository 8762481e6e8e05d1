# path: gossip/fixture.py
"""Firing fixture: a gossip layer reads a peer's protocol off the network."""


class Layer:
    def reference(self, ctx, peer_id):
        return ctx.network.node(peer_id).protocol(self.layer).profile
