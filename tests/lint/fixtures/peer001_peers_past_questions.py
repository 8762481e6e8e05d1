# path: sim/protocol.py
"""Firing fixture: ``ctx.peers`` used other than through its questions."""


class Layer:
    def peek(self, ctx, peer_id):
        peers = ctx.peers
        return peers.node(peer_id)
