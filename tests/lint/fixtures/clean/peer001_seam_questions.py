# path: gossip/fixture.py
"""Clean fixture: every question goes through ``ctx.peers`` (directly, by
alias, or with the seam handed on whole); of ``ctx.network`` only the
rendezvous is read."""


class Layer:
    def partner(self, ctx, ids, valid):
        peers, layer = ctx.peers, self.layer
        live = [
            node_id
            for node_id in ids
            if peers.is_alive(node_id) and peers.runs(node_id, layer)
        ]
        adverts = [ctx.peers.advert(node_id, layer) for node_id in live]
        profiles = [ctx.peers.profile(node_id, layer) for node_id in live]
        if not live:
            self.bootstrap(ctx.network.rendezvous)
        return [node_id for node_id in live if valid(peers, node_id)], adverts, profiles
