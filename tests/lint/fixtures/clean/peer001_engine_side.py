# path: sim/transport.py
"""Clean fixture: engine-side code reads the network on purpose."""


class Transport:
    def exchange(self, ctx, dst, request):
        partner = ctx.network.node(dst)
        return partner.protocol(request.layer).on_request(ctx, request)
