class GossipParams:
    view_size: int = 8
    gossip_size: int = 4
    healer: int = 1
    swapper: int = 1


class TransportCosts:
    header_bytes: int = 16
    descriptor_bytes: int = 24


class SimulationConfig:
    master_seed: int = 1
    max_rounds: int = 120
    gossip: object = None
    costs: object = None
