# path: gossip/whole.py
"""Clean twin: the same module, well formed."""


def merge(view):
    return view
