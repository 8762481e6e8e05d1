# path: gossip/broken.py
"""Firing fixture: a module that does not parse is reported, not skipped."""


def merge(view:
    return view
