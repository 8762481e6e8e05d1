# path: obs/spans.py
"""Clean twin: the span timer is the sanctioned clock site."""
import time


def measure(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
