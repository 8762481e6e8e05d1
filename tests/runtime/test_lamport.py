"""Lamport clock semantics: monotonicity, causal merge, thread safety."""

from __future__ import annotations

import threading

from repro.runtime.lamport import LamportClock


class TestLamportClock:
    def test_starts_at_zero(self):
        assert LamportClock().read() == 0

    def test_tick_advances_by_one(self):
        clock = LamportClock()
        assert clock.tick() == 1
        assert clock.tick() == 2
        assert clock.read() == 2

    def test_read_does_not_advance(self):
        clock = LamportClock()
        clock.read()
        clock.read()
        assert clock.read() == 0

    def test_observe_jumps_past_remote(self):
        clock = LamportClock()
        assert clock.observe(10) == 11
        assert clock.read() == 11

    def test_observe_stale_remote_still_advances(self):
        clock = LamportClock()
        clock.observe(19)
        assert clock.observe(3) == 21

    def test_causal_ordering_across_two_clocks(self):
        """If send happens-before receive, L(send) < L(receive)."""
        sender, receiver = LamportClock(), LamportClock()
        receiver.observe(6)
        stamp = sender.tick()
        assert receiver.observe(stamp) > stamp

    def test_concurrent_ticks_never_lose_an_event(self):
        clock = LamportClock()
        per_thread, threads = 500, 8

        def hammer():
            for _ in range(per_thread):
                clock.tick()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert clock.read() == per_thread * threads

    def test_concurrent_observe_and_tick_stay_monotone(self):
        clock = LamportClock()
        seen = []

        def ticker():
            for _ in range(300):
                seen.append(clock.tick())

        def observer():
            for remote in range(300):
                seen.append(clock.observe(remote))

        a, b = threading.Thread(target=ticker), threading.Thread(target=observer)
        a.start(), b.start()
        a.join(), b.join()
        assert clock.read() >= 600  # no update lost
        assert clock.read() >= max(seen)
