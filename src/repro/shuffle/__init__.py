"""Shuffle substrate: routing and in-flight delay."""

from repro.shuffle.flow import DelayQueue, ShuffleMessage
from repro.shuffle.router import hash_route, range_route, split_by_destination

__all__ = [
    "DelayQueue", "ShuffleMessage",
    "hash_route", "range_route", "split_by_destination",
]
