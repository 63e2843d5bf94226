"""Mappings the simulator tests share."""

from repro.mapping.base import Mapping


def block_mapping(threads: int, processors: int) -> Mapping:
    """Consecutive threads share a processor, ``threads // processors``
    to each: thread ``t`` runs on processor ``t // (threads // processors)``."""
    block = threads // processors
    return Mapping([thread // block for thread in range(threads)], processors)
