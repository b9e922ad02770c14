"""Deterministic seed fan-out: one master seed derives named sub-seeds."""

import hashlib


def sub_seed(master_seed: int, name: str) -> int:
    """Derive a stable 63-bit sub-seed for a named component.

    Uses SHA-256 so the mapping is identical across processes and platforms
    (Python's builtin hash() is salted per process).
    """
    digest = hashlib.sha256(f"{master_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF

