"""A classic Bloom filter over byte-string keys.

Used in two places, both from the paper:

* the mark stage's *VC table* variant (§2.4 notes the VC table may be "Bloom
  filter or bitvector");
* the Analyzer's per-recipe reference filters (§5.3 optimization ①), which
  turn "is chunk c referenced by backup b?" into an O(k) probe instead of a
  recipe scan.

The implementation uses the standard Kirsch–Mitzenmacher double-hashing
construction: two 64-bit halves of a BLAKE2b digest generate all ``k`` probe
positions ``(h1 + i*h2) mod m``.  The kernels walk that sequence in small
ints — start at ``h1 mod m``, advance by ``h2 mod m`` with a conditional
subtract — which yields the same positions without 64-bit arithmetic per
probe.  Determinism matters here (tests, reproducible experiments), so no
randomised salts are involved unless the caller passes one.
"""

from __future__ import annotations

import hashlib
import math
from functools import partial
from typing import Iterable

from repro.errors import ConfigError

#: Mask selecting the digest's low 64-bit half (the second hash).
_LOW64 = (1 << 64) - 1


class BloomFilter:
    """Fixed-capacity Bloom filter with a target false-positive rate.

    Parameters
    ----------
    capacity:
        Expected number of distinct keys.  Inserting more than this degrades
        the false-positive rate but never causes false negatives.
    fp_rate:
        Target false-positive probability at ``capacity`` insertions.
    salt:
        Optional domain-separation salt mixed into the hash, so that several
        filters over the same keys (e.g. one per backup recipe) do not share
        collision patterns.  Salts longer than BLAKE2b's 16-byte limit are
        pre-hashed down to 16 bytes (not truncated), so arbitrarily long
        salts still separate; salts of at most 16 bytes are used as-is,
        keeping historical probe sequences bit-identical.
    """

    __slots__ = (
        "capacity",
        "fp_rate",
        "num_bits",
        "num_hashes",
        "_bits",
        "_salt",
        "_hasher",
        "count",
    )

    def __init__(self, capacity: int, fp_rate: float = 0.01, salt: bytes = b""):
        if capacity <= 0:
            raise ConfigError("bloom capacity must be positive")
        if not (0.0 < fp_rate < 1.0):
            raise ConfigError("bloom fp_rate must be in (0, 1)")
        self.capacity = capacity
        self.fp_rate = fp_rate
        num_bits = max(8, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        self.num_bits = num_bits
        self.num_hashes = max(1, round(num_bits / capacity * math.log(2)))
        self._bits = bytearray((num_bits + 7) // 8)
        self._salt = salt
        # Pre-bound digest constructor: probing is a hot path (the mark
        # stage's per-key index guard, the Analyzer's reference filters),
        # so keyword-argument setup is paid once here, not per key.
        # BLAKE2b accepts at most 16 salt bytes; longer salts are folded
        # through a 16-byte digest so distinct salts keep distinct probe
        # sequences (truncation would alias salts sharing a 16-byte
        # prefix).  Salts of <= 16 bytes pass through unchanged, keeping
        # every existing filter bit-identical.
        if len(salt) > 16:
            effective_salt = hashlib.blake2b(salt, digest_size=16).digest()
        else:
            effective_salt = salt
        self._hasher = partial(hashlib.blake2b, digest_size=16, salt=effective_salt)
        self.count = 0

    def add(self, key: bytes) -> None:
        """Insert ``key``."""
        value = int.from_bytes(self._hasher(key).digest(), "big")
        bits = self.num_bits
        position = (value >> 64) % bits
        step = ((value & _LOW64) | 1) % bits
        bit_bytes = self._bits
        for _ in range(self.num_hashes):
            bit_bytes[position >> 3] |= 1 << (position & 7)
            position += step
            if position >= bits:
                position -= bits
        self.count += 1

    def update(self, keys: Iterable[bytes]) -> None:
        """Insert every key in ``keys``."""
        hasher = self._hasher
        bits = self.num_bits
        num_hashes = self.num_hashes
        bit_bytes = self._bits
        inserted = 0
        for key in keys:
            value = int.from_bytes(hasher(key).digest(), "big")
            position = (value >> 64) % bits
            step = ((value & _LOW64) | 1) % bits
            for _ in range(num_hashes):
                bit_bytes[position >> 3] |= 1 << (position & 7)
                position += step
                if position >= bits:
                    position -= bits
            inserted += 1
        self.count += inserted

    def __contains__(self, key: bytes) -> bool:
        value = int.from_bytes(self._hasher(key).digest(), "big")
        bits = self.num_bits
        position = (value >> 64) % bits
        step = ((value & _LOW64) | 1) % bits
        bit_bytes = self._bits
        for _ in range(self.num_hashes):
            if not bit_bytes[position >> 3] & (1 << (position & 7)):
                return False
            position += step
            if position >= bits:
                position -= bits
        return True

    def __len__(self) -> int:
        return self.count

    @property
    def size_bytes(self) -> int:
        """Memory footprint of the bit array."""
        return len(self._bits)

    def fill_ratio(self) -> float:
        """Fraction of bits set — a health indicator for over-full filters."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.num_bits

    def expected_fp_rate(self) -> float:
        """Current false-positive probability estimate from the fill ratio."""
        return self.fill_ratio() ** self.num_hashes
