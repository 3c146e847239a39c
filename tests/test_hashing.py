"""Unit tests for fingerprints and Bloom filters."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.hashing.bloom import BloomFilter
from repro.hashing.fingerprints import (
    FINGERPRINT_SIZE,
    fingerprint,
    fingerprint_hex,
    short_fp,
    synthetic_fingerprint,
)

from tests.reference import bloom_add, bloom_contains, bloom_update


class TestFingerprints:
    def test_sha1_width(self):
        assert len(fingerprint(b"hello")) == FINGERPRINT_SIZE

    def test_deterministic(self):
        assert fingerprint(b"x") == fingerprint(b"x")

    def test_content_sensitivity(self):
        assert fingerprint(b"x") != fingerprint(b"y")

    def test_hex_roundtrip(self):
        fp = fingerprint(b"data")
        assert bytes.fromhex(fingerprint_hex(fp)) == fp

    def test_short_fp_is_prefix(self):
        fp = fingerprint(b"data")
        assert fingerprint_hex(fp).startswith(short_fp(fp))

    def test_synthetic_width(self):
        assert len(synthetic_fingerprint("ns", 1)) == FINGERPRINT_SIZE

    def test_synthetic_identity_equality(self):
        assert synthetic_fingerprint("ns", 5, 2) == synthetic_fingerprint("ns", 5, 2)

    @pytest.mark.parametrize(
        "a,b",
        [
            (("ns", 1, 0), ("ns", 2, 0)),  # identity differs
            (("ns", 1, 0), ("ns", 1, 1)),  # version differs
            (("ns", 1, 0), ("other", 1, 0)),  # namespace differs
        ],
    )
    def test_synthetic_distinguishes(self, a, b):
        assert synthetic_fingerprint(*a) != synthetic_fingerprint(*b)

    def test_synthetic_no_delimiter_collision(self):
        # ("a", 11) must not collide with ("a1", 1) etc.
        assert synthetic_fingerprint("a", 11, 0) != synthetic_fingerprint("a1", 1, 0)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(capacity=1000, fp_rate=0.01)
        keys = [fingerprint(str(i).encode()) for i in range(1000)]
        bloom.update(keys)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(capacity=2000, fp_rate=0.01)
        bloom.update(fingerprint(f"in-{i}".encode()) for i in range(2000))
        probes = 5000
        false_positives = sum(
            fingerprint(f"out-{i}".encode()) in bloom for i in range(probes)
        )
        assert false_positives / probes < 0.05  # generous bound on 1% target

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(capacity=10)
        assert fingerprint(b"anything") not in bloom

    def test_salt_changes_collisions(self):
        a = BloomFilter(capacity=50, fp_rate=0.2, salt=b"a")
        b = BloomFilter(capacity=50, fp_rate=0.2, salt=b"b")
        keys = [fingerprint(str(i).encode()) for i in range(50)]
        a.update(keys)
        b.update(keys)
        outsiders = [fingerprint(f"o{i}".encode()) for i in range(2000)]
        hits_a = {k for k in outsiders if k in a}
        hits_b = {k for k in outsiders if k in b}
        assert hits_a != hits_b  # different collision patterns

    def test_long_salt_accepted(self):
        # Regression: BLAKE2b caps salts at 16 bytes; longer salts used to
        # raise ValueError out of the digest constructor.
        bloom = BloomFilter(capacity=10, salt=b"a-domain-separation-salt-over-16-bytes")
        bloom.add(b"k" * 20)
        assert b"k" * 20 in bloom

    def test_long_salts_sharing_prefix_do_not_alias(self):
        # Truncation would collapse salts with a common 16-byte prefix
        # into one probe sequence; pre-hashing must keep them distinct.
        prefix = b"0123456789abcdef"
        a = BloomFilter(capacity=50, fp_rate=0.2, salt=prefix + b"AAAA")
        b = BloomFilter(capacity=50, fp_rate=0.2, salt=prefix + b"BBBB")
        keys = [fingerprint(str(i).encode()) for i in range(50)]
        a.update(keys)
        b.update(keys)
        outsiders = [fingerprint(f"o{i}".encode()) for i in range(2000)]
        assert {k for k in outsiders if k in a} != {k for k in outsiders if k in b}

    def test_long_salt_equivalent_to_its_digest(self):
        # The documented fold: salts > 16 bytes behave exactly like their
        # 16-byte BLAKE2b digest (so the mapping is stable, not ad hoc).
        import hashlib

        long_salt = b"x" * 40
        folded = hashlib.blake2b(long_salt, digest_size=16).digest()
        a = BloomFilter(capacity=50, fp_rate=0.2, salt=long_salt)
        b = BloomFilter(capacity=50, fp_rate=0.2, salt=folded)
        keys = [fingerprint(str(i).encode()) for i in range(50)]
        a.update(keys)
        b.update(keys)
        assert a._bits == b._bits

    def test_short_salt_used_verbatim(self):
        # Salts of at most 16 bytes must keep their historical probe
        # sequences bit-identical (golden outputs depend on them), i.e.
        # not be routed through the pre-hash.
        import hashlib

        salt = b"exactly16bytes!!"
        assert len(salt) == 16
        digest_of_salt = hashlib.blake2b(salt, digest_size=16).digest()
        verbatim = BloomFilter(capacity=50, fp_rate=0.2, salt=salt)
        folded = BloomFilter(capacity=50, fp_rate=0.2, salt=digest_of_salt)
        keys = [fingerprint(str(i).encode()) for i in range(50)]
        verbatim.update(keys)
        folded.update(keys)
        assert verbatim._bits != folded._bits

    def test_len_counts_insertions(self):
        bloom = BloomFilter(capacity=10)
        bloom.add(b"k1" * 10)
        bloom.add(b"k2" * 10)
        assert len(bloom) == 2

    def test_fill_ratio_monotone(self):
        bloom = BloomFilter(capacity=100)
        before = bloom.fill_ratio()
        bloom.update(fingerprint(str(i).encode()) for i in range(100))
        assert bloom.fill_ratio() > before

    def test_size_bytes_positive(self):
        assert BloomFilter(capacity=100).size_bytes > 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            BloomFilter(capacity=0)

    def test_rejects_bad_fp_rate(self):
        with pytest.raises(ConfigError):
            BloomFilter(capacity=10, fp_rate=0.0)

    def test_expected_fp_rate_reasonable(self):
        bloom = BloomFilter(capacity=1000, fp_rate=0.01)
        bloom.update(fingerprint(str(i).encode()) for i in range(1000))
        assert 0.0 < bloom.expected_fp_rate() < 0.05


class TestBloomKernelMatchesReference:
    """The shipped kernels walk the double-hashing sequence in small ints;
    the reference computes ``(h1 + i*h2) mod m`` on the 64-bit halves.
    Bits, counts and answers — false positives included — must agree."""

    @given(
        capacity=st.integers(min_value=1, max_value=3000),
        fp_rate=st.one_of(
            st.sampled_from([0.001, 0.01]),
            st.floats(min_value=0.0005, max_value=0.6),
        ),
        salt=st.one_of(st.binary(max_size=16), st.binary(min_size=17, max_size=40)),
        keys=st.lists(st.binary(min_size=1, max_size=24), max_size=60),
        duplicates=st.integers(min_value=0, max_value=20),
        split=st.integers(min_value=0, max_value=60),
        fresh=st.lists(st.binary(min_size=1, max_size=24), max_size=60),
    )
    def test_bits_and_answers_match(
        self, capacity, fp_rate, salt, keys, duplicates, split, fresh
    ):
        keys = keys + keys[:duplicates]
        shipped = BloomFilter(capacity=capacity, fp_rate=fp_rate, salt=salt)
        reference = BloomFilter(capacity=capacity, fp_rate=fp_rate, salt=salt)
        # Both insertion entry points: single adds, then one batch.
        for key in keys[:split]:
            shipped.add(key)
            bloom_add(reference, key)
        shipped.update(keys[split:])
        bloom_update(reference, keys[split:])
        assert shipped._bits == reference._bits
        assert shipped.count == reference.count == len(keys)
        for key in keys + fresh:
            assert (key in shipped) == bloom_contains(reference, key)
