import hashlib

from eusearch.seeds import subseed

KEYS = [(0,), (0, "inst", 4, 0), (7, "train", 20, 99), (2**63 - 1, "walk", 1999), (-3, "predict", 31), (11, "fit", 4, 8, 12)]


def test_subseed_is_the_sha256_of_its_key():
    # The interpreter's builtin SHA-256 and hashlib's must give the same seeds.
    for master, *parts in KEYS:
        key = ":".join(str(x) for x in (master, *parts)).encode("utf-8")
        assert subseed(master, *parts) == int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1
