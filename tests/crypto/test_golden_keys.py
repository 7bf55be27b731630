"""Golden identity keys: key generation and signing are pinned *across commits*.

``golden_keys.json`` holds, for the 16 identities the live benchmark boots
(``KeyPair.generate(512, seed=0x500B + i)``) and one 1024-bit key, the SOUP
ID, the SHA-256 of the modulus ``n`` and the signature of three fixed
messages.  Whatever computes the modular exponentiations underneath —
Miller–Rabin during key generation, both CRT halves of a signature — must
reproduce every one of them bit for bit: the arithmetic may move, the
textbook scheme, padding and key generation may not.

An intended change to the scheme re-records them, reviewed like any other
golden file::

    PYTHONPATH=src python -m tests.crypto.test_golden_keys --record
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.crypto import rsa
from repro.crypto.keys import KeyPair

GOLDEN_PATH = Path(__file__).with_name("golden_keys.json")

#: ``(bits, seed)`` per identity: the live benchmark's 16 nodes + one
#: paper-size key.
IDENTITIES = [(512, 0x500B + i) for i in range(16)] + [(1024, 0x500B)]
MESSAGES = (b"", b"golden message", bytes(range(256)) * 4)

CASES = [f"{bits}/{seed:#x}" for bits, seed in IDENTITIES]


@functools.lru_cache(maxsize=None)
def _keys(case: str) -> KeyPair:
    bits, seed = case.split("/")
    return KeyPair.generate(bits=int(bits), seed=int(seed, 16))


def _record_of(case: str) -> dict:
    keys = _keys(case)
    n = keys.public.n
    return {
        "soup_id": f"{keys.soup_id:016x}",
        "n_sha256": hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).hexdigest(),
        "signatures": [f"{rsa.sign(m, keys.private):x}" for m in MESSAGES],
    }


@pytest.mark.parametrize("case", CASES)
def test_identity_reproduces_golden_keys(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _record_of(case) == golden[case]


@pytest.mark.parametrize("case", CASES)
def test_golden_signatures_verify(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    public = _keys(case).public
    for message, signature in zip(MESSAGES, golden[case]["signatures"]):
        assert rsa.verify(message, int(signature, 16), public)


def test_golden_file_covers_every_identity():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CASES)
    assert len({record["soup_id"] for record in golden.values()}) == len(CASES)


def _record() -> None:
    golden = {case: _record_of(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} identities to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.crypto.test_golden_keys --record")
    _record()
