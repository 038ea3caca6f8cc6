"""Microbenchmark: the line-to-mask memo on the signature hot path.

``Signature.insert`` / ``Signature.member`` are the hottest operations
in the simulator — every transactional access inserts into Rsig/Wsig,
and every forwarded coherence request probes them.  The register is one
word, so both need the address's one-bit-per-bank mask, whose H3 parity
reductions would otherwise be recomputed on every probe.  The family
memoizes line → mask (``HashFamily.mask_memo``); this benchmark shows
the win on a repeated-probe stream (the realistic shape: transactions
re-touch hot lines, processors re-probe them) and prints the register's
per-op cost.

Run directly::

    PYTHONPATH=src python -m pytest benchmarks/test_signature_microbench.py -q -s
"""

from __future__ import annotations

import time

from repro.signatures.bloom import Signature
from repro.signatures.hashing import HashFamily, make_hash_family

#: Distinct line addresses in the working set (fits the index cache).
ADDRESSES = [0x1000 + 64 * i for i in range(512)]
#: Membership probes per address.
ROUNDS = 40


def _probe_seconds(family: HashFamily) -> tuple:
    signature = Signature(2048, 4, family=family)
    signature.insert_all(ADDRESSES)  # also warms the cache, as on real runs
    hits = 0
    started = time.perf_counter()
    for _ in range(ROUNDS):
        for address in ADDRESSES:
            hits += signature.member(address)
    return time.perf_counter() - started, hits


def test_index_cache_speeds_up_membership():
    cached = make_hash_family(2048, 4)
    uncached = HashFamily(list(cached._hashes), cache_entries=0)

    # Correctness first: the memo must not change a single mask.
    for address in ADDRESSES:
        assert cached.mask(address) == uncached.mask(address)

    cold_seconds, cold_hits = _probe_seconds(uncached)
    warm_seconds, warm_hits = _probe_seconds(cached)
    assert cold_hits == warm_hits == ROUNDS * len(ADDRESSES)

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print(
        f"\nsignature membership: uncached {cold_seconds * 1e3:.1f}ms, "
        f"cached {warm_seconds * 1e3:.1f}ms, speedup {speedup:.1f}x "
        f"({ROUNDS * len(ADDRESSES)} probes)"
    )
    # The H3 parity reduction costs far more than a dict hit; demand a
    # conservative margin so the assertion is robust on noisy CI hosts.
    assert speedup > 1.3, f"expected cached probes to win, got {speedup:.2f}x"


def test_register_ops_per_call():
    """Print the memo-warm register's per-op cost (no timing assertion)."""
    signature = Signature(2048, 4)
    signature.insert_all(ADDRESSES)  # warm the memo
    insert, member = signature.insert, signature.member
    ops = ROUNDS * len(ADDRESSES)
    started = time.perf_counter()
    for _ in range(ROUNDS):
        for address in ADDRESSES:
            insert(address)
    insert_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(ROUNDS):
        for address in ADDRESSES:
            member(address)
    member_seconds = time.perf_counter() - started
    print(
        f"\nsignature register: insert {insert_seconds / ops * 1e6:.3f}us/op, "
        f"member {member_seconds / ops * 1e6:.3f}us/op ({ops} ops each)"
    )
    assert all(member(address) for address in ADDRESSES)


def test_cache_stays_bounded():
    family = HashFamily(list(make_hash_family(256, 2)._hashes), cache_entries=64)
    memo = family.mask_memo
    for address in range(1000):
        family.mask(address)
        assert len(memo) <= 64
    # Flash-cleared in place: a signature's reference to the memo stays live.
    assert family.mask_memo is memo
