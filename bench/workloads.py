"""Seeded block workloads for the txpar benchmark.

Every workload is a list of ``(label, Workload)`` blocks that depends only on
the workload name, the seed and the scale. The seed draws the instances
(transaction order, gas costs, account and contract names, block order);
the shape of each block (its size, its applications and their parameters)
is fixed per workload and scale. Two seeds therefore put the same amount
and kind of conflict on each layer, so their timings can be compared.

Why each workload exists (see README.md for the metric map):

- ``mixed_blocks``: many small blocks shaped like the acceptance corpus
  (payments plus one or two counter apps, n 20-200). The paper's traffic; no
  single layer dominates and per-file CLI overhead matters.
- ``hot_counter``: a few ``token_distribution`` blocks with one sender and a
  total-supply key. Every pair conflicts, so the quadratic edge set (graph
  build, ``dependents``, the ``dep_graph`` policy's edge scan) dominates.
- ``wide_payments``: one wide conflict-free ``payments`` block. The graph has
  no edges; parsing, per-attempt engine cost, classic OCC's commit scan and
  the storage-VM replay remain.
- ``counter_rewrite``: blocks carrying all three bottleneck apps, rewritten
  at set-up with the paper's three techniques (split senders, partitioned
  counters, commutative adds) and simulated cadd-aware.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

WORKLOADS = ("mixed_blocks", "hot_counter", "wide_payments", "counter_rewrite")

#: Workloads whose commands all run with ``--cadd-aware``.
CADD_AWARE = frozenset({"counter_rewrite"})

#: Sizes per scale. ``full`` is what BENCHMARK.json measures; ``tiny`` keeps
#: the self-test fast.
SIZES = {
    "full": {
        "mixed_blocks": {"blocks": 16, "n_min": 20, "n_max": 200},
        "hot_counter": {"blocks": 2, "n": 160},
        "wide_payments": {"blocks": 1, "n": 2000},
        "counter_rewrite": {"blocks": 5, "n": 280},
    },
    "tiny": {
        "mixed_blocks": {"blocks": 6, "n_min": 20, "n_max": 40},
        "hot_counter": {"blocks": 1, "n": 30},
        "wide_payments": {"blocks": 1, "n": 60},
        "counter_rewrite": {"blocks": 2, "n": 40},
    },
}

APPS = ("token_distribution", "defi_fee", "nft_mint")
PAYMENT_GAS = [21_000, 60_000]
APP_GAS = {
    "token_distribution": [40_000, 90_000],
    "defi_fee": [60_000, 140_000],
    "nft_mint": [90_000, 200_000],
}

#: Rewrite parameters for counter_rewrite: derived senders for the
#: distributor and sub-counters for the fee key.
SPLIT_M = 8
PARTITION_LENGTH = 8


def build(txpar, name: str, seed: int, scale: str, span=None) -> list:
    """The blocks of one workload. ``span(name)`` returns a context manager
    wrapped around each transform call, so a traced set-up can time them."""
    size = SIZES[scale][name]
    rng = random.Random(f"{name}|{seed}")
    span = span or (lambda _name: nullcontext())
    make_blocks = {
        "mixed_blocks": _mixed_blocks,
        "hot_counter": _hot_counter,
        "wide_payments": _wide_payments,
        "counter_rewrite": _counter_rewrite,
    }[name]
    blocks = make_blocks(txpar, rng, size, span)
    rng.shuffle(blocks)
    return [(f"block-{i:03d}", w) for i, w in enumerate(blocks)]


def _app_params(shape: random.Random, kind: str) -> dict:
    if kind == "token_distribution":
        return {"senders": shape.randint(1, 4), "track_total_supply": shape.random() < 0.3, "gas": APP_GAS[kind]}
    if kind == "defi_fee":
        return {"traders": shape.randint(2, 32), "gas": APP_GAS[kind]}
    return {"gas": APP_GAS[kind]}


def _mixed_blocks(txpar, rng, size, span):
    # The block shapes follow the acceptance corpus (tests/corpus_util.py)
    # but come from a fixed stream, so they are the same for every seed.
    shape = random.Random("mixed_blocks shape")
    blocks = []
    for _ in range(size["blocks"]):
        n = shape.randint(size["n_min"], size["n_max"])
        spec = [("payments", {"gas": PAYMENT_GAS}, shape.uniform(3.0, 8.0))]
        for _ in range(shape.randint(1, 2)):
            kind = shape.choice(APPS)
            spec.append((kind, _app_params(shape, kind), shape.uniform(0.5, 2.0)))
        blocks.append(txpar.gen_mixed(spec, n, seed=rng.randrange(2**31)))
    return blocks


def _hot_counter(txpar, rng, size, span):
    return [
        txpar.gen_token_distribution(
            size["n"],
            senders=1,
            track_total_supply=True,
            seed=rng.randrange(2**31),
            gas=tuple(APP_GAS["token_distribution"]),
        )
        for _ in range(size["blocks"])
    ]


def _wide_payments(txpar, rng, size, span):
    return [
        txpar.gen_payments(size["n"], seed=rng.randrange(2**31), gas=tuple(PAYMENT_GAS))
        for _ in range(size["blocks"])
    ]


def _counter_rewrite(txpar, rng, size, span):
    transforms = txpar.transforms
    n = size["n"]
    spec = [
        ("payments", {"gas": PAYMENT_GAS}, 4.0),
        ("defi_fee", {"traders": n, "gas": APP_GAS["defi_fee"]}, 2.0),
        ("token_distribution", {"senders": 1, "track_total_supply": True, "gas": APP_GAS["token_distribution"]}, 2.0),
        ("nft_mint", {"gas": APP_GAS["nft_mint"]}, 0.5),
    ]
    blocks = []
    for _ in range(size["blocks"]):
        w = txpar.gen_mixed(spec, n, seed=rng.randrange(2**31))
        keys = [txpar.StorageKey.parse(k) for k in w.meta["bottleneck_keys"]]
        fee = next(k for k in keys if k.slot == "feeBalance")
        supply = next(k for k in keys if k.slot == "totalSupply")
        distributor = next(k for k in keys if k.slot.startswith("bal:"))
        with span("transforms.split_senders"):
            w = transforms.split_senders(
                w, hot_sender=distributor.slot[len("bal:") :], m=SPLIT_M, sender_balance_key=distributor
            )
        with span("transforms.partition_counters"):
            w = transforms.partition_counters(w, transforms.PartitionSpec(frozenset({fee}), PARTITION_LENGTH))
        with span("transforms.cadd_rewrite"):
            w = transforms.cadd_rewrite(w, frozenset({supply}))
        blocks.append(w)
    return blocks
