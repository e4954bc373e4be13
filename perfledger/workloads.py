"""Seeded request generators for the three benchmark workloads.

Everything here is plain data (tuples and dicts) built from the standard
library, so the generators can be tested without importing ``repro``.
Every stream is a pure function of its seed.

Hit draws come from shuffled *decks* (sampling without replacement per
block) rather than independently, and every cold session follows a fixed
stratified design.  Each draw is still uniform, but every complete block
holds the same mix, so the share of slow and fast requests in a run does
not wander from seed to seed.  That keeps the p50 and p90 of each run
inside one mode of its latency distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: depths of a cold sweep session: every depth from 4 to 33 once.
COLD_DEPTHS = tuple(range(4, 34))

#: requests per cold sweep session (one per depth); each session plans
#: into a fresh workspace root, so the profile store a miss rewrites is
#: bounded by the session, not by how long the run lasted.
COLD_SESSION = len(COLD_DEPTHS)

#: nodes per testbed (Testbed A: 48 GPUs at 8 per node; B: 32 at 4).
TESTBED_NODES = {"A": 6, "B": 8}

#: the hit workloads' plans: model preset x system x sequence length,
#: all on Testbed A at the preset's own depth.
HIT_MODELS = ("GPT2-XL", "Mixtral-7B", "Mixtral-22B")
HIT_SYSTEMS = ("fsmoe", "tutel", "dsmoe")
HIT_SEQ_LENS = (1024, 2048)
HIT_PLANS = tuple(
    (model, system, seq_len)
    for model in HIT_MODELS
    for system in HIT_SYSTEMS
    for seq_len in HIT_SEQ_LENS
)

#: ``wire_hits`` detail mix: per plan, four summaries and one full plan
#: document in every block, i.e. 80% / 20%.
WIRE_DETAILS = ("summary",) * 4 + ("plan",)


@dataclass(frozen=True)
class ColdRequest:
    """One cold FSMoE plan request: a homogeneous stack of one layer spec.

    Attributes:
        session: index of the cold sweep session (fresh workspace root).
        cluster: testbed name, ``"A"`` or ``"B"``.
        depth: number of layers in the stack.
        seq_len, embed_dim, top_k: the layer's shape.
        num_experts: total experts, a multiple of the testbed's nodes.
    """

    session: int
    cluster: str
    depth: int
    seq_len: int
    embed_dim: int
    top_k: int
    num_experts: int

    @property
    def layer_key(self) -> tuple:
        """Identity of the layer spec (everything but depth and session)."""
        return (
            self.cluster, self.seq_len, self.embed_dim, self.top_k,
            self.num_experts,
        )


class DistinctnessError(RuntimeError):
    """The cold generator could not find a block of unseen requests."""


def _cold_block(
    session: int, rng: random.Random, seen: set, tries: int = 100
) -> list[ColdRequest]:
    """One session's 30 requests: a fixed design, jittered by the seed.

    Each attribute takes one value from each of its strata, and which
    strata meet in one request (the design) depends on the session index
    alone, so every run holds the same mix of cheap and expensive
    requests.  The seed picks the value inside each stratum and the order
    of the requests.  A design or jitter that would repeat a layer spec
    already in ``seen`` is drawn again.
    """
    n = COLD_SESSION
    design = random.Random(f"cold_sweep/design/{session}")
    for _ in range(tries):
        columns = [
            list(COLD_DEPTHS),
            ["A", "B"] * (n // 2),
            list(range(n)),  # sequence-length stratum
            [j // 2 for j in range(n)],  # embed-dim stratum
            [1, 2] * (n // 2),  # top-k
            [1, 2] * (n // 2),  # experts per node
        ]
        for column in columns:
            design.shuffle(column)
        for _ in range(tries):
            block = [
                ColdRequest(
                    session=session,
                    cluster=cluster,
                    depth=depth,
                    seq_len=256 + 128 * seq + 64 * rng.randrange(2),
                    embed_dim=1024 + 256 * embed + 128 * rng.randrange(2),
                    top_k=top_k,
                    num_experts=TESTBED_NODES[cluster] * per_node,
                )
                for depth, cluster, seq, embed, top_k, per_node in zip(
                    *columns
                )
            ]
            keys = {request.layer_key for request in block}
            if len(keys) == n and not keys & seen:
                seen.update(keys)
                rng.shuffle(block)
                return block
    raise DistinctnessError(
        f"no block of {n} unseen layer specs after {tries} designs "
        f"({len(seen)} specs already used)"
    )


def cold_sweep_requests(seed: int) -> Iterator[ColdRequest]:
    """Endless stream of distinct cold requests, session by session.

    No two requests of one stream share a layer spec, so every request
    fits a new layer profile and solves new Algorithm-1 contexts.  The
    generator raises :class:`DistinctnessError` rather than repeat one.
    """
    rng = random.Random(f"cold_sweep/{seed}")
    seen: set = set()
    session = 0
    while True:
        yield from _cold_block(session, rng, seen)
        session += 1


def deck_draws(items: tuple, seed: int, label: str) -> Iterator:
    """Endless draws from ``items``: one shuffled copy after another."""
    rng = random.Random(f"{label}/{seed}")
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def session_hits_draws(seed: int) -> Iterator[int]:
    """Indices into :data:`HIT_PLANS`, uniform, in blocks of 18."""
    return deck_draws(tuple(range(len(HIT_PLANS))), seed, "session_hits")


def wire_hits_draws(seed: int) -> Iterator[tuple[int, str]]:
    """``(plan index, detail)`` pairs, uniform, in blocks of 90."""
    items = tuple(
        (index, detail)
        for index in range(len(HIT_PLANS))
        for detail in WIRE_DETAILS
    )
    return deck_draws(items, seed, "wire_hits")


def hit_payload(index: int) -> dict:
    """The wire payload (``repro serve`` request schema) of one hit plan."""
    model, system, seq_len = HIT_PLANS[index]
    return {
        "cluster": "A",
        "system": system,
        "stack": {"model": model, "seq_len": seq_len},
    }
