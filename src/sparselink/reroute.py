"""Online rerouting countermeasures against denial-of-service link attacks.

Given the offline priority table and a set of attacked priorities, decide
which attacked links' data is rerouted through sacrificed lower-priority
links' channels and which is dropped, and emit the post-attack table and
sparsity pattern. Three procedures cover the cases: uniform block sizes,
a single attacked link with mixed sizes, and multiple attacked links with
mixed sizes. Capacity is counted in information units (block element
counts), exactly as the table stores it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InfeasibleOutcome,
    InvalidAssumption,
)
from .plant import BlockPartition, SparsityPattern
from .priority import PriorityTable


@dataclass(frozen=True)
class AttackScenario:
    """Attacked priority levels."""

    priorities: frozenset[int]

    @classmethod
    def none(cls) -> "AttackScenario":
        return cls(frozenset())


@dataclass(frozen=True)
class RerouteOutcome:
    """Post-attack table plus the bookkeeping sets.

    Rows of the final table are zeroed exactly for sacrificed and dropped
    priorities; rerouted rows keep their values (their data now travels on
    the sacrificed links' channels). feasible=False means the countermeasure
    cannot be implemented and the table is returned unchanged.
    """

    table: PriorityTable
    attacked: frozenset[int]
    sacrificed: frozenset[int]
    rerouted: frozenset[int]
    dropped: frozenset[int]
    feasible: bool


def _validated_attack(table: PriorityTable, attacked) -> frozenset[int]:
    prios = frozenset(int(q) for q in attacked)
    for q in prios:
        if not 1 <= q <= table.r1:
            raise IndexOutOfRange(f"attacked priority {q} outside 1..{table.r1}")
    return prios


def _identity_outcome(table: PriorityTable) -> RerouteOutcome:
    empty = frozenset()
    return RerouteOutcome(table, empty, empty, empty, empty, True)


def _infeasible_outcome(table: PriorityTable, attacked) -> RerouteOutcome:
    empty = frozenset()
    return RerouteOutcome(table, frozenset(attacked), empty, empty, empty, False)


def reroute_uniform(table: PriorityTable, attacked) -> RerouteOutcome:
    """Countermeasure when every block carries the same number of units.

    Attacked priorities are processed in descending order; the j-th highest
    is paired with the j-th lowest non-attacked link. The pair reroutes
    (sacrificing the host) only when the attacked priority exceeds the
    host's, otherwise the attacked link's data is dropped. More attacked
    links than half the table is infeasible.
    """
    sizes = set(table.sizes())
    if len(sizes) > 1:
        raise InvalidAssumption(f"block sizes are not uniform: {sorted(sizes)}")
    attacked = _validated_attack(table, attacked)
    r1, r3 = table.r1, len(attacked)
    if r3 == 0:
        return _identity_outcome(table)
    if r3 > r1 / 2:
        return _infeasible_outcome(table, attacked)

    descending = sorted(attacked, reverse=True)
    hosts = sorted(q for q in range(1, r1 + 1) if q not in attacked)
    sacrificed, rerouted, dropped = set(), set(), set()
    for j, a in enumerate(descending):
        host = hosts[j]
        if a > host:
            sacrificed.add(host)
            rerouted.add(a)
        else:
            dropped.add(a)
    final = table.with_zeroed_rows(sacrificed | dropped)
    return RerouteOutcome(
        final,
        attacked,
        frozenset(sacrificed),
        frozenset(rerouted),
        frozenset(dropped),
        True,
    )


def reroute_single(table: PriorityTable, r_attack: int) -> RerouteOutcome:
    """Single attacked link on a table with arbitrary block sizes.

    The attacked block's units are split across sacrificed hosts taken in
    ascending priority until its size is covered; a host sacrifices its
    whole row even when that over-provisions. The lowest-priority link, or
    an attacked block larger than all capacity below it, is dropped.
    """
    r_attack = int(r_attack)
    if not 1 <= r_attack <= table.r1:
        raise IndexOutOfRange(f"attacked priority {r_attack} outside 1..{table.r1}")
    attacked = frozenset([r_attack])
    if r_attack == 1:
        final = table.with_zeroed_rows(attacked)
        return RerouteOutcome(final, attacked, frozenset(), frozenset(), attacked, True)

    sizes = table.sizes()
    need = sizes[r_attack - 1]
    capacity = sum(sizes[q - 1] for q in range(1, r_attack))
    if capacity < need:
        final = table.with_zeroed_rows(attacked)
        return RerouteOutcome(final, attacked, frozenset(), frozenset(), attacked, True)

    sacrificed = set()
    remaining = need
    for q in range(1, r_attack):
        sacrificed.add(q)
        remaining -= sizes[q - 1]
        if remaining <= 0:
            break
    final = table.with_zeroed_rows(sacrificed)
    return RerouteOutcome(
        final, attacked, frozenset(sacrificed), attacked, frozenset(), True
    )


def reroute_multi(table: PriorityTable, attacked) -> RerouteOutcome:
    """Multiple attacked links on a table with arbitrary block sizes.

    Feasibility is screened on total attacked units b1 versus the capacity
    b2 available strictly below the highest attacked priority. Attacked
    priorities are then served in descending order by the single-link inner
    loop, with hosts never reused and never themselves attacked; an attacked
    block whose remaining lower-priority capacity is too small is dropped.
    """
    attacked = _validated_attack(table, attacked)
    r1, r3 = table.r1, len(attacked)
    if r3 == 0:
        return _identity_outcome(table)

    sizes = table.sizes()
    top_attacked = max(attacked)
    b1 = sum(sizes[q - 1] for q in attacked)
    b2 = sum(sizes[q - 1] for q in range(1, top_attacked) if q not in attacked)

    if b1 > b2 and r3 >= r1 / 2:
        return _infeasible_outcome(table, attacked)

    sacrificed, rerouted, dropped = set(), set(), set()
    for a in sorted(attacked, reverse=True):
        hosts = [
            q
            for q in range(1, a)
            if q not in attacked and q not in sacrificed
        ]
        capacity = sum(sizes[q - 1] for q in hosts)
        need = sizes[a - 1]
        if capacity < need:
            dropped.add(a)
            continue
        remaining = need
        for q in hosts:
            sacrificed.add(q)
            remaining -= sizes[q - 1]
            if remaining <= 0:
                break
        rerouted.add(a)
    final = table.with_zeroed_rows(sacrificed | dropped)
    return RerouteOutcome(
        final,
        attacked,
        frozenset(sacrificed),
        frozenset(rerouted),
        frozenset(dropped),
        True,
    )


def pattern_from(outcome: RerouteOutcome, partition: BlockPartition) -> SparsityPattern:
    """Pattern of links still active after the countermeasure: the table's
    blocks minus sacrificed minus dropped (rerouted links stay free)."""
    if not outcome.feasible:
        raise InfeasibleOutcome("outcome marked infeasible has no post-attack pattern")
    sizes = partition.block_sizes()
    n_nodes = partition.n_nodes
    mask = np.zeros((n_nodes, n_nodes), dtype=bool)
    dead = outcome.sacrificed | outcome.dropped
    for row in outcome.table.rows:
        if not (0 <= row.i < n_nodes and 0 <= row.j < n_nodes):
            raise DimensionMismatch(f"row block ({row.i},{row.j}) outside partition grid")
        if row.size != int(sizes[row.i, row.j]):
            raise DimensionMismatch(
                f"row size {row.size} mismatches partition block ({row.i},{row.j})"
            )
        if row.q not in dead:
            mask[row.i, row.j] = True
    return SparsityPattern(mask, partition)
