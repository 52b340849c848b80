"""Online rerouting countermeasures against denial-of-service link attacks.

Given the offline priority table and a set of attacked priorities, decide
which attacked links' data is rerouted through sacrificed lower-priority
links' channels and which is dropped, and emit the post-attack table and
sparsity pattern. Every outcome comes from one serving rule (_serve); the
three procedures (uniform block sizes, a single attacked link with mixed
sizes, multiple attacked links with mixed sizes) differ only in the
precondition and feasibility screen in front of it, and select_reroute
chooses among them. Each takes the attacked priorities as given and checks
them by one rule (_validated_attack): integers in 1..r1 of the table.
Capacity is counted in information units (block element counts), exactly
as the table stores it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InfeasibleOutcome, InvalidAssumption, _integer
from .plant import BlockPartition, SparsityPattern
from .priority import PriorityTable


@dataclass(frozen=True)
class RerouteOutcome:
    """Post-attack table plus the bookkeeping sets.

    Rows of the final table are zeroed exactly for sacrificed and dropped
    priorities; rerouted rows keep their values (their data now travels on
    the sacrificed links' channels). feasible=False means the countermeasure
    cannot be implemented and the table is returned unchanged. Only a
    possible outcome constructs; __post_init__ raises InvalidAssumption
    for any other.
    """

    table: PriorityTable
    attacked: frozenset[int]
    sacrificed: frozenset[int]
    rerouted: frozenset[int]
    dropped: frozenset[int]
    feasible: bool

    def __post_init__(self):
        r1 = self.table.r1
        named = self.attacked | self.sacrificed | self.rerouted | self.dropped
        if any(not 1 <= q <= r1 for q in named):
            raise InvalidAssumption(f"outcome names a priority outside 1..{r1}")
        if self.attacked & self.sacrificed:
            raise InvalidAssumption("an attacked link cannot be sacrificed")
        if self.rerouted & self.dropped:
            raise InvalidAssumption("a link cannot be both rerouted and dropped")
        if self.feasible and self.rerouted | self.dropped != self.attacked:
            raise InvalidAssumption("a feasible outcome reroutes or drops each attacked link")
        if not self.feasible and self.sacrificed | self.rerouted | self.dropped:
            raise InvalidAssumption("an infeasible outcome sacrifices, reroutes and drops nothing")
        if not all(self.table.is_zero_row(q) for q in self.sacrificed | self.dropped):
            raise InvalidAssumption("sacrificed and dropped rows must be zero")


def _validated_attack(table: PriorityTable, attacked) -> frozenset[int]:
    """attacked as a set of ints. InvalidAssumption for a priority that is
    no integer (a bool, a float or a string; NumPy integers are integers),
    IndexOutOfRange for one outside 1..r1 of the table."""
    prios = frozenset(_integer(q, "attacked priority") for q in attacked)
    for q in prios:
        if not 1 <= q <= table.r1:
            raise IndexOutOfRange(f"attacked priority {q} outside 1..{table.r1}")
    return prios


def _infeasible_outcome(table: PriorityTable, attacked: frozenset[int]) -> RerouteOutcome:
    empty = frozenset()
    return RerouteOutcome(table, attacked, empty, empty, empty, False)


def _serve(table: PriorityTable, attacked: frozenset[int]) -> RerouteOutcome:
    """The serving rule of every procedure. Attacked priorities are taken
    highest first; each takes, in ascending priority, the non-attacked links
    below it that no earlier attacked link has taken, until its size is
    covered (a host gives up its whole row, even when that over-provisions).
    An attacked link whose capacity left below it is too small is dropped."""
    sizes = table.sizes()
    sacrificed, rerouted, dropped = set(), set(), set()
    for a in sorted(attacked, reverse=True):
        hosts = [q for q in range(1, a) if q not in attacked and q not in sacrificed]
        remaining = sizes[a - 1]
        if sum(sizes[q - 1] for q in hosts) < remaining:
            dropped.add(a)
            continue
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


def reroute_uniform(table: PriorityTable, attacked) -> RerouteOutcome:
    """Countermeasure when every block carries the same number of units.

    One host covers one attacked link, so the j-th highest attacked priority
    rides the j-th lowest non-attacked link when that link ranks strictly
    lower, and is dropped otherwise. More attacked links than half the table
    is infeasible.
    """
    sizes = set(table.sizes())
    if len(sizes) > 1:
        raise InvalidAssumption(f"block sizes are not uniform: {sorted(sizes)}")
    attacked = _validated_attack(table, attacked)
    if len(attacked) > table.r1 / 2:
        return _infeasible_outcome(table, attacked)
    return _serve(table, attacked)


def reroute_single(table: PriorityTable, r_attack: int) -> RerouteOutcome:
    """Single attacked link on a table with arbitrary block sizes; always
    feasible. The lowest-priority link, or an attacked block larger than all
    capacity below it, is dropped."""
    return _serve(table, _validated_attack(table, [r_attack]))


def reroute_multi(table: PriorityTable, attacked) -> RerouteOutcome:
    """Multiple attacked links on a table with arbitrary block sizes.

    Infeasible when the total attacked units b1 exceed the capacity b2 of the
    non-attacked links strictly below the highest attacked priority and at
    least half the table is attacked; otherwise served with hosts never
    reused and never themselves attacked.
    """
    attacked = _validated_attack(table, attacked)
    sizes = table.sizes()
    b1 = sum(sizes[q - 1] for q in attacked)
    b2 = sum(sizes[q - 1] for q in range(1, max(attacked, default=0)) if q not in attacked)
    if b1 > b2 and len(attacked) >= table.r1 / 2:
        return _infeasible_outcome(table, attacked)
    return _serve(table, attacked)


def select_reroute(table: PriorityTable, attacked) -> RerouteOutcome:
    """Uniform block sizes use reroute_uniform; one attacked block on a
    mixed-size table uses reroute_single; anything else reroute_multi."""
    attacked = _validated_attack(table, attacked)
    if len(set(table.sizes())) <= 1:
        return reroute_uniform(table, attacked)
    if len(attacked) == 1:
        return reroute_single(table, next(iter(attacked)))
    return reroute_multi(table, attacked)


def _links_without(table: PriorityTable, dead, partition: BlockPartition) -> SparsityPattern:
    """Pattern of the table's blocks whose priority is not in dead; the
    table must fit the partition (check_fits)."""
    table.check_fits(partition)
    mask = np.zeros((partition.n_nodes, partition.n_nodes), dtype=bool)
    for row in table.rows:
        mask[row.i, row.j] = row.q not in dead
    return SparsityPattern(mask, partition)


def pattern_from(outcome: RerouteOutcome, partition: BlockPartition) -> SparsityPattern:
    """Pattern of links still active after the countermeasure: the table's
    blocks minus sacrificed minus dropped (rerouted links stay free)."""
    if not outcome.feasible:
        raise InfeasibleOutcome("outcome marked infeasible has no post-attack pattern")
    return _links_without(outcome.table, outcome.sacrificed | outcome.dropped, partition)
