"""A fixed pure-Python yardstick for the host's current speed.

    python3 perfbench/calibrate.py      # prints {"yardstick_s": ...}

The benchmark runs on shared hosts whose speed drifts by tens of percent
within minutes, for all the code of a process alike.  The yardstick times
a fixed piece of work that shares nothing with the checker but is made of
the same kinds of operations: subset construction over frozensets and
dicts (like the SFA product walk), unit propagation over lists of ints
(like the SAT core) and a burst of small allocations (like both).
``run.py`` runs it in its own fresh interpreter before, between and after
a sample's phases and divides the phases' times by it, so that drift of
the host cancels out.  The work is fixed and the program never runs it,
so a change to the checker cannot move the yardstick.
"""

from __future__ import annotations

import json
import time

#: random NFA of the subset construction: states, symbols, fan-out, and
#: the number of subset states explored
NFA_STATES = 40
NFA_SYMBOLS = 6
NFA_FANOUT = 3
NFA_SUBSETS = 1500
#: random 3-CNF of the propagation loop: variables, clauses, rounds and
#: decisions per round
CNF_VARS = 120
CNF_CLAUSES = 500
CNF_ROUNDS = 80
CNF_DECISIONS = 60
#: entries of the allocation burst
ALLOCATIONS = 120_000


def _lcg(state: int):
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        yield state >> 33


def _subset_construction() -> int:
    rand = _lcg(12345)
    delta = {
        (q, a): frozenset(next(rand) % NFA_STATES for _ in range(NFA_FANOUT))
        for q in range(NFA_STATES) for a in range(NFA_SYMBOLS)
    }
    start = frozenset({0})
    seen = {start: 0}
    frontier = [start]
    rows: dict = {}
    while frontier and len(seen) < NFA_SUBSETS:
        states = frontier.pop()
        row = []
        for a in range(NFA_SYMBOLS):
            target = frozenset().union(*(delta[q, a] for q in states))
            if target not in seen:
                seen[target] = len(seen)
                frontier.append(target)
            row.append(seen[target])
        rows[seen[states]] = tuple(row)
    return len(rows)


def _propagation() -> int:
    rand = _lcg(67890)
    clauses = [
        [(next(rand) % CNF_VARS + 1) * (1 if next(rand) % 2 else -1) for _ in range(3)]
        for _ in range(CNF_CLAUSES)
    ]
    watches: dict[int, list[int]] = {}
    for index, clause in enumerate(clauses):
        for literal in clause:
            watches.setdefault(-literal, []).append(index)
    implied = 0
    for _ in range(CNF_ROUNDS):
        assignment: dict[int, bool] = {}
        queue = [(next(rand) % CNF_VARS + 1) * (1 if next(rand) % 2 else -1)
                 for _ in range(CNF_DECISIONS)]
        while queue:
            literal = queue.pop()
            var = abs(literal)
            if var in assignment:
                continue
            assignment[var] = literal > 0
            for index in watches.get(literal, ()):
                free = [l for l in clauses[index]
                        if abs(l) not in assignment or assignment[abs(l)] == (l > 0)]
                if len(free) == 1 and abs(free[0]) not in assignment:
                    queue.append(free[0])
                    implied += 1
    return implied


def _allocation() -> int:
    rand = _lcg(99)
    table = {}
    for i in range(ALLOCATIONS):
        table[next(rand) % 1000003, i & 255] = frozenset((i & 7, i & 15))
    return sum(len(table[key]) for key in list(table)[::3])


def yardstick() -> float:
    """Seconds the fixed work takes on this host now."""
    started = time.perf_counter()
    _subset_construction()
    _propagation()
    _allocation()
    return time.perf_counter() - started


if __name__ == "__main__":
    print(json.dumps({"yardstick_s": yardstick()}))
