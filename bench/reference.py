"""A fixed pure-Python computation that measures how fast the machine runs now.

On a shared host the speed of the same code drifts by tens of percent
within minutes. In one process on a 2-core container, back-to-back
``stitch-verify`` operations on identical inputs slowed from 2.1 s to
3.5 s within two minutes, and one set of ten runs can sit 40% above
another. Wall seconds are then no unit to compare a change with its
parent in. This reference, timed right before and right after each
operation, slowed with it (0.18 s to 0.27 s): the ratio of the two varied
half as much as the wall time (coefficient of variation 0.07 against
0.14 over 26 operations). ``run.py`` reports its times on the
reference's scale, as wall time × ``NOMINAL_S`` / reference time.

The reference is a frozen copy of the checker's inner loop, unit
propagation over occurrence lists kept in dicts, on a fixed random 3-CNF
with fixed assumption sets, so that it is slowed by what slows the
checker. It imports nothing from dratstitch: a change to the program does
not move it.
"""

import random
import time

# The reference's wall time on an idle 2-core host, so that scaled times
# read as seconds on that host.
NOMINAL_S = 0.2

NUM_VARS = 300
NUM_CLAUSES = 1290
NUM_PROBES = 400
PROBE_SIZE = 6
REPEATS = 25
PROPAGATIONS = 63525  # per measure(): REPEATS passes over the probes


class Reference:
    def __init__(self):
        rng = random.Random("reference")
        self.occ = {}
        for _ in range(NUM_CLAUSES):
            chosen = rng.sample(range(1, NUM_VARS + 1), 3)
            clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
            for lit in clause:
                self.occ.setdefault(lit, {})[clause] = None
        self.probes = [
            tuple(rng.choice((-1, 1)) * v for v in rng.sample(range(1, NUM_VARS + 1), PROBE_SIZE))
            for _ in range(NUM_PROBES)
        ]

    def measure(self):
        """Wall seconds of one fixed amount of work."""
        start = time.perf_counter()
        count = 0
        for _ in range(REPEATS):
            for probe in self.probes:
                count += self._propagate(probe)
        wall = time.perf_counter() - start
        assert count == PROPAGATIONS, "the reference did other work than it was fixed to: %d" % count
        return wall

    def _propagate(self, assumptions):
        """Propagations until a conflict or the fixpoint."""
        true = {}
        queue = list(assumptions)
        qi = 0
        while qi < len(queue):
            lit = queue[qi]
            qi += 1
            if lit in true:
                continue
            if -lit in true:
                break
            true[lit] = None
            for clause in list(self.occ.get(-lit, ())):
                unassigned = None
                skip = False
                for m in clause:
                    if m in true:
                        skip = True
                        break
                    if -m in true:
                        continue
                    if unassigned is None:
                        unassigned = m
                    else:
                        skip = True
                        break
                if skip:
                    continue
                if unassigned is None:
                    return len(true)
                queue.append(unassigned)
        return len(true)


def scaled(wall, ref_before, ref_after):
    """wall on the reference's scale, by the mean of the references around it."""
    return wall * NOMINAL_S / ((ref_before + ref_after) / 2)
