"""Propositional objects: literals, clauses, multiset formulas, proof steps."""

from collections import Counter
from typing import Iterable, Iterator

# A literal is a nonzero int: abs(lit) is the variable, the sign its polarity.
Literal = int

ADD = "a"
DELETE = "d"


class AbsentClauseError(Exception):
    """Removal of a clause whose multiplicity is already zero."""


def negate(lit: Literal) -> Literal:
    """Flip a literal's polarity."""
    if lit == 0:
        raise ValueError("0 terminates clauses and is not a literal")
    return -lit


class Clause:
    """A set of literals that remembers the order it was built in.

    Equality and hashing are order-insensitive; the stored order is the
    serialization order, whose first literal acts as the resolution pivot.
    Duplicate literals are dropped, keeping the first occurrence.
    Tautologies (l and -l together) are representable.
    """

    __slots__ = ("_order", "_set")

    def __init__(self, literals: Iterable[Literal] = ()):
        order = []
        seen = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("0 terminates clauses and is not a literal")
            if lit not in seen:
                seen.add(lit)
                order.append(lit)
        self._order = tuple(order)
        self._set = frozenset(seen)

    @property
    def literals(self) -> tuple:
        return self._order

    @property
    def pivot(self):
        """First serialized literal; None for the empty clause."""
        return self._order[0] if self._order else None

    def with_literal(self, lit: Literal) -> "Clause":
        """Union with one literal, appended last so the pivot survives."""
        if lit == 0:
            raise ValueError("0 terminates clauses and is not a literal")
        if lit in self._set:
            return self
        return Clause(self._order + (lit,))

    def without(self, lit: Literal) -> "Clause":
        if lit not in self._set:
            return self
        return Clause(l for l in self._order if l != lit)

    def is_tautology(self) -> bool:
        return any(-l in self._set for l in self._set)

    def __contains__(self, lit) -> bool:
        return lit in self._set

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._order)

    def __eq__(self, other):
        if not isinstance(other, Clause):
            return NotImplemented
        return self._set == other._set

    def __hash__(self):
        return hash(self._set)

    def __repr__(self):
        return "Clause(%s)" % " ".join(str(l) for l in self._order)


EMPTY_CLAUSE = Clause()


class Formula:
    """An immutable multiset of clauses.

    add/remove/union return new formulas; remove decrements multiplicity
    by one and fails on an absent clause rather than going negative.
    """

    __slots__ = ("_mult",)

    def __init__(self, clauses: Iterable[Clause] = ()):
        mult = Counter()
        for c in clauses:
            if not isinstance(c, Clause):
                raise TypeError("Formula holds Clause objects, got %r" % (c,))
            mult[c] += 1
        self._mult = mult

    @classmethod
    def from_counts(cls, items) -> "Formula":
        """Build from (clause, multiplicity) pairs."""
        mult = Counter()
        for clause, k in items:
            if k < 0:
                raise ValueError("negative multiplicity")
            if k:
                mult[clause] += k
        f = cls.__new__(cls)
        f._mult = mult
        return f

    def add(self, clause: Clause) -> "Formula":
        mult = self._mult.copy()
        mult[clause] += 1
        out = Formula.__new__(Formula)
        out._mult = mult
        return out

    def remove(self, clause: Clause) -> "Formula":
        k = self._mult.get(clause, 0)
        if k == 0:
            raise AbsentClauseError("clause not in formula: %r" % (clause,))
        mult = self._mult.copy()
        if k == 1:
            del mult[clause]
        else:
            mult[clause] = k - 1
        out = Formula.__new__(Formula)
        out._mult = mult
        return out

    def union(self, other: "Formula") -> "Formula":
        mult = self._mult.copy()
        for clause, k in other._mult.items():
            mult[clause] += k
        out = Formula.__new__(Formula)
        out._mult = mult
        return out

    def multiplicity(self, clause: Clause) -> int:
        return self._mult.get(clause, 0)

    def distinct(self) -> Iterator[Clause]:
        return iter(self._mult)

    def counts(self):
        """(clause, multiplicity) pairs in insertion order."""
        return self._mult.items()

    def variables(self) -> set:
        return {abs(l) for c in self._mult for l in c.literals}

    def __contains__(self, clause) -> bool:
        return self._mult.get(clause, 0) > 0

    def __len__(self) -> int:
        return sum(self._mult.values())

    def __iter__(self) -> Iterator[Clause]:
        for clause, k in self._mult.items():
            for _ in range(k):
                yield clause

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return self._mult == other._mult

    __hash__ = None

    def __repr__(self):
        return "Formula(%d clauses, %d distinct)" % (len(self), len(self._mult))


class ProofStep(tuple):
    """One proof line: ("a"|"d", clause)."""

    __slots__ = ()

    def __new__(cls, op: str, clause: Clause):
        if op not in (ADD, DELETE):
            raise ValueError("op must be ADD or DELETE, got %r" % (op,))
        return tuple.__new__(cls, (op, clause))

    def __getnewargs__(self):
        # pickle rebuilds tuple subclasses through __new__, which needs both fields
        return (self[0], self[1])

    @property
    def op(self) -> str:
        return self[0]

    @property
    def clause(self) -> Clause:
        return self[1]

    @property
    def is_add(self) -> bool:
        return self[0] == ADD

    def __repr__(self):
        return "ProofStep(%s, %r)" % ("add" if self.is_add else "delete", self[1])


class Refutation:
    """An ordered sequence of proof steps; the checker judges validity."""

    __slots__ = ("_steps",)

    def __init__(self, steps: Iterable[ProofStep] = ()):
        self._steps = tuple(steps)

    @property
    def steps(self) -> tuple:
        return self._steps

    def adds(self) -> Iterator[Clause]:
        """Clauses of the addition steps, in order."""
        return (s.clause for s in self._steps if s.is_add)

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[ProofStep]:
        return iter(self._steps)

    def __getitem__(self, i):
        return self._steps[i]

    def __eq__(self, other):
        if not isinstance(other, Refutation):
            return NotImplemented
        return self._steps == other._steps

    def __hash__(self):
        return hash(self._steps)

    def __repr__(self):
        return "Refutation(%d steps)" % len(self._steps)
