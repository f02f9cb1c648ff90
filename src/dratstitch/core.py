"""Propositional objects: literals, clauses, multiset formulas, proof steps.

A clause is a frozenset of its literals that also keeps their
serialization order, one object per clause: every dict and set keyed by
clause value, in the checker, the trimmer and the stitcher, hashes and
compares it in frozenset's own C code.
"""

from collections import Counter
from operator import itemgetter
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


class Clause(frozenset):
    """A set of literals that remembers the order it was built in.

    A clause is one object: the frozenset of its literals, plus the
    tuple of the same literals in serialization order, whose first
    literal acts as the resolution pivot. Hashing, equality, membership,
    len and truth are frozenset's own, so a clause equals, and hashes
    like, the frozenset (or set) of its literals, whatever their order;
    iteration, ``literals`` and ``pivot`` follow the serialization order.
    Duplicate literals are dropped, keeping the first occurrence.
    Tautologies (l and -l together) are representable.
    """

    __slots__ = ("_order",)

    def __new__(cls, literals: Iterable[Literal] = ()):
        order = dict.fromkeys(literals)  # first occurrences, in order
        # a set built from a dict starts at its final size; one built from
        # a tuple of 5 to 7 literals grows to twice the table
        self = _new_set(cls, order)
        if 0 in self:
            raise ValueError("0 terminates clauses and is not a literal")
        self._order = tuple(order)
        return self

    def __reduce__(self):
        # frozenset's own reduction would rebuild the clause in set order
        return (type(self), (self._order,))

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
        if lit in self:
            return self
        # this clause's literals are already nonzero and distinct
        return _distinct(self._order + (lit,))

    def with_literals(self, lits) -> "Clause":
        """with_literal for each of lits in turn, building one clause:
        the literals not yet present are appended in order."""
        extra = [lit for lit in lits if lit not in self]
        if not extra:
            return self
        if 0 in extra:
            raise ValueError("0 terminates clauses and is not a literal")
        order = self._order + tuple(extra)
        out = _new_set(Clause, order)
        if len(out) < len(order):  # lits repeats a literal: keep its first
            order = self._order + tuple(dict.fromkeys(extra))
        out._order = order
        return out

    def without(self, lit: Literal) -> "Clause":
        if lit not in self:
            return self
        return _distinct(tuple(l for l in self._order if l != lit))

    def is_tautology(self) -> bool:
        return any(-l in self for l in self._order)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._order)

    def __repr__(self):
        return "Clause(%s)" % " ".join(map(str, self._order))


_new_set = frozenset.__new__


def _distinct(order: tuple) -> Clause:
    """The clause of order, a tuple of distinct nonzero literals, which
    the caller guarantees: neither is checked."""
    clause = _new_set(Clause, order)
    clause._order = order
    return clause


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

    op = property(itemgetter(0), doc="ADD or DELETE.")
    clause = property(itemgetter(1), doc="The clause added or deleted.")

    @property
    def is_add(self) -> bool:
        return self[0] == ADD

    def __repr__(self):
        return "ProofStep(%s, %r)" % ("add" if self.is_add else "delete", self[1])


def _step(op: str, clause: Clause) -> ProofStep:
    """ProofStep(op, clause) for an op the caller knows is ADD or DELETE."""
    return _new_tuple(ProofStep, (op, clause))


_new_tuple = tuple.__new__


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
