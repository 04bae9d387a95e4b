"""Conditions and conjunctive subgroup descriptors over dataset columns.

A Condition is either an equality test on a categorical column or an interval
test on a numeric column (half-lines are intervals with an infinite end).
A SubgroupDescriptor is a conjunction with at most one condition per column,
kept in a canonical sorted order so logically equal descriptors compare and
print identically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

EQUALS = "equals"
IN_INTERVAL = "in_interval"


@dataclass(frozen=True)
class Condition:
    """One column test: equals(category) or in_interval(lo, hi)."""

    column: str
    kind: str
    category: str = None
    lo: float = None
    hi: float = None
    lo_closed: bool = True
    hi_closed: bool = False

    def __post_init__(self):
        if self.kind == EQUALS:
            if self.category is None:
                raise ValidationError("equals condition needs a category")
        elif self.kind == IN_INTERVAL:
            lo = -math.inf if self.lo is None else float(self.lo)
            hi = math.inf if self.hi is None else float(self.hi)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
            if not lo < hi:
                raise ValidationError(f"interval bounds must satisfy lo < hi, got [{lo}, {hi}]")
        else:
            raise ValidationError(f"unknown condition kind {self.kind!r}")

    @staticmethod
    def equals(column, category):
        return Condition(column=column, kind=EQUALS, category=category)

    @staticmethod
    def interval(column, lo=None, hi=None, lo_closed=True, hi_closed=False):
        return Condition(
            column=column, kind=IN_INTERVAL, lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed
        )

    def check_against(self, d):
        """The schema of the column, which must exist, be of the kind this
        condition tests and, for equality, hold its category."""
        schema = d.schema_of(self.column)
        if self.kind == EQUALS:
            if schema.kind != "categorical":
                raise ValidationError(f"equals condition on non-categorical {self.column!r}")
            if self.category not in schema.categories:
                raise ValidationError(
                    f"category {self.category!r} not in column {self.column!r}"
                )
        elif schema.kind != "numeric":
            raise ValidationError(f"interval condition on non-numeric {self.column!r}")
        return schema

    def mask(self, d):
        """Boolean row mask; missing values never match."""
        return self.matches(d.column_array(self.column), self.check_against(d))

    def matches(self, x, schema):
        """Boolean mask of ``x``, cells of this condition's column as its
        ``schema`` stores them: codes for equality, values for an interval."""
        if self.kind == EQUALS:
            return x == schema.categories.index(self.category)
        with np.errstate(invalid="ignore"):
            left = x >= self.lo if self.lo_closed else x > self.lo
            right = x <= self.hi if self.hi_closed else x < self.hi
        out = left & right
        out[np.isnan(x)] = False
        return out

    def sort_key(self):
        return (
            self.column,
            self.kind,
            self.category or "",
            self.lo if self.lo is not None else 0.0,
            self.hi if self.hi is not None else 0.0,
            self.lo_closed,
            self.hi_closed,
        )

    def as_text(self):
        if self.kind == EQUALS:
            return f'{self.column} = "{self.category}"'
        if math.isinf(self.lo) and self.lo < 0:
            op = "<=" if self.hi_closed else "<"
            return f"{self.column} {op} {_fmt(self.hi)}"
        if math.isinf(self.hi):
            op = ">=" if self.lo_closed else ">"
            return f"{self.column} {op} {_fmt(self.lo)}"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{self.column} in {lb}{_fmt(self.lo)}, {_fmt(self.hi)}{rb}"

    def to_json(self):
        if self.kind == EQUALS:
            return {"column": self.column, "kind": EQUALS, "category": self.category}
        return {
            "column": self.column,
            "kind": IN_INTERVAL,
            "lo": None if math.isinf(self.lo) else self.lo,
            "hi": None if math.isinf(self.hi) else self.hi,
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    @staticmethod
    def from_json(obj):
        return Condition(**obj)


def _fmt(x):
    return str(int(x)) if float(x).is_integer() else f"{x:g}"


@dataclass(frozen=True)
class SubgroupDescriptor:
    """Conjunction of conditions, canonically ordered; empty = tautology."""

    conditions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        conds = tuple(sorted(self.conditions, key=Condition.sort_key))
        cols = [c.column for c in conds]
        if len(set(cols)) != len(cols):
            raise ValidationError("at most one condition per column in a descriptor")
        object.__setattr__(self, "conditions", conds)

    @property
    def depth(self):
        return len(self.conditions)

    @property
    def columns(self):
        return tuple(c.column for c in self.conditions)

    def mask(self, d):
        out = np.ones(d.n_rows, dtype=bool)
        for cond in self.conditions:
            out &= cond.mask(d)
        return out

    def extended(self, cond):
        """New descriptor with one more condition (distinct column required)."""
        return SubgroupDescriptor(self.conditions + (cond,))

    def as_text(self):
        if not self.conditions:
            return "(true)"
        return " AND ".join(c.as_text() for c in self.conditions)

    def to_json(self):
        return {"conditions": [c.to_json() for c in self.conditions]}

    @staticmethod
    def from_json(obj):
        return SubgroupDescriptor(tuple(map(Condition.from_json, obj.get("conditions", ()))))
