"""Models (satisfying assignments) returned by the SMT solver."""

from __future__ import annotations

from typing import Mapping, Union

from .sorts import BOOL
from .terms import Term, evaluate_memo


class Model:
    """A satisfying assignment over the problem variables.

    Access by variable term or name::

        model[x]          # x is a Term or a name string
        model.eval(x + y) # evaluate an arbitrary term under the model
    """

    def __init__(self, assignment: Mapping[str, Union[bool, int]]):
        self._assignment = dict(assignment)
        # term -> value, shared by every eval() on this (immutable) model.
        self._memo: dict[Term, Union[bool, int]] = {}

    def __getitem__(self, key: Union[Term, str]) -> Union[bool, int]:
        name = key.name if isinstance(key, Term) else key
        return self._assignment[name]

    def get(self, key: Union[Term, str], default=None):
        name = key.name if isinstance(key, Term) else key
        return self._assignment.get(name, default)

    def __contains__(self, key: Union[Term, str]) -> bool:
        name = key.name if isinstance(key, Term) else key
        return name in self._assignment

    def eval(self, term: Term) -> Union[bool, int]:
        """Evaluate a term; unconstrained variables default to 0/False."""
        return evaluate_memo(term, self._memo, self._value_of)

    def _value_of(self, var: Term) -> Union[bool, int]:
        try:
            return self._assignment[var.name]
        except KeyError:
            return False if var.sort is BOOL else 0

    def as_dict(self) -> dict[str, Union[bool, int]]:
        return dict(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def __repr__(self) -> str:
        items = ", ".join(
            f"{k}={v}" for k, v in sorted(self._assignment.items())
        )
        return f"Model({items})"
