"""Yes/no decisions packaged with the object that certifies them.

A negative verdict always carries a witness that re-checks exactly:
a violating pair, a sure-loss combination, an unattained domain
gamble, and so on.  The witness types themselves live next to the
operations that produce them and share one protocol: a ``kind`` class
variable naming the witness in reports, and a ``check`` method that
redoes the substitution against the assessment (a ``WedgeWitness``
against its table) and returns a bool.  Reports serialise a witness
generically as its ``kind`` plus its dataclass fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["Verdict"]


@dataclass(frozen=True)
class Verdict:
    """A boolean decision plus its certificate.

    ``witness`` certifies a negative decision (or, for existence-style
    checks such as avoiding sure loss, a positive one).  ``info``
    carries auxiliary exact data some operations report, for instance
    which comonotone sums had to be evaluated through natural
    extension.
    """

    holds: bool
    witness: Any | None = None
    info: Mapping[str, Any] | None = None

    def __bool__(self) -> bool:
        return self.holds
