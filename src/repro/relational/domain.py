"""Domains and the integer dictionary encoding of paper §2.3.

The paper assumes every column of a relation draws its values from one
underlying *domain*, and that each member of the domain is "uniquely and
reversably encoded into an integer".  Relations then store tuples of
integers; encoding/decoding happens only at the human boundary (input
and output).  :class:`Domain` implements exactly that dictionary
encoding.

Two domains are interchangeable for union-compatibility purposes iff
they are the *same* domain; we identify domains by name (paper §2.4
speaks of "the same underlying domain", not structurally equal ones).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import DomainError

__all__ = ["Domain", "IntegerDomain"]

_NO_MEMBERS = np.empty(0, dtype=np.int64)


def _plain_ints(items: Sequence) -> bool:
    """Whether every item is exactly an ``int`` (no ``bool``, no subclass)."""
    return set(map(type, items)) <= {int}


class Domain:
    """A named value universe with a reversible integer encoding.

    Values may be any hashable Python objects (strings, dates, ints...).
    Codes are assigned densely in first-seen order, which keeps encoded
    relations small and makes tests deterministic.

    Parameters
    ----------
    name:
        Identifying name; domains compare equal iff names are equal.
    values:
        Optional initial members, encoded in iteration order.
    frozen:
        If true, encoding an unseen value raises :class:`DomainError`
        instead of extending the dictionary.
    """

    def __init__(
        self,
        name: str,
        values: Iterable[Hashable] = (),
        frozen: bool = False,
    ) -> None:
        if not name:
            raise DomainError("a domain requires a non-empty name")
        self.name = name
        self._codes: dict[Hashable, int] = {}
        self._values: list[Hashable] = []
        #: the members as int64, in code order, for decode_array:
        #: extended over appended members when next asked for, and None
        #: for good once a member is not a plain int in a 64-bit word.
        self._table: Optional[np.ndarray] = _NO_MEMBERS
        self._frozen = False
        for value in values:
            self.encode(value)
        self._frozen = frozen

    # -- encoding ---------------------------------------------------------

    def encode(self, value: Hashable) -> int:
        """Return the integer code for ``value``, assigning one if new."""
        try:
            code = self._codes.get(value)
        except TypeError as exc:
            raise DomainError(
                f"domain values must be hashable, got {type(value).__name__}"
            ) from exc
        if code is not None:
            return code
        if self._frozen:
            raise DomainError(
                f"value {value!r} is not a member of frozen domain {self.name!r}"
            )
        code = len(self._values)
        self._codes[value] = code
        self._values.append(value)
        return code

    def decode(self, code: int) -> Hashable:
        """Return the value whose code is ``code``."""
        if not isinstance(code, int) or isinstance(code, bool):
            raise DomainError(f"codes are plain ints, got {code!r}")
        if 0 <= code < len(self._values):
            return self._values[code]
        raise DomainError(f"code {code} is not assigned in domain {self.name!r}")

    def lookup_many(self, values: Sequence[Hashable]) -> list[Optional[int]]:
        """The code each value has, ``None`` where :meth:`encode` would
        assign a new one — without assigning any.

        Raises :class:`DomainError` when :meth:`encode` would refuse one
        of the values (encode them one by one to learn which, and why).
        """
        try:
            codes = list(map(self._codes.get, values))
        except TypeError:
            raise DomainError("domain values must be hashable") from None
        if self._frozen and None in codes:
            raise DomainError(
                f"frozen domain {self.name!r} would need new members"
            )
        return codes

    def encode_many(self, values: Iterable[Hashable]) -> list[int]:
        """Encode a sequence of values, new ones in iteration order: one
        :meth:`encode` each, so a refusal names its value and leaves
        the members before it assigned."""
        return list(map(self.encode, values))

    def decode_many(self, codes: Iterable[int]) -> list[Hashable]:
        """Decode a sequence of codes."""
        if not isinstance(codes, (list, tuple)):
            codes = list(codes)
        # The checks of decode(), once for the whole sequence.
        if _plain_ints(codes) and (
            not codes or 0 <= min(codes) and max(codes) < len(self._values)
        ):
            return list(map(self._values.__getitem__, codes))
        return [self.decode(c) for c in codes]

    def decode_array(self, codes: np.ndarray) -> Optional[np.ndarray]:
        """Decode an int64 array of codes into an int64 array of members.

        ``None`` when a member is not a plain ``int`` in a signed 64-bit
        word or a code falls outside the dictionary: decode those codes
        with :meth:`decode_many`, which also words the error.
        """
        table = self._member_table()
        if table is None or codes.size and not (
            0 <= codes.min() and codes.max() < len(table)
        ):
            return None
        return table[codes]

    def _member_table(self) -> Optional[np.ndarray]:
        """The int64 member table, first extended over members appended
        since it was built.

        Needs no lock beside concurrent :meth:`encode` calls or other
        readers: a member never changes once appended, and the table is
        replaced, never written, so every table read is a correct prefix.
        """
        table = self._table
        if table is None or len(table) == len(self._values):
            return table
        fresh = self._values[len(table):]
        grown = None
        if _plain_ints(fresh):
            try:
                grown = np.concatenate(
                    (table, np.array(fresh, dtype=np.int64))
                )
            except OverflowError:  # a member past 64 bits
                pass
        self._table = grown
        return grown

    # -- introspection ----------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether new values may still be added."""
        return self._frozen

    def __contains__(self, value: Hashable) -> bool:
        return value in self._codes

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Domain):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        state = "frozen, " if self._frozen else ""
        return f"Domain({self.name!r}, {state}{len(self)} values)"


class IntegerDomain(Domain):
    """A domain whose members *are* their codes.

    The paper stores relations as tuples of integers; when a workload is
    already integer-valued there is nothing to encode.  This subclass
    makes that identity explicit and side-steps the dictionary.
    """

    def __init__(self, name: str = "int") -> None:
        super().__init__(name)

    def encode(self, value: Hashable) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(
                f"IntegerDomain {self.name!r} accepts plain ints, got {value!r}"
            )
        if value < 0:
            raise DomainError(
                f"IntegerDomain {self.name!r} codes are non-negative, got {value}"
            )
        return value

    def decode(self, code: int) -> int:
        if isinstance(code, bool) or not isinstance(code, int) or code < 0:
            raise DomainError(f"code {code!r} is not a member of {self.name!r}")
        return code

    @staticmethod
    def _all_members(items: Sequence) -> bool:
        return _plain_ints(items) and (not items or min(items) >= 0)

    def lookup_many(self, values: Sequence[Hashable]) -> list[int]:
        if self._all_members(values):
            return list(values)
        return [self.encode(v) for v in values]  # assigns nothing here

    def decode_many(self, codes: Iterable[int]) -> list[int]:
        if not isinstance(codes, (list, tuple)):
            codes = list(codes)
        if self._all_members(codes):
            return list(codes)
        return [self.decode(c) for c in codes]

    def decode_array(self, codes: np.ndarray) -> Optional[np.ndarray]:
        if codes.size and codes.min() < 0:
            return None
        return codes

    def __contains__(self, value: Hashable) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def __len__(self) -> int:  # pragma: no cover - conceptually unbounded
        raise DomainError("IntegerDomain is unbounded; len() is undefined")

    def __iter__(self) -> Iterator[Hashable]:  # pragma: no cover
        raise DomainError("IntegerDomain is unbounded; iteration is undefined")

    def __repr__(self) -> str:
        return f"IntegerDomain({self.name!r})"
