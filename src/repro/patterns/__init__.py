"""The §8 pattern-match chip: a scaled-down comparison array.

The one systolic design in the paper that had already been fabricated
and tested.  Text streams through a row of pattern-holding cells at
full speed; match results trail at half speed, AND-accumulating one
comparison per cell, wildcards included.
"""

from repro.patterns.matcher import (
    WILDCARD,
    PatternChip,
    PatternMatchResult,
    match_pattern,
)

__all__ = [
    "PatternChip",
    "PatternMatchResult",
    "WILDCARD",
    "match_pattern",
]
