"""Replacement policies.

Every policy implements :class:`ReplacementPolicy` and obeys the
**data-independence contract** (paper Property 1): all decisions are
functions of line indices and policy metadata only — a policy never sees
the identity of the blocks stored in the lines.  This is what makes
warping sound for arbitrary policies.

The same contract makes the transitions memoisable.  ``on_hit`` is a
pure function of ``(state, line)`` and ``on_miss`` of
``(state, occupancy)``, and states are immutable values, so each policy
instance keeps one :class:`~repro.cache.policies.base.TransitionTable`
per associativity (``policy.table(assoc)``) and caches perform every
hit and every full-set eviction as a lookup in it.
"""

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.lru import LRU
from repro.cache.policies.fifo import FIFO
from repro.cache.policies.plru import PLRU
from repro.cache.policies.qlru import QLRU
from repro.cache.policies.nmru import NMRU

POLICIES = {
    "lru": LRU,
    "fifo": FIFO,
    "plru": PLRU,
    "qlru": QLRU,
    "nmru": NMRU,
}


def policy_by_name(name: str) -> ReplacementPolicy:
    """Instantiate a policy from its registry name."""
    try:
        return POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {sorted(POLICIES)}"
        ) from None


__all__ = ["ReplacementPolicy", "LRU", "FIFO", "PLRU", "QLRU", "NMRU",
           "POLICIES", "policy_by_name"]
