"""The ordered tier chain the VM and pager drive.

A :class:`TierChain` holds the compressed tiers warmest-first over the
backing store (fragment store plus raw swap).  The paging layers ask
it page-location questions ("which tier holds this page?"), route
admissions (evictions enter the warmest tier, store readmissions the
coldest), and run each tier's cleaner.  With one compressed tier the
chain degenerates to the paper's design: every operation touches the
single cache exactly the way the pre-chain code did.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..mem.page import PageId
from ..storage.fragstore import FragmentStore
from ..storage.swap import StandardSwap
from .compressed import CompressedTier


class TierChain:
    """Ordered compressed tiers (warmest first) over a backing store."""

    def __init__(
        self,
        tiers: Tuple[CompressedTier, ...],
        fragstore: FragmentStore,
        swap: StandardSwap,
    ):
        if not tiers:
            raise ValueError("a tier chain needs at least one tier")
        names = [tier.name for tier in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        self.tiers: Tuple[CompressedTier, ...] = tuple(tiers)
        self.fragstore = fragstore
        self.swap = swap

    def __iter__(self) -> Iterator[CompressedTier]:
        return iter(self.tiers)

    def __len__(self) -> int:
        return len(self.tiers)

    @property
    def warmest(self) -> CompressedTier:
        """The tier evictions compress into."""
        return self.tiers[0]

    @property
    def coldest(self) -> CompressedTier:
        """The tier backed by the real store (readmissions land here)."""
        return self.tiers[-1]

    def find(self, page_id: PageId) -> Optional[CompressedTier]:
        """The warmest compressed tier holding the page, or ``None``."""
        for tier in self.tiers:
            if page_id in tier.cache:
                return tier
        return None

    def holds(self, page_id: PageId) -> bool:
        """Whether any compressed tier holds the page in memory."""
        for tier in self.tiers:
            if page_id in tier.cache:
                return True
        return False

    def effective_frames(self, total_frames: int) -> int:
        """Page frames' worth of data memory holds: frames the chain maps
        hold its compressed pages, every other frame holds one page."""
        return total_frames + sum(
            tier.cache.compressed_pages - tier.cache.nframes
            for tier in self.tiers
        )

    def demoted_pages(self) -> int:
        """Inter-tier demotions performed across the chain."""
        return sum(
            tier.sink.demoted_pages
            for tier in self.tiers
            if tier.sink is not None
        )

    def snapshot(self) -> List[dict]:
        """JSON-native per-tier stats, warmest first, store last."""
        stats = [tier.stats() for tier in self.tiers]
        stats.append({
            "name": "store",
            "kind": "store",
            "frames": 0,
            "pages": self.fragstore.live_pages,
            "fragstore": self.fragstore.counters.snapshot(),
            "swap": self.swap.counters.snapshot(),
        })
        return stats
