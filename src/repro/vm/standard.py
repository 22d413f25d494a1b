"""The unmodified system: classic demand paging to per-segment swap files.

"The unmodified Sprite system, which uses regular files as the backing
store, would perform two disk seeks for each fault, one to write a page
out and another to retrieve the page faulted upon." (Section 5.1)

Eviction writes the whole 4-KByte page to its fixed swap offset when no
valid backing copy exists; a fault reads the whole page back.  Anonymous
pages (heap/BSS) have no backing copy until their first write-out, so
their first eviction always pays a page-out — the behaviour that makes
even the read-only thrasher do I/O.
"""

from __future__ import annotations

from ..ccache.allocator import TieredAllocator
from ..mem.frames import FramePool
from ..mem.page import PageState
from ..mem.pagetable import PageTableEntry
from ..mem.segment import AddressSpace
from ..sim.costs import CostModel
from ..sim.ledger import Ledger, TimeCategory
from ..storage.swap import StandardSwap
from .faults import FaultSource
from .system import BaseVM


class StandardVM(BaseVM):
    """Demand paging with true-LRU replacement and no compression."""

    def __init__(
        self,
        address_space: AddressSpace,
        frames: FramePool,
        allocator: TieredAllocator,
        ledger: Ledger,
        costs: CostModel,
        swap: StandardSwap,
        min_resident_frames: int = 2,
        paranoid: bool = False,
        resilience=None,
        retry=None,
    ):
        super().__init__(
            address_space, frames, allocator, ledger, costs,
            min_resident_frames,
        )
        self.swap = swap
        self.paranoid = paranoid
        self.resilience = resilience
        self.retry = retry

    def _fill(self, pte: PageTableEntry) -> FaultSource:
        frame = self._obtain_frame()
        if (
            self.swap.contains(pte.page_id)
            and pte.saved_version == pte.content.version
        ):
            source = self._fill_from_swap(pte)
        else:
            # First touch: zero-fill (or demand-create workload contents).
            self.ledger.charge(
                TimeCategory.COPY,
                self.costs.copy_seconds(self.address_space.page_size),
            )
            source = FaultSource.ZERO_FILL
        pte.mark_resident(frame)
        pte.dirty = False
        return source

    def _fill_from_swap(self, pte: PageTableEntry) -> FaultSource:
        """Read the swap copy, retrying and backstopping under faults."""
        if self.retry is None:
            data, seconds = self.swap.read_page(pte.page_id)
        else:
            fetched = self.retry.try_call(
                lambda: self.swap.read_page(pte.page_id),
                TimeCategory.IO_READ,
            )
            if fetched is None:
                # Retries exhausted: re-fetch from the paging server's
                # authoritative copy, charged as a reliable full-page
                # read on the unwrapped device.
                device = self.swap.fs.device
                device = getattr(device, "inner", device)
                self.ledger.charge(
                    TimeCategory.IO_READ,
                    device.read(self.address_space.page_size),
                )
                self.resilience.backstop_refetches += 1
                return FaultSource.SWAP
            data, seconds = fetched
        self.ledger.charge(TimeCategory.IO_READ, seconds)
        if self.paranoid and data != pte.content.materialize():
            raise AssertionError(
                f"swap returned stale data for {pte.page_id}"
            )
        return FaultSource.SWAP

    def _evict(self, pte: PageTableEntry) -> None:
        self.metrics.evictions.total += 1
        has_valid_copy = (
            self.swap.contains(pte.page_id)
            and pte.saved_version == pte.content.version
        )
        if has_valid_copy:
            self.metrics.evictions.clean_drops += 1
        else:
            data = pte.content.materialize()
            if self.retry is None:
                seconds = self.swap.write_page(pte.page_id, data)
            else:
                seconds = self.retry.try_call(
                    lambda: self.swap.write_page(pte.page_id, data),
                    TimeCategory.IO_WRITE,
                )
            if seconds is None:
                # Write-back failed for good: drop the page unsaved; the
                # next fault reconstructs it from authoritative content.
                self.resilience.deferred_writebacks += 1
            else:
                self.ledger.charge(TimeCategory.IO_WRITE, seconds)
                pte.note_saved()
            self.metrics.evictions.raw_writes += 1
        if pte.frame is None:
            raise AssertionError(f"evicting non-resident page {pte.page_id}")
        self.frames.release(pte.frame)
        pte.mark_nonresident(PageState.BACKING_STORE)
