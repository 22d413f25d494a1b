"""The compression cache: circular buffer, cleaner, gate, and allocator."""

from .allocator import (
    AllocationBiases,
    AllocatorCounters,
    MemoryPool,
    TieredAllocator,
)
from .circular import CacheCounters, CompressionCache
from .cleaner import CleanerPolicy
from .header import (
    CODE_SIZE_BYTES,
    COMPRESSED_PAGE_HEADER_BYTES,
    FRAME_HEADER_BYTES,
    HASH_TABLE_BYTES,
    SLOT_DESCRIPTOR_BYTES,
    CompressedPageHeader,
    SlotState,
    cache_metadata_bytes,
)
from .threshold import AdaptiveCompressionGate

__all__ = [
    "AdaptiveCompressionGate",
    "AllocationBiases",
    "AllocatorCounters",
    "CODE_SIZE_BYTES",
    "COMPRESSED_PAGE_HEADER_BYTES",
    "CacheCounters",
    "CleanerPolicy",
    "CompressedPageHeader",
    "CompressionCache",
    "FRAME_HEADER_BYTES",
    "HASH_TABLE_BYTES",
    "MemoryPool",
    "SLOT_DESCRIPTOR_BYTES",
    "SlotState",
    "TieredAllocator",
    "cache_metadata_bytes",
]
