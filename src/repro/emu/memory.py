"""Mapped memory with access permissions, typed access faults, and snapshots.

The Section IV campaigns classify *bad read* and *bad fetch* outcomes by
catching :class:`repro.errors.BadRead` / :class:`repro.errors.BadFetch`,
so the memory model must fault on unmapped and permission-violating
accesses exactly like Unicorn's ``UC_ERR_READ_UNMAPPED`` /
``UC_ERR_FETCH_UNMAPPED`` did for the paper.

Snapshot/restore (:meth:`Memory.snapshot` / :meth:`Memory.restore`) is the
foundation of the campaign fast path: a campaign builds its address space
once, snapshots it, and undoes only the pages each corrupted execution
dirtied instead of rebuilding the world per attempt.  The journal is
copy-on-write at page granularity — the first write that lands on a page
after the snapshot saves the page's original bytes; ``restore`` writes
those saved pages back and unmaps any region mapped after the snapshot.

The journal only observes writes issued through the :class:`Memory`
interface (:meth:`Memory.write` and :meth:`Memory.load`).  Mutating a
region's ``data`` bytearray directly, or calling ``region.write``,
bypasses the journal and will not be undone — callers that poke region
data behind memory's back (e.g. test fixtures) must do so before taking
the snapshot or accept that restore cannot see the change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import BadFetch, BadRead, BadWrite

#: Copy-on-write journal granularity, in bytes.  Small enough that a
#: campaign attempt touching a couple of RAM words journals ~1 page,
#: large enough that the per-page bookkeeping stays negligible.
PAGE_SIZE = 64


@dataclass(frozen=True)
class MemorySnapshot:
    """An opaque restore point returned by :meth:`Memory.snapshot`.

    Attributes
    ----------
    regions : tuple of MemoryRegion
        The regions mapped at snapshot time, in address order.  Restore
        reinstates exactly this mapping (regions mapped afterwards are
        dropped).  Region *identity* is what matters — the snapshot does
        not copy region contents; the copy-on-write journal does that
        lazily as writes land.
    region_ids : frozenset of int
        ``id()`` of each snapshot region, precomputed because restore
        runs once per campaign replay.
    """

    regions: tuple  # tuple[MemoryRegion, ...]
    region_ids: frozenset


@dataclass
class MemoryRegion:
    """A contiguous byte-addressable region."""

    name: str
    base: int
    size: int
    readable: bool = True
    writable: bool = True
    executable: bool = False
    data: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} must have positive size")
        if not self.data:
            self.data = bytearray(self.size)
        elif len(self.data) != self.size:
            raise ValueError(
                f"region {self.name!r}: data length {len(self.data)} != size {self.size}"
            )
        # Plain attribute (not a property): ``contains`` sits on the
        # fetch/load/store hot path of every emulated step.
        self.end = self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.end

    def read(self, address: int, length: int) -> bytes:
        offset = address - self.base
        return bytes(self.data[offset:offset + length])

    def write(self, address: int, payload: bytes) -> None:
        offset = address - self.base
        self.data[offset:offset + len(payload)] = payload


class MMIORegion(MemoryRegion):
    """A region backed by callbacks, for device registers (GPIO, flash ctrl, ...).

    ``on_read(offset, length) -> int`` and ``on_write(offset, length, value)``
    receive offsets relative to the region base.
    """

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        on_read: Optional[Callable[[int, int], int]] = None,
        on_write: Optional[Callable[[int, int, int], None]] = None,
    ):
        super().__init__(name=name, base=base, size=size, readable=True, writable=True)
        self._on_read = on_read
        self._on_write = on_write

    def read(self, address: int, length: int) -> bytes:
        offset = address - self.base
        if self._on_read is None:
            return super().read(address, length)
        value = self._on_read(offset, length) & ((1 << (8 * length)) - 1)
        return value.to_bytes(length, "little")

    def write(self, address: int, payload: bytes) -> None:
        offset = address - self.base
        if self._on_write is None:
            super().write(address, payload)
            return
        self._on_write(offset, len(payload), int.from_bytes(payload, "little"))


class Memory:
    """An address space made of non-overlapping regions."""

    def __init__(self) -> None:
        self.regions: list[MemoryRegion] = []
        # Most-recently-hit region; consecutive accesses overwhelmingly
        # target the same region (straight-line fetches), so checking it
        # first short-circuits the linear scan in region_at.
        self._hot_region: Optional[MemoryRegion] = None
        # Active restore point + copy-on-write page journal, keyed by
        # id(region) because MemoryRegion is a mutable (unhashable)
        # dataclass.  Values: (region, {page_index: original page bytes}).
        self._snapshot: Optional[MemorySnapshot] = None
        self._journal: dict[int, tuple[MemoryRegion, dict[int, bytes]]] = {}
        #: When a list, every write through :meth:`write` appends
        #: ``(region, offset, bytes before the write)``: the glitcher's
        #: settled-loop exit rebuilds earlier memory contents from it.
        self.write_log: Optional[list] = None

    def map_region(self, region: MemoryRegion) -> MemoryRegion:
        for existing in self.regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"region {region.name!r} overlaps {existing.name!r} "
                    f"([{region.base:#x}, {region.end:#x}) vs [{existing.base:#x}, {existing.end:#x}))"
                )
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.base)
        return region

    def map(self, name: str, base: int, size: int, **permissions: bool) -> MemoryRegion:
        return self.map_region(MemoryRegion(name=name, base=base, size=size, **permissions))

    def region_at(self, address: int, length: int = 1) -> Optional[MemoryRegion]:
        hot = self._hot_region
        if hot is not None and hot.base <= address and address + length <= hot.end:
            return hot
        for region in self.regions:
            if region.base <= address and address + length <= region.end:
                self._hot_region = region
                return region
        return None

    # -- data accesses -------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        region = self.region_at(address, length)
        if region is None or not region.readable:
            raise BadRead(f"read of {length} bytes at unmapped address {address:#010x}", address)
        return region.read(address, length)

    def write(self, address: int, payload: bytes) -> None:
        region = self.region_at(address, len(payload))
        if region is None:
            raise BadWrite(f"write of {len(payload)} bytes at unmapped address {address:#010x}", address)
        if not region.writable:
            raise BadWrite(f"write to read-only region {region.name!r} at {address:#010x}", address)
        if self.write_log is not None:
            offset = address - region.base
            self.write_log.append((region, offset, bytes(region.data[offset:offset + len(payload)])))
        if self._snapshot is not None:
            self._journal_pages(region, address, len(payload))
        region.write(address, payload)

    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def read_u16(self, address: int) -> int:
        return int.from_bytes(self.read(address, 2), "little")

    def read_u32(self, address: int) -> int:
        return int.from_bytes(self.read(address, 4), "little")

    def write_u8(self, address: int, value: int) -> None:
        self.write(address, bytes([value & 0xFF]))

    def write_u16(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFFFF).to_bytes(2, "little"))

    def write_u32(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    # -- instruction fetches --------------------------------------------

    def fetch_u16(self, address: int) -> int:
        if address % 2:
            raise BadFetch(f"unaligned instruction fetch at {address:#010x}", address)
        region = self.region_at(address, 2)
        if region is None or not region.executable:
            raise BadFetch(f"instruction fetch from non-executable address {address:#010x}", address)
        # Executable regions are plain byte-backed regions (MMIO is never
        # executable), so fetch straight from the backing store.
        offset = address - region.base
        data = region.data
        return data[offset] | (data[offset + 1] << 8)

    def try_fetch_u16(self, address: int) -> Optional[int]:
        """Fetch that returns None instead of faulting (used for BL suffix lookahead)."""
        try:
            return self.fetch_u16(address)
        except BadFetch:
            return None

    def load(self, address: int, payload: bytes) -> None:
        """Bulk-load bytes (e.g. a firmware image), bypassing write permissions."""
        region = self.region_at(address, len(payload))
        if region is None:
            raise BadWrite(f"load target {address:#010x} (+{len(payload)}) is unmapped", address)
        if self._snapshot is not None:
            self._journal_pages(region, address, len(payload))
        region.write(address, payload)

    # -- snapshot / restore ---------------------------------------------

    def snapshot(self) -> MemorySnapshot:
        """Arm the copy-on-write journal and return a restore point.

        Subsequent writes issued through :meth:`write` or :meth:`load`
        save each touched page's original bytes on first touch;
        :meth:`restore` writes them back.  Only the most recent snapshot
        is restorable — taking a new one discards the previous journal.

        Returns
        -------
        MemorySnapshot
            Token identifying this restore point; pass it to
            :meth:`restore`.
        """
        regions = tuple(self.regions)
        self._snapshot = MemorySnapshot(
            regions=regions,
            region_ids=frozenset(id(region) for region in regions),
        )
        self._journal = {}
        return self._snapshot

    def restore(self, snapshot: MemorySnapshot) -> None:
        """Rewind memory to the state captured by :meth:`snapshot`.

        Undoes every page dirtied through the :class:`Memory` interface
        since the snapshot (or since the last restore) and unmaps any
        region mapped after the snapshot.  The journal stays armed, so
        the same snapshot can be restored again after further writes —
        this is the campaign replay loop.

        Parameters
        ----------
        snapshot : MemorySnapshot
            The token returned by the *most recent* :meth:`snapshot`
            call on this Memory.

        Raises
        ------
        ValueError
            If ``snapshot`` is not the active restore point (stale or
            from another Memory).
        """
        if snapshot is not self._snapshot:
            raise ValueError("snapshot is stale: only the most recent Memory.snapshot() is restorable")
        journal = self._journal
        if journal:
            snapshot_ids = snapshot.region_ids
            for region_id, (region, pages) in journal.items():
                if region_id not in snapshot_ids:
                    continue  # region mapped after the snapshot; about to be dropped
                for page_index, original in pages.items():
                    start = page_index * PAGE_SIZE
                    region.data[start:start + len(original)] = original
            self._journal = {}
        if len(self.regions) != len(snapshot.regions):
            self.regions = list(snapshot.regions)
            self._hot_region = None  # may point at a dropped region

    def dirtied_regions(self) -> list[MemoryRegion]:
        """Regions with journaled (not yet restored) writes since the snapshot.

        Returns
        -------
        list of MemoryRegion
            Regions that received at least one :meth:`write`/:meth:`load`
            since the snapshot was taken or last restored.  Empty when no
            snapshot is armed.
        """
        return [region for region, pages in self._journal.values() if pages]

    def _journal_pages(self, region: MemoryRegion, address: int, length: int) -> None:
        """Save the original bytes of every page the write will touch."""
        entry = self._journal.get(id(region))
        if entry is None:
            entry = (region, {})
            self._journal[id(region)] = entry
        pages = entry[1]
        first = (address - region.base) // PAGE_SIZE
        last = (address - region.base + length - 1) // PAGE_SIZE
        data = region.data
        for page_index in range(first, last + 1):
            if page_index not in pages:
                start = page_index * PAGE_SIZE
                pages[page_index] = bytes(data[start:start + PAGE_SIZE])


__all__ = ["Memory", "MemoryRegion", "MemorySnapshot", "MMIORegion", "PAGE_SIZE"]
