"""Execute one discovered branch site in situ.

Unlike :class:`repro.glitchsim.harness.SnippetHarness`, which synthesises
a marker-block snippet per condition, a :class:`SiteHarness` runs the
*whole firmware image* with the program counter parked at the site and
the flags pre-set so the pristine branch is **taken** (the paper's attack
model: the guard holds, the attacker wants the fall-through).  It builds
only the replay point: both edges are its marker stops, the fall-through
the success stop, and it sets no marker registers, so
:class:`repro.glitchsim.harness.WordHarness`'s shared classifiers
classify by position:

- ``success`` — execution reached the fall-through address (the branch
  was suppressed: the glitch worked);
- ``no_effect`` — execution reached the architectural taken target;
- fault categories (``invalid_instruction``/``bad_fetch``/``bad_read``)
  exactly as in the snippet harness;
- ``failed`` — halted or still running without reaching either edge
  within the step budget.

A stop only classifies with ≥ 2 budget steps remaining, as in the
snippet harness, so the scalar snapshot replay and the vector batches
stay bit-identical with each other and with a per-word world rebuild —
the differential sweep in tests/test_image_campaign.py pins this.

The disk-cache shard is the harness's world digest (see
:meth:`repro.glitchsim.harness.WordHarness.world_digest`): one shard per
site, shared by all three flip models and every re-run of the image.
"""

from __future__ import annotations

from typing import Optional

from repro.emu import CPU, Memory
from repro.firmware.image import FirmwareImage
from repro.glitchsim.harness import _SnapshotWorld, _STEP_LIMIT, WordHarness
from repro.glitchsim.snippets import RAM_BASE, RAM_SIZE
from repro.isa.conditions import flags_where_taken

from repro.campaign.sites import BranchSite


class SiteHarness(WordHarness):
    """The replay point of one :class:`BranchSite` of an image.

    The image is mapped read-only/executable at its base, RAM at the
    snippet world's ``0x2000_0000``; registers start zeroed (SP at the
    top of RAM) and the flags satisfy the site's condition, so the
    pristine word branches to ``site.taken`` (``no_effect``).  See the
    module docstring for the outcome semantics and
    :class:`repro.glitchsim.harness.WordHarness` for caching, execution
    and classification.
    """

    def __init__(
        self,
        image: FirmwareImage,
        site: BranchSite,
        zero_is_invalid: bool = False,
        disk_cache=None,
    ):
        super().__init__(zero_is_invalid=zero_is_invalid, disk_cache=disk_cache)
        self.image = image
        self.site = site
        self._flash_size = max(0x400, (len(image.data) + 0x3FF) & ~0x3FF)

    # ------------------------------------------------------------------
    # WordHarness hooks
    # ------------------------------------------------------------------

    def _build_world(self, decode_cache: Optional[dict] = None) -> tuple[Memory, CPU]:
        memory = Memory()
        memory.map("flash", self.image.base, self._flash_size,
                   writable=False, executable=True)
        memory.map("ram", RAM_BASE, RAM_SIZE)
        memory.load(self.image.base, self.image.data)
        cpu = CPU(memory, zero_is_invalid=self.zero_is_invalid)
        cpu.decode_cache = decode_cache
        cpu.pc = self.site.address
        cpu.sp = RAM_BASE + RAM_SIZE
        cpu.flags = flags_where_taken(self.site.cond)
        return memory, cpu

    def _snapshot_world(self) -> _SnapshotWorld:
        """Build (once) the machine parked at the site — no setup prefix."""
        if self._world is not None:
            return self._world
        memory, cpu = self._build_world(decode_cache=self._decode_cache)
        flash_region = memory.region_at(self.image.base)
        self._world = _SnapshotWorld(
            memory=memory,
            cpu=cpu,
            memory_snapshot=memory.snapshot(),
            cpu_snapshot=cpu.snapshot(),
            budget=_STEP_LIMIT,
            flash_data=flash_region.data,
            flash_base=self.image.base,
            ram_base=RAM_BASE,
            slot_offset=self.site.address - self.image.base,
            target_address=self.site.address,
            pristine_word=self.site.word,
            next_after_target=memory.try_fetch_u16(self.site.address + 2),
            marker_stops=frozenset((self.site.fallthrough, self.site.taken)),
            success_address=self.site.fallthrough,
            normal_address=self.site.taken,
        )
        return self._world


__all__ = ["SiteHarness"]
