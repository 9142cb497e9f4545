"""Execute one discovered branch site in situ and classify the outcome.

Unlike :class:`repro.glitchsim.harness.SnippetHarness`, which synthesises
a marker-block snippet per condition, a :class:`SiteHarness` runs the
*whole firmware image* with the program counter parked at the site and
the flags pre-set so the pristine branch is **taken** (the paper's attack
model: the guard holds, the attacker wants the fall-through).  The
classification is positional rather than marker-based:

- ``success`` — execution reached the fall-through address (the branch
  was suppressed: the glitch worked);
- ``no_effect`` — execution reached the architectural taken target;
- fault categories (``invalid_instruction``/``bad_fetch``/``bad_read``)
  exactly as in the snippet harness;
- ``failed`` — halted or still running without reaching either edge
  within the step budget.

Both edges are registered as stop addresses, mirroring the snippet
harness's marker-stop semantics (a stop only classifies with ≥ 2 budget
steps remaining) so the scalar snapshot replay and the vector batches
stay bit-identical with each other and with a per-word world rebuild —
the differential sweep in tests/test_image_campaign.py pins this.

The disk-cache shard is the harness's world digest (see
:meth:`repro.glitchsim.harness.WordHarness.world_digest`): one shard per
site, shared by all three flip models and every re-run of the image.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.emu import CPU, Memory
from repro.emu.vector import (
    ST_BAD_FETCH,
    ST_BAD_READ,
    ST_FAILED,
    ST_HALTED,
    ST_INVALID,
    ST_LIMIT,
    ST_STOPPED,
)
from repro.errors import (
    AlignmentFault,
    BadFetch,
    BadRead,
    BadWrite,
    EmulationFault,
    InvalidInstruction,
)
from repro.exec.cache import CATEGORY_CODES
from repro.firmware.image import FirmwareImage
from repro.glitchsim.harness import (
    _OUTCOME_LIMIT,
    _OUTCOME_NO_EFFECT,
    _OUTCOME_SUCCESS,
    _SnapshotWorld,
    _STEP_LIMIT,
    Outcome,
    WordHarness,
)
from repro.glitchsim.snippets import RAM_BASE, RAM_SIZE
from repro.isa.conditions import flags_where_taken

from repro.campaign.sites import BranchSite

_OUTCOME_NO_EDGE = Outcome("failed", "halted before reaching either branch edge")


class SiteHarness(WordHarness):
    """Classify corrupted words at one :class:`BranchSite` of an image.

    The image is mapped read-only/executable at its base, RAM at the
    snippet world's ``0x2000_0000``; registers start zeroed (SP at the
    top of RAM) and the flags satisfy the site's condition, so the
    pristine word branches to ``site.taken`` (``no_effect``).  See the
    module docstring for the outcome semantics and
    :class:`repro.glitchsim.harness.WordHarness` for caching and execution.
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
        self._stops = frozenset((site.fallthrough, site.taken))

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
            marker_stops=self._stops,
            success_address=self.site.fallthrough,
            normal_address=self.site.taken,
        )
        return self._world

    def _classify_replay(self, world: _SnapshotWorld, cpu: CPU) -> Outcome:
        return self._classify_site(cpu, world.budget)

    def _classify_site(self, cpu: CPU, budget: int) -> Outcome:
        """Positional classification against the site's two outgoing edges.

        Mirrors :meth:`SnippetHarness._classify_replay` step accounting: a
        stop with fewer than two budget steps left resumes (without stops)
        instead of classifying, keeping the scalar and vector paths
        bit-identical.  When
        both edges coincide (a branch to its own fall-through) the
        fall-through check wins, exactly as the vector path orders it.
        """
        try:
            result = cpu.run(budget, stop_addresses=self._stops)
            if result.reason == "stop_addr":
                if budget - result.steps >= 2:
                    if result.stop_address == self.site.fallthrough:
                        return _OUTCOME_SUCCESS
                    return _OUTCOME_NO_EFFECT
                result = cpu.run(budget - result.steps)
        except InvalidInstruction as exc:
            return Outcome("invalid_instruction", str(exc))
        except BadFetch as exc:
            return Outcome("bad_fetch", str(exc))
        except (BadRead, BadWrite, AlignmentFault) as exc:
            return Outcome("bad_read", str(exc))
        except EmulationFault as exc:
            return Outcome("failed", str(exc))

        if result.reason != "halted":
            return _OUTCOME_LIMIT
        return _OUTCOME_NO_EDGE

    def _vector_codes(self, batch, world: _SnapshotWorld) -> np.ndarray:
        """Per-lane positional category codes.

        Mirrors :meth:`_classify_site`: a stopped lane is a success iff it
        stopped at the fall-through edge, otherwise it reached the taken
        edge; halted and exhausted lanes never touched an edge.  Nonzero
        values are :data:`repro.exec.cache.CATEGORY_CODES` shard codes.
        """
        status = batch.status
        stopped = status == ST_STOPPED
        success = stopped & (batch.stop_pc == self.site.fallthrough)
        return np.select(
            [
                success,
                stopped,
                status == ST_INVALID,
                status == ST_BAD_FETCH,
                status == ST_BAD_READ,
                (status == ST_HALTED) | (status == ST_LIMIT) | (status == ST_FAILED),
            ],
            [
                CATEGORY_CODES["success"],
                CATEGORY_CODES["no_effect"],
                CATEGORY_CODES["invalid_instruction"],
                CATEGORY_CODES["bad_fetch"],
                CATEGORY_CODES["bad_read"],
                CATEGORY_CODES["failed"],
            ],
        ).astype(np.uint8)


__all__ = ["SiteHarness"]
