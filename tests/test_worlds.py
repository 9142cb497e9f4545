"""Replay worlds: the digest that keys shared harnesses and outcome shards.

A corrupted word's outcome depends only on the replay world (the machine
paused at the target slot), so branches with equal
``WordHarness.world_digest()`` share one harness per campaign. These tests
pin that sharing is exact — a shared harness tallies every member branch
exactly as the branch's own harness does — and that the digest separates
what must stay separate: distinct worlds, decode modes and harness classes.
"""

import numpy as np
import pytest

from repro.campaign import discover_sites
from repro.campaign.harness import SiteHarness
from repro.firmware.image import FirmwareImage
from repro.glitchsim import SnippetHarness, all_branch_snippets, branch_snippet, sweep_instruction
from repro.glitchsim.maskalgebra import MODELS
from repro.isa import assemble
from tests.oracles import RebuildSnippetHarness, SnapshotSnippetHarness

#: Figure 2's 14 snippets fall into these 5 replay worlds
WORLDS = [
    ["beq"],
    ["bne", "bcs", "bpl", "bvc", "bhi", "bge", "bgt"],
    ["bcc", "bmi", "blt", "ble"],
    ["bvs"],
    ["bls"],
]

#: flip counts with small reachable sets at both ends (the full range is
#: the slow exhaustive check below)
KS = (0, 1, 2, 3, 13, 14, 15, 16)


def _group(zero_is_invalid):
    groups = {}
    for snippet in all_branch_snippets():
        digest = SnippetHarness(snippet, zero_is_invalid=zero_is_invalid).world_digest()
        groups.setdefault(digest, []).append(snippet.mnemonic)
    return groups


class TestWorldDigest:
    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    def test_fig2_snippets_form_five_worlds(self, zero_is_invalid):
        assert list(_group(zero_is_invalid).values()) == WORLDS

    def test_decode_modes_are_distinct_worlds(self):
        assert not set(_group(False)) & set(_group(True))

    def test_harness_class_is_part_of_the_world(self):
        # so an oracle never reads outcomes the production harness cached
        snippet = branch_snippet("eq")
        digests = {cls(snippet).world_digest()
                   for cls in (SnippetHarness, SnapshotSnippetHarness, RebuildSnippetHarness)}
        assert len(digests) == 3

    def test_engine_is_not_part_of_the_world(self):
        # a harness runs batches on the vector engine and single words on
        # the scalar replay; which of the two ran first leaves the digest alone
        snippet = branch_snippet("eq")
        words = range(0x6000, 0x6100)
        batched = SnippetHarness(snippet)
        batched.run_many(words)
        replayed = SnippetHarness(snippet)
        for word in words:
            replayed.run(word)
        assert batched.world_digest() == replayed.world_digest() \
            == SnippetHarness(snippet).world_digest()

    def test_digest_ignores_earlier_replays(self):
        # scalar replays poke the slot and journal RAM stores; the digest
        # is of the replay point, not of whatever ran last
        ran = SnippetHarness(branch_snippet("ne"))
        for word in range(0x6000, 0x6200):  # includes str/push words
            ran.run(word)
        assert ran.world_digest() == SnippetHarness(branch_snippet("cs")).world_digest()

    def test_sites_of_one_image_are_distinct_worlds(self):
        program = assemble(
            """
            movs r0, #1
            cmp r0, #1
            beq one
            movs r1, #1
        one:
            cmp r0, #0
            bne two
            movs r1, #2
        two:
            bkpt #0
            """,
            base=0x0800_0000,
        )
        image = FirmwareImage(base=program.base, data=program.code, entry=program.base)
        sites = discover_sites(image)
        assert len(sites) == 2
        digests = {SiteHarness(image, site).world_digest() for site in sites}
        assert len(digests) == 2
        assert not digests & set(_group(False))


class TestSharedHarnessDifferential:
    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize("engine", ["snapshot", "vector"])
    def test_shared_harness_tallies_like_independent_harnesses(self, zero_is_invalid, engine):
        harness_class = SnapshotSnippetHarness if engine == "snapshot" else SnippetHarness
        for world in WORLDS:
            snippets = [branch_snippet(mnemonic[1:]) for mnemonic in world]
            shared = harness_class(snippets[-1], zero_is_invalid=zero_is_invalid)
            for model in MODELS:
                for snippet in snippets:
                    own = sweep_instruction(snippet, model, zero_is_invalid=zero_is_invalid,
                                            k_values=KS,
                                            harness=harness_class(
                                                snippet, zero_is_invalid=zero_is_invalid))
                    on_shared = sweep_instruction(snippet, model,
                                                  zero_is_invalid=zero_is_invalid,
                                                  k_values=KS, harness=shared)
                    assert on_shared == own, (snippet.mnemonic, model)

    @pytest.mark.slow
    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    def test_every_word_classifies_alike_across_a_world(self, zero_is_invalid):
        words = np.arange(1 << 16)
        for world in WORLDS:
            codes = [
                SnippetHarness(branch_snippet(mnemonic[1:]),
                               zero_is_invalid=zero_is_invalid).run_many_codes(words)[1]
                for mnemonic in world
            ]
            for mnemonic, member_codes in zip(world[1:], codes[1:]):
                assert np.array_equal(member_codes, codes[0]), mnemonic
