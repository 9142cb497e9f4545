"""Whole-image glitch campaigns: site discovery, in-situ sweeps, ranking.

The binary-level pipeline (ROADMAP item 4, following ARMORY):

1. load a firmware image (:mod:`repro.firmware.image`);
2. :func:`discover_sites` — decode every conditional branch and guard
   structure (:mod:`repro.campaign.sites`);
3. sweep each site in situ under the AND/OR/XOR flip models as one
   Figure 2 world unit on a :class:`SiteHarness`
   (:mod:`repro.campaign.harness`), reusing the mask algebra, the vector
   engine, and shared cache shards;
4. rank sites by exploitability — the fraction of reachable masks whose
   outcome is *success* (:mod:`repro.campaign.image_campaign`).

Surfaced on the CLI as ``repro discover <image>`` and
``repro campaign --image <image> [--top N]``.
"""

from repro.campaign.sites import BranchSite, DISCOVERY_STRATEGIES, discover_sites
from repro.campaign.harness import SiteHarness
from repro.campaign.image_campaign import (
    DEFAULT_MODELS,
    ImageCampaignResult,
    RankedSite,
    SiteSweep,
    run_image_campaign,
    sweep_site,
)

__all__ = [
    "BranchSite",
    "DISCOVERY_STRATEGIES",
    "discover_sites",
    "SiteHarness",
    "DEFAULT_MODELS",
    "SiteSweep",
    "RankedSite",
    "ImageCampaignResult",
    "sweep_site",
    "run_image_campaign",
]
