"""Whole-image exhaustive glitch campaigns with exploitability ranking.

Follows ARMORY's shape: point the tool at an arbitrary firmware image,
sweep every discovered branch site under every flip model, and rank the
sites by *exploitability* — the fraction of reachable masks whose outcome
is ``success`` (the guarded branch was suppressed).

The machinery is the Figure 2 campaign's, re-aimed: one work unit is one
site under every flip model, run as a Figure 2 world unit
(:func:`repro.glitchsim.campaign._sweep_world`) on one
:class:`repro.campaign.harness.SiteHarness` — the union of the models'
reachable words classified in one batch, and every model tallied from
the harness's one dense code array
(:func:`repro.glitchsim.campaign.tally_world`) — fanned out by
:class:`repro.exec.ExecOptions`, cached in per-site
:class:`repro.exec.OutcomeCache` shards shared across models and re-runs,
and checkpointed once per image (keyed by site, so an interrupted
whole-image campaign resumes with only its missing sites). A site unit
that fails is quarantined once, and the site is absent from every
model's sweeps and from the ranking.

Obs counters: ``sites.discovered`` (from :func:`discover_sites`) and
``sites.campaigned`` (one per merged site×model sweep) — identical for
any worker count and across interrupted/resumed runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.exec import ExecOptions, FailedUnit, OutcomeCache, coerce_cache
from repro.exec.cache import cache_session
from repro.firmware.image import FirmwareImage
from repro.glitchsim.campaign import (
    SweepTallies,
    _run_sweep_units,
    _sweep_world,
    check_campaign_args,
)
from repro.experiments.render import render_table
from repro.obs import Observer, activate, coerce_observer, current

from repro.campaign.harness import SiteHarness
from repro.campaign.sites import BranchSite, discover_sites

#: default flip models swept per site, in campaign order
DEFAULT_MODELS = ("and", "or", "xor")


@dataclass
class SiteSweep(SweepTallies):
    """Aggregated outcomes for one branch site under one flip model."""

    site: BranchSite
    model: str
    zero_is_invalid: bool = False
    #: per flip-count k: Counter of outcome categories
    by_k: dict[int, Counter] = field(default_factory=dict)

    def to_payload(self) -> dict:
        site = {**asdict(self.site), "window": list(self.site.window)}
        return {**super().to_payload(), "site": site}

    @classmethod
    def from_payload(cls, payload: dict) -> "SiteSweep":
        site = {**payload["site"], "window": tuple(payload["site"]["window"])}
        return super().from_payload({**payload, "site": BranchSite(**site)})


@dataclass(frozen=True)
class RankedSite:
    """One row of the exploitability ranking."""

    site: BranchSite
    rates: dict  # flip model -> overall success fraction
    overall: float  # mean across the campaigned flip models


@dataclass
class ImageCampaignResult:
    """Every site of one image swept under every requested flip model."""

    source: str
    digest: str
    zero_is_invalid: bool
    models: tuple[str, ...]
    sites: list[BranchSite]
    #: flip model -> SiteSweeps in site-address order
    sweeps: dict[str, list[SiteSweep]]
    failed_units: list[FailedUnit] = field(default_factory=list)

    def sweep_for(self, site_id: str, model: str) -> SiteSweep:
        for sweep in self.sweeps[model]:
            if sweep.site.site_id == site_id:
                return sweep
        raise KeyError((site_id, model))

    def ranking(self) -> list[RankedSite]:
        """Sites ordered most-exploitable first (ties broken by address)."""
        by_site: dict[str, dict[str, float]] = {}
        for model in self.models:
            for sweep in self.sweeps[model]:
                by_site.setdefault(sweep.site.site_id, {})[model] = sweep.success_rate()
        ranked = []
        for site in self.sites:
            rates = by_site.get(site.site_id, {})
            if not rates:
                continue  # the site's unit was quarantined
            overall = sum(rates.values()) / len(rates)
            ranked.append(RankedSite(site=site, rates=rates, overall=overall))
        ranked.sort(key=lambda r: (-r.overall, r.site.address))
        return ranked

    def render(self, top: int | None = None) -> str:
        """The ranked-site table (``top`` limits to the N most exploitable)."""
        ranked = self.ranking()
        shown = ranked if top is None else ranked[:top]
        headers = ["#", "address", "instr", "taken", "guard"]
        headers += [f"{model} succ" for model in self.models]
        headers += ["overall"]
        rows = []
        for rank, entry in enumerate(shown, start=1):
            site = entry.site
            row = [
                str(rank),
                f"{site.address:#010x}",
                f"{site.mnemonic} {site.taken - site.fallthrough - 2:+d}",
                f"{site.taken:#010x}",
                site.compare or "-",
            ]
            row += [f"{entry.rates.get(model, 0.0) * 100:.3f}%" for model in self.models]
            row += [f"{entry.overall * 100:.3f}%"]
            rows.append(row)
        title = (f"Exploitability ranking — {self.source} "
                 f"({len(ranked)} sites, models: {', '.join(self.models)})")
        table = render_table(title, headers, rows)
        if top is not None and top < len(ranked):
            table += f"\n... {len(ranked) - top} more site(s) not shown"
        if len(ranked) < len(self.sites):
            table += (f"\n... {len(self.sites) - len(ranked)} site(s) quarantined, "
                      f"not ranked")
        return table


def _sweep_site_models(
    image: FirmwareImage,
    site: BranchSite,
    models: tuple[str, ...],
    zero_is_invalid: bool,
    k_values: tuple[int, ...] | None,
    cache: OutcomeCache | None,
) -> list[SiteSweep]:
    """One site's sweeps under every model, in ``models`` order, on one
    harness, from one batch and one code array."""
    harness = SiteHarness(image, site, zero_is_invalid=zero_is_invalid, disk_cache=cache)
    return _sweep_world(
        harness, [(site, site.word)], models, k_values,
        lambda site, model, by_k: SiteSweep(
            site=site, model=model, zero_is_invalid=zero_is_invalid, by_k=by_k,
        ),
    )


def sweep_site(
    image: FirmwareImage,
    site: BranchSite,
    model: str,
    zero_is_invalid: bool = False,
    k_values: tuple[int, ...] | None = None,
    cache: OutcomeCache | None = None,
) -> SiteSweep:
    """Sweep every mask of every flip count ``k`` for one branch site.

    The exact analogue of :func:`repro.glitchsim.campaign.sweep_instruction`
    with a :class:`SiteHarness` in place of the snippet harness; emits the
    same ambient ``algebra.words_emulated``/``algebra.masks_derived``
    counters.
    """
    (sweep,) = _sweep_site_models(image, site, (model,), zero_is_invalid, k_values, cache)
    return sweep


@dataclass(frozen=True)
class _SiteSpec:
    """Picklable work unit: one site's sweeps under every flip model."""

    image_base: int
    image_data: bytes
    image_entry: int
    site: BranchSite
    models: tuple[str, ...]
    zero_is_invalid: bool
    k_values: Optional[tuple[int, ...]]
    cache_root: Optional[str]


def _site_unit(spec: _SiteSpec) -> list[SiteSweep]:
    """Worker entry point: rebuild the image (and cache handle) in-process."""
    image = FirmwareImage(base=spec.image_base, data=spec.image_data,
                          entry=spec.image_entry)
    with cache_session(spec.cache_root, current()) as cache:
        return _sweep_site_models(image, spec.site, spec.models, spec.zero_is_invalid,
                                  spec.k_values, cache)


def run_image_campaign(
    image: FirmwareImage,
    models: tuple[str, ...] = DEFAULT_MODELS,
    sites: list[BranchSite] | None = None,
    strategy: str = "linear",
    zero_is_invalid: bool = False,
    k_values: tuple[int, ...] | None = None,
    cache: OutcomeCache | str | None = None,
    execution: ExecOptions = ExecOptions(),
    obs: Observer | None = None,
) -> ImageCampaignResult:
    """Sweep every branch site of ``image`` under every flip model.

    ``sites`` short-circuits discovery (e.g. to campaign a hand-picked
    subset); otherwise :func:`discover_sites` runs with ``strategy``.

    Fan-out, caching, checkpoint/resume, retries, timeouts, and
    observability all follow :func:`repro.glitchsim.campaign.run_branch_campaign`:
    one work unit per site covers every model, and the campaign's one
    checkpoint is keyed by site, with the image digest, models, and site
    list in the fingerprint, so resuming a differently-shaped campaign
    starts afresh instead of replaying stale units. A quarantined site
    unit leaves the site out of every model's sweeps.

    An unknown, repeated or missing flip model raises ``ValueError``
    before discovery or any work starts.
    """
    check_campaign_args(models)
    obs = coerce_observer(obs)
    if sites is None:
        with activate(obs):
            sites = discover_sites(image, strategy=strategy,
                                   zero_is_invalid=zero_is_invalid)
    cache = coerce_cache(cache)
    cache_root = str(cache.root) if cache is not None else None
    models = tuple(models)
    ks = tuple(k_values) if k_values is not None else None
    specs = [
        _SiteSpec(image.base, image.data, image.entry, site, models,
                  zero_is_invalid, ks, cache_root)
        for site in sites
    ]

    def serial(spec: _SiteSpec) -> list[SiteSweep]:
        # in-process: reuse the image and the shared cache handle
        return _sweep_site_models(image, spec.site, models, zero_is_invalid, ks, cache)

    with cache_session(cache, obs), obs.trace(
        f"campaign.image[{image.digest}]", source=image.source,
        models=list(models), sites=len(sites), zero_is_invalid=zero_is_invalid,
    ):
        sweeps, failed_units = _run_sweep_units(
            execution, _site_unit, specs, SiteSweep,
            [site.site_id for site in sites], lambda sweep: sweep.site.site_id,
            models, obs,
            prefix=f"image-{image.digest}",
            meta={
                "campaign": "image",
                "digest": image.digest,
                "models": list(models),
                "zero_is_invalid": zero_is_invalid,
                "k_values": list(ks) if ks is not None else None,
                "sites": sorted(site.site_id for site in sites),
            },
            key_of=lambda spec: spec.site.site_id,
            serial_fn=serial,
        )
        obs.count("sites.campaigned", sum(len(merged) for merged in sweeps.values()))
    return ImageCampaignResult(
        source=image.source,
        digest=image.digest,
        zero_is_invalid=zero_is_invalid,
        models=models,
        sites=list(sites),
        sweeps=sweeps,
        failed_units=failed_units,
    )


__all__ = [
    "DEFAULT_MODELS",
    "SiteSweep",
    "RankedSite",
    "ImageCampaignResult",
    "sweep_site",
    "run_image_campaign",
]
