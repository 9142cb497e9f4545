"""Whole-image exhaustive glitch campaigns with exploitability ranking.

Follows ARMORY's shape: point the tool at an arbitrary firmware image,
sweep every discovered branch site under every flip model, and rank the
sites by *exploitability* — the fraction of reachable masks whose outcome
is ``success`` (the guarded branch was suppressed).

The machinery is the Figure 2 campaign's, re-aimed: one work unit is one
``(site, flip model)`` sweep executed by a
:class:`repro.campaign.harness.SiteHarness` (mask algebra over unique
reachable words, :func:`repro.glitchsim.campaign.tally_reachable`),
fanned out by :class:`repro.exec.ExecOptions`, cached in per-site
:class:`repro.exec.OutcomeCache` shards shared across models and re-runs,
and checkpointed per flip model (keyed by site, so an interrupted
whole-image campaign resumes with only its missing sites).

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
from repro.glitchsim.campaign import SweepTallies, check_campaign_args, tally_reachable
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
                continue  # every model's sweep for this site was quarantined
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
                 f"({len(self.sites)} sites, models: {', '.join(self.models)})")
        table = render_table(title, headers, rows)
        if top is not None and top < len(ranked):
            table += f"\n... {len(ranked) - top} more site(s) not shown"
        return table


def sweep_site(
    image: FirmwareImage,
    site: BranchSite,
    model: str,
    zero_is_invalid: bool = False,
    k_values: tuple[int, ...] | None = None,
    cache: OutcomeCache | None = None,
    engine: str = "vector",
) -> SiteSweep:
    """Sweep every mask of every flip count ``k`` for one branch site.

    The exact analogue of :func:`repro.glitchsim.campaign.sweep_instruction`
    with a :class:`SiteHarness` in place of the snippet harness; emits the
    same ambient ``algebra.words_emulated``/``algebra.masks_derived``
    counters.
    """
    harness = SiteHarness(
        image, site, zero_is_invalid=zero_is_invalid, disk_cache=cache, engine=engine
    )
    return SiteSweep(
        site=site, model=model, zero_is_invalid=zero_is_invalid,
        by_k=tally_reachable(harness, site.word, model, k_values),
    )


@dataclass(frozen=True)
class _SiteSpec:
    """Picklable work unit: one site's full sweep under one flip model."""

    image_base: int
    image_data: bytes
    image_entry: int
    site: BranchSite
    model: str
    zero_is_invalid: bool
    k_values: Optional[tuple[int, ...]]
    cache_root: Optional[str]
    engine: str = "vector"


def _site_unit(spec: _SiteSpec) -> SiteSweep:
    """Worker entry point: rebuild the image (and cache handle) in-process."""
    image = FirmwareImage(base=spec.image_base, data=spec.image_data,
                          entry=spec.image_entry)
    with cache_session(spec.cache_root, current()) as cache:
        return sweep_site(
            image,
            spec.site,
            spec.model,
            zero_is_invalid=spec.zero_is_invalid,
            k_values=spec.k_values,
            cache=cache,
            engine=spec.engine,
        )


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
    engine: str = "vector",
) -> ImageCampaignResult:
    """Sweep every branch site of ``image`` under every flip model.

    ``sites`` short-circuits discovery (e.g. to campaign a hand-picked
    subset); otherwise :func:`discover_sites` runs with ``strategy``.

    Fan-out, caching, checkpoint/resume, retries, timeouts, and
    observability all follow :func:`repro.glitchsim.campaign.run_branch_campaign`;
    each model's checkpoint is keyed by site, with the image digest, model,
    and site list in the fingerprint, so resuming a differently-shaped
    campaign is a typed :class:`repro.exec.CheckpointMismatch` instead of
    silent corruption.
    ``engine`` is deliberately absent from the fingerprint: tallies are
    bit-identical across engines, so a resumed campaign may switch freely.

    An unknown flip model or ``engine`` raises ``ValueError`` before
    discovery or any work starts.
    """
    check_campaign_args(models, engine)
    obs = coerce_observer(obs)
    if sites is None:
        with activate(obs):
            sites = discover_sites(image, strategy=strategy,
                                   zero_is_invalid=zero_is_invalid)
    cache = coerce_cache(cache)
    cache_root = str(cache.root) if cache is not None else None
    ks = tuple(k_values) if k_values is not None else None
    by_id = {site.site_id: site for site in sites}

    def serial(spec: _SiteSpec) -> SiteSweep:
        # in-process: reuse the shared cache handle; activate the campaign
        # observer so ambient counters land exactly as worker envelopes do
        with activate(obs):
            return sweep_site(
                image, by_id[spec.site.site_id], spec.model,
                zero_is_invalid=spec.zero_is_invalid, k_values=spec.k_values,
                cache=cache, engine=spec.engine,
            )

    sweeps: dict[str, list[SiteSweep]] = {}
    failed_units: list[FailedUnit] = []
    with cache_session(cache, obs), obs.trace(
        f"campaign.image[{image.digest}]", source=image.source,
        models=list(models), sites=len(sites), zero_is_invalid=zero_is_invalid,
    ):
        for model in models:
            specs = [
                _SiteSpec(image.base, image.data, image.entry, site, model,
                          zero_is_invalid, ks, cache_root, engine)
                for site in sites
            ]
            model_sweeps, failed = execution.run(
                _site_unit,
                specs,
                prefix=f"image-{image.digest}",
                meta={
                    "campaign": "image",
                    "digest": image.digest,
                    "model": model,
                    "zero_is_invalid": zero_is_invalid,
                    "k_values": list(ks) if ks is not None else None,
                    "sites": sorted(by_id),
                },
                key_of=lambda spec: spec.site.site_id,
                encode=SiteSweep.to_payload,
                decode=SiteSweep.from_payload,
                serial_fn=serial,
                attempts_of=lambda sweep: sum(sweep.totals.values()),
                categories_of=lambda sweep: dict(sweep.totals),
                obs=obs,
            )
            merged = [sweep for sweep in model_sweeps if sweep is not None]
            obs.count("sites.campaigned", len(merged))
            sweeps[model] = merged
            failed_units.extend(failed)
    return ImageCampaignResult(
        source=image.source,
        digest=image.digest,
        zero_is_invalid=zero_is_invalid,
        models=tuple(models),
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
