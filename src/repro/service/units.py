"""Service work units: submission specs, fingerprints, and execution.

A *submission* is a JSON-able dict describing one campaign. Three kinds
are accepted:

- ``{"kind": "branch", "model": "and", ...}`` — a Figure 2 style
  per-branch campaign (:func:`repro.glitchsim.campaign.run_branch_campaign`);
- ``{"kind": "image", "path": "fw.hex", "models": [...], ...}`` — a
  whole-image site campaign (:func:`repro.campaign.run_image_campaign`);
- ``{"kind": "experiment", "name": "table1", ...}`` — one of the paper's
  table/figure drivers (:mod:`repro.experiments`).

:func:`normalize_spec` validates a raw submission and canonicalizes it
(defaults filled, lists sorted where order is irrelevant, the firmware
*digest* substituted for its path); :func:`spec_fingerprint` derives the
dedup identity from the canonical spec via the same digest machinery the
checkpoint layer uses (:func:`repro.exec.checkpoint.campaign_id`).
Execution-only keys — ``path``, ``engine``, ``workers`` — are excluded
from the fingerprint, exactly as the engine is excluded from checkpoint
fingerprints: they cannot change tallies, so two submissions differing
only there are the *same* campaign and dedupe onto one unit.

:func:`execute_unit` runs one normalized spec to completion and returns
its JSON-able tallies. Every execution checkpoints under
``<root>/checkpoints/<fingerprint>/`` with ``resume=True``, so a killed
server that receives the same submission again resumes from the last
completed work unit and merges to tallies bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.exec import OutcomeCache, ProgressReporter
from repro.exec.checkpoint import campaign_id
from repro.glitchsim.harness import ENGINES
from repro.obs import Observer

#: accepted submission kinds
KINDS = ("branch", "image", "experiment")

#: experiment names the service will run (the serial-only renderers —
#: table4/5/7 and search — stay CLI-only: they finish in milliseconds
#: and have nothing to checkpoint or stream)
EXPERIMENT_NAMES = ("fig2", "table1", "table2", "table3", "table6")

#: flip models accepted for branch/image campaigns
FLIP_MODELS = ("and", "or", "xor")

#: keys that cannot change tallies and are excluded from the fingerprint
#: (the image digest already covers base + content, so path/base/format
#: are pure load instructions)
EXECUTION_KEYS = ("path", "base", "format", "engine", "workers")


class SpecError(ValueError):
    """A submission spec is malformed (unknown kind, bad field, ...)."""


def _coerce_int_tuple(value: Any, field: str) -> Optional[tuple]:
    if value is None:
        return None
    try:
        return tuple(int(v) for v in value)
    except (TypeError, ValueError):
        raise SpecError(f"{field} must be a list of integers, got {value!r}")


def normalize_spec(spec: Mapping[str, Any]) -> dict:
    """Validate and canonicalize one raw submission dict.

    Returns a new dict with defaults filled and fields canonically
    ordered/typed, so that two submissions meaning the same campaign
    normalize to the same dict (and therefore the same fingerprint).
    Raises :class:`SpecError` on anything malformed.
    """
    if not isinstance(spec, Mapping):
        raise SpecError(f"submission must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in KINDS:
        raise SpecError(f"unknown kind {kind!r}; expected one of {KINDS}")
    engine = spec.get("engine", "snapshot")
    if engine not in ENGINES:
        raise SpecError(f"unknown engine {engine!r}")

    if kind == "branch":
        model = spec.get("model")
        if model not in FLIP_MODELS:
            raise SpecError(f"branch model must be one of {FLIP_MODELS}, got {model!r}")
        conditions = spec.get("conditions")
        if conditions is not None:
            conditions = sorted(str(c) for c in conditions)
        return {
            "kind": "branch",
            "model": model,
            "zero_is_invalid": bool(spec.get("zero_is_invalid", False)),
            "k_values": _coerce_int_tuple(spec.get("k_values"), "k_values"),
            "conditions": conditions,
            "engine": engine,
        }

    if kind == "image":
        path = spec.get("path")
        if not path:
            raise SpecError("image submissions require a 'path'")
        image = _load_spec_image(spec)
        models = tuple(spec.get("models") or FLIP_MODELS)
        unknown = [m for m in models if m not in FLIP_MODELS]
        if unknown:
            raise SpecError(f"unknown flip model(s) {unknown}")
        strategy = spec.get("strategy", "linear")
        if strategy not in ("linear", "entry"):
            raise SpecError(f"unknown strategy {strategy!r}")
        return {
            "kind": "image",
            # the digest, not the path, is the campaign identity: the same
            # image submitted from two paths is one in-flight unit
            "digest": image.digest,
            "path": str(path),
            "base": spec.get("base"),
            "format": spec.get("format", "auto"),
            "models": list(models),
            "strategy": strategy,
            "zero_is_invalid": bool(spec.get("zero_is_invalid", False)),
            "k_values": _coerce_int_tuple(spec.get("k_values"), "k_values"),
            "engine": engine,
        }

    name = spec.get("name")
    if name not in EXPERIMENT_NAMES:
        raise SpecError(
            f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}"
        )
    stride = int(spec.get("stride", 4))
    if stride < 1:
        raise SpecError(f"stride must be >= 1, got {stride}")
    return {
        "kind": "experiment",
        "name": name,
        "stride": stride,
        "fault_model": spec.get("fault_model"),
        "profile": spec.get("profile"),
        "engine": engine,
    }


def _load_spec_image(spec: Mapping[str, Any]):
    from repro.firmware.image import ImageError, load_image

    base = spec.get("base")
    try:
        return load_image(
            spec["path"],
            base=int(base, 0) if isinstance(base, str) else base,
            fmt=spec.get("format", "auto"),
        )
    except (ImageError, OSError, ValueError) as exc:
        raise SpecError(f"cannot load image {spec['path']!r}: {exc}")


def spec_fingerprint(norm: Mapping[str, Any]) -> str:
    """The dedup identity of a normalized spec.

    ``svc-<kind>-<sha1 digest>`` over every tally-determining field;
    execution-only keys (:data:`EXECUTION_KEYS`) are excluded, so two
    submissions that differ only in engine, worker count, or
    the filesystem path of the same image dedupe onto one unit.
    """
    meta = {k: v for k, v in norm.items() if k not in EXECUTION_KEYS}
    return campaign_id(f"svc-{norm['kind']}", meta)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def checkpoint_dir_for(root: Path, fingerprint: str) -> Path:
    """Where one fingerprint's campaign checkpoints live under the service root."""
    return Path(root) / "checkpoints" / fingerprint


def execute_unit(
    norm: Mapping[str, Any],
    root: Path,
    cache_max_shards: Optional[int] = None,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    obs: Optional[Observer] = None,
) -> dict:
    """Run one normalized submission to completion; return JSON tallies.

    Checkpoints live under ``checkpoints/<fingerprint>`` inside ``root``
    and are always opened with ``resume=True``, so re-submitting after a
    crash (or a killed server) replays completed work units. The outcome
    cache is the shared multi-tenant store at ``<root>/cache`` — every
    unit opens its own handle on the same shard files (exactly as worker
    processes do), bounded in memory by ``cache_max_shards``.
    """
    fingerprint = spec_fingerprint(norm)
    checkpoints = checkpoint_dir_for(root, fingerprint)
    cache = OutcomeCache(Path(root) / "cache", max_shards=cache_max_shards)
    kind = norm["kind"]
    try:
        if kind == "branch":
            return _execute_branch(norm, checkpoints, cache, workers, progress, obs)
        if kind == "image":
            return _execute_image(norm, checkpoints, cache, workers, progress, obs)
        return _execute_experiment(norm, checkpoints, workers, progress, obs)
    finally:
        cache.flush()


def _execute_branch(norm, checkpoints, cache, workers, progress, obs) -> dict:
    from repro.glitchsim.campaign import run_branch_campaign

    result = run_branch_campaign(
        norm["model"],
        zero_is_invalid=norm["zero_is_invalid"],
        k_values=tuple(norm["k_values"]) if norm["k_values"] else None,
        conditions=list(norm["conditions"]) if norm["conditions"] else None,
        workers=workers,
        cache=cache,
        progress=progress,
        checkpoint_dir=str(checkpoints),
        resume=True,
        obs=obs,
        engine=norm["engine"],
    )
    return {
        "kind": "branch",
        "model": result.model,
        "zero_is_invalid": result.zero_is_invalid,
        "sweeps": {
            sweep.mnemonic: {
                str(k): dict(counter) for k, counter in sorted(sweep.by_k.items())
            }
            for sweep in result.sweeps
        },
    }


def _execute_image(norm, checkpoints, cache, workers, progress, obs) -> dict:
    from repro.campaign import run_image_campaign
    from repro.firmware.image import load_image

    base = norm.get("base")
    image = load_image(
        norm["path"],
        base=int(base, 0) if isinstance(base, str) else base,
        fmt=norm.get("format", "auto"),
    )
    if image.digest != norm["digest"]:
        raise SpecError(
            f"image at {norm['path']} changed since submission: digest "
            f"{image.digest} != {norm['digest']}"
        )
    result = run_image_campaign(
        image,
        models=tuple(norm["models"]),
        strategy=norm["strategy"],
        zero_is_invalid=norm["zero_is_invalid"],
        k_values=tuple(norm["k_values"]) if norm["k_values"] else None,
        workers=workers,
        cache=cache,
        progress=progress,
        checkpoint_dir=str(checkpoints),
        resume=True,
        obs=obs,
        engine=norm["engine"],
    )
    return {
        "kind": "image",
        "digest": result.digest,
        "models": list(result.models),
        "sweeps": {
            model: {
                sweep.site.site_id: {
                    str(k): dict(counter) for k, counter in sorted(sweep.by_k.items())
                }
                for sweep in result.sweeps[model]
            }
            for model in result.models
        },
        "ranking": [
            {
                "site": entry.site.site_id,
                "rates": {m: entry.rates.get(m, 0.0) for m in result.models},
                "overall": entry.overall,
            }
            for entry in result.ranking()
        ],
    }


def _execute_experiment(norm, checkpoints, workers, progress, obs) -> dict:
    import repro.experiments as experiments

    name = norm["name"]
    common = dict(
        workers=workers, progress=progress, obs=obs,
        checkpoint_dir=str(checkpoints), resume=True,
    )
    if name == "fig2":
        result = experiments.run_figure2(engine=norm["engine"], **common)
    else:
        driver = getattr(experiments, f"run_{name}")
        result = driver(
            stride=norm["stride"], fault_model=norm["fault_model"],
            profile=norm["profile"], **common,
        )
    return {"kind": "experiment", "name": name, "render": result.render()}


def describe_spec(norm: Mapping[str, Any]) -> str:
    """One-line human label for status listings and feed headers."""
    kind = norm["kind"]
    if kind == "branch":
        return f"branch {norm['model']}"
    if kind == "image":
        return f"image {norm['digest'][:10]} [{','.join(norm['models'])}]"
    return f"experiment {norm['name']}"


__all__ = [
    "EXECUTION_KEYS",
    "EXPERIMENT_NAMES",
    "FLIP_MODELS",
    "KINDS",
    "SpecError",
    "checkpoint_dir_for",
    "describe_spec",
    "execute_unit",
    "normalize_spec",
    "spec_fingerprint",
]
