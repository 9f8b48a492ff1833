"""Declarative experiment-campaign specifications.

A campaign is a *grid* of Monte-Carlo experiments — the paper's Figure 4 and
its ablations are not one curve but every (code, decoder, channel,
quantization, iteration budget, alpha) combination swept over Eb/N0.  This
module turns that grid into data:

* :class:`CodeSpec` / :class:`DecoderSpec` / :class:`ChannelSpec` name a
  code construction, a decoder configuration and a modulator+channel
  pipeline symbolically (JSON-friendly, picklable, buildable).  Names
  resolve through the component registry (:mod:`repro.registry`), so a
  third-party code family, decoder or channel registered with the public
  decorators is immediately spec-addressable — and unknown names fail with
  the current list of valid ones;
* :class:`ExperimentSpec` combines them with an optional per-experiment
  Eb/N0 grid and :class:`~repro.sim.montecarlo.SimulationConfig` override —
  one experiment produces one :class:`~repro.sim.results.SimulationCurve`;
* :class:`CampaignSpec` owns the campaign-wide defaults (grid, config, master
  seed) and the experiment list, round-trips through dicts/JSON, and can
  *expand* a compact cartesian ``grid`` description (lists of codes ×
  decoders × channels with list-valued parameters × configs) into labelled
  experiments.

Everything here is declarative: nothing expensive is built until
:meth:`CodeSpec.build` / :meth:`DecoderSpec.factory` /
:meth:`ChannelSpec.build` are called by the scheduler, so specs are cheap to
validate, hash, store in manifests and ship to worker processes.

Paper cross-references: a grid over ``alpha`` reproduces the Section 5
correction-factor study, a grid over ``message_format`` word lengths the
quantization ablation behind the 6-bit operating point of Tables 2/3, a
grid over decoder kinds the Figure 4 waterfall comparison, and a grid over
``channels`` (soft AWGN vs hard-decision BSC) measures the soft-decision
gain the paper's LLR datapath exists to keep
(``examples/quantization_campaign.py`` is the worked example).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.channel.pipeline import ChannelPipeline
from repro.channel.quantize import FixedPointFormat
from repro.registry import get_component
from repro.sim.montecarlo import SimulationConfig
from repro.utils.files import atomic_write_text

__all__ = [
    "CodeSpec",
    "DecoderSpec",
    "ChannelSpec",
    "ExperimentSpec",
    "CampaignSpec",
    "config_to_dict",
    "config_from_dict",
    "expand_grid",
]

#: Decoder parameters that name a fixed-point format and accept a
#: ``[total_bits, fractional_bits]`` pair in specs.
_FORMAT_PARAMS = ("message_format", "channel_format")


def config_to_dict(config: SimulationConfig) -> dict[str, Any]:
    """Plain-dictionary form of a :class:`SimulationConfig`."""
    return asdict(config)


def config_from_dict(data: Mapping[str, Any]) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig`; unknown keys raise ``ValueError``.

    The strictness is deliberate: a silently dropped key (typo, or a field
    from a newer version) would resume a campaign under a *different*
    stopping rule than its manifest claims, corrupting the bit-identical
    resume guarantee.
    """
    known = {f.name for f in fields(SimulationConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown SimulationConfig keys: {sorted(unknown)}")
    return SimulationConfig(**{k: v for k, v in data.items() if k in known})


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CodeSpec:
    """Symbolic description of a code construction.

    ``family`` selects a registered code family (``python -m repro
    components list`` shows them): ``"ccsds-c2"`` (the paper's full
    8176-bit code), ``"scaled"`` (its smaller structural twin, requires
    ``circulant``) — or any family registered via
    :func:`repro.registry.register_code`.  ``rate`` is passed to a family
    that declares it; stored specs may carry it for one that does not.
    ``params`` carries extra builder keywords of third-party families
    beyond the classic ``circulant``/``rate`` pair.
    """

    family: str = "scaled"
    circulant: int | None = None
    rate: str | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        component = get_component("code", self.family)
        overlap = set(self.params) & {"circulant", "rate"}
        if overlap:
            raise ValueError(
                f"CodeSpec params duplicate dedicated fields: {sorted(overlap)}"
            )
        component.validate(self._builder_kwargs())
        if self.family == "scaled" and self.circulant is not None and not self.circulant:
            raise ValueError("a 'scaled' CodeSpec needs a positive circulant size")

    def _builder_kwargs(self) -> dict[str, Any]:
        kwargs = dict(self.params)
        component = get_component("code", self.family)
        declared = (
            None if component.params is None else set(component.param_names)
        )
        for name, value in (("circulant", self.circulant), ("rate", self.rate)):
            if value is None:
                continue
            # Historical specs could carry a dedicated field the family
            # ignores (a 'scaled' entry with a stray rate, say); pre-registry
            # builders dropped it silently, and stores written back then must
            # keep loading — so dedicated fields are filtered to the schema,
            # while free-form ``params`` (new in this redesign) stay strict.
            if declared is not None and name not in declared:
                continue
            kwargs[name] = value
        return kwargs

    def __hash__(self) -> int:
        # The dataclass-generated hash chokes on the params dict; hash the
        # canonical JSON instead (specs are used as cache keys, e.g. to
        # build each distinct code once per campaign).
        return _spec_hash(self.as_dict())

    @property
    def key(self) -> str:
        """Short stable identifier (used in labels and store addressing)."""
        if self.family == "ccsds-c2":
            from repro.codes.ccsds_c2 import CCSDS_C2_CIRCULANT_SIZE

            if self.circulant in (None, CCSDS_C2_CIRCULANT_SIZE):
                return "ccsds-c2"
            # A circulant override builds the scaled twin — the key must say
            # so, or the stored curve would claim the full code's results.
            return f"ccsds-c2-c{self.circulant}"
        if self.family == "scaled":
            return f"scaled{self.circulant}"
        parts = [self.family]
        kwargs = self._builder_kwargs()
        for name in sorted(kwargs):
            parts.append(f"{name.replace('_', '-')}{_value_slug(kwargs[name])}")
        return "-".join(parts)

    def build(self) -> Any:
        """Construct the code object this spec names."""
        return get_component("code", self.family).build(**self._builder_kwargs())

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"family": self.family}
        if self.circulant is not None:
            data["circulant"] = self.circulant
        if self.rate is not None:
            data["rate"] = self.rate
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CodeSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CodeSpec keys: {sorted(unknown)}")
        payload = dict(data)
        payload["params"] = dict(payload.get("params") or {})
        return cls(**payload)


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DecoderSpec:
    """Symbolic description of a decoder configuration.

    ``kind`` names a registered decoder
    (:func:`repro.registry.register_decoder`); ``params`` is passed through
    to the decoder constructor as keyword arguments (``alpha``, ``beta``,
    …) and is validated against the registered parameter schema, so a typo
    fails at spec time — not inside a worker process.  The fixed-point
    decoder's ``message_format`` / ``channel_format`` may be given as a
    ``[total_bits, fractional_bits]`` pair and are converted to
    :class:`~repro.channel.quantize.FixedPointFormat` at build time, keeping
    the spec JSON-native.
    """

    kind: str = "nms"
    iterations: int = 18
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        component = get_component("decoder", self.kind)
        component.validate(self.params)
        if int(self.iterations) < 1:
            raise ValueError("iterations must be positive")

    def __hash__(self) -> int:
        return _spec_hash(self.as_dict())

    @property
    def key(self) -> str:
        """Short stable identifier including every parameter."""
        parts = [self.kind, f"it{self.iterations}"]
        for name in sorted(self.params):
            parts.append(f"{name.replace('_', '-')}{_value_slug(self.params[name])}")
        return "-".join(parts)

    def build(self, code: Any) -> Any:
        """Construct the decoder for ``code``."""
        kwargs = dict(self.params)
        for name in _FORMAT_PARAMS:
            value = kwargs.get(name)
            if isinstance(value, (list, tuple)):
                kwargs[name] = FixedPointFormat(int(value[0]), int(value[1]))
        return get_component("decoder", self.kind).build(
            code, max_iterations=int(self.iterations), **kwargs
        )

    def factory(self, code: Any) -> "BoundDecoderFactory":
        """Zero-argument factory bound to ``code``.

        Unlike a closure this is *picklable* (spec + code), so campaign
        worker pools also start on platforms whose ``multiprocessing`` start
        method is ``spawn`` (macOS/Windows), provided the code object
        pickles.
        """
        return BoundDecoderFactory(self, code)

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind, "iterations": self.iterations}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DecoderSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown DecoderSpec keys: {sorted(unknown)}")
        payload = dict(data)
        payload["params"] = dict(payload.get("params") or {})
        return cls(**payload)


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChannelSpec:
    """Symbolic description of a modulator + channel pipeline.

    ``kind`` names a registered channel model
    (:func:`repro.registry.register_channel` — built-ins: ``"awgn"`` and
    ``"bsc"``) and ``params`` its constructor keywords;
    ``modulator`` / ``modulator_params`` select the registered modulator
    (default: unit-amplitude ``"bpsk"``).  The default spec reproduces the
    historical hardcoded link exactly, which is why existing AWGN campaigns
    stay byte-identical and why pre-channel-axis JSON files (which have no
    ``channel`` entry at all) load unchanged.
    """

    kind: str = "awgn"
    params: dict[str, Any] = field(default_factory=dict)
    modulator: str = "bpsk"
    modulator_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        get_component("channel", self.kind).validate(self.params)
        get_component("modulator", self.modulator).validate(self.modulator_params)

    def __hash__(self) -> int:
        return _spec_hash(self.as_dict())

    @property
    def key(self) -> str:
        """Short stable identifier including every non-default part."""
        parts = [self.kind]
        for name in sorted(self.params):
            parts.append(f"{name.replace('_', '-')}{_value_slug(self.params[name])}")
        if self.modulator != "bpsk" or self.modulator_params:
            parts.append(self.modulator)
            for name in sorted(self.modulator_params):
                parts.append(
                    f"{name.replace('_', '-')}{_value_slug(self.modulator_params[name])}"
                )
        return "-".join(parts)

    @property
    def is_default(self) -> bool:
        """Whether this is the historical BPSK/AWGN link."""
        return self.as_dict() == {"kind": "awgn"}

    def build(self) -> ChannelPipeline:
        """Construct the modulator + channel pipeline this spec names."""
        modulator = get_component("modulator", self.modulator).build(
            **self.modulator_params
        )
        channel = get_component("channel", self.kind).build(**self.params)
        return ChannelPipeline(modulator, channel)

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind}
        if self.params:
            data["params"] = dict(self.params)
        if self.modulator != "bpsk":
            data["modulator"] = self.modulator
        if self.modulator_params:
            data["modulator_params"] = dict(self.modulator_params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChannelSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ChannelSpec keys: {sorted(unknown)}")
        payload = dict(data)
        payload["params"] = dict(payload.get("params") or {})
        payload["modulator_params"] = dict(payload.get("modulator_params") or {})
        return cls(**payload)


#: The implicit channel of every experiment that does not name one — the
#: dict form pre-channel-axis stores are normalized against.
DEFAULT_CHANNEL_DICT = {"kind": "awgn"}


def _value_slug(value: object) -> str:
    if isinstance(value, (list, tuple)):
        return "q" + "p".join(str(v) for v in value)
    return str(value)


def _spec_hash(data: dict[str, Any]) -> int:
    """Order-insensitive hash of a spec's dict form (params are dicts)."""
    return hash(json.dumps(data, sort_keys=True, default=str))


@dataclass(frozen=True)
class BoundDecoderFactory:
    """Picklable zero-argument decoder factory (a spec bound to its code)."""

    decoder: DecoderSpec
    code: Any

    def __call__(self) -> Any:
        return self.decoder.build(self.code)


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentSpec:
    """One (code, decoder, channel) experiment of a campaign — one curve.

    ``ebn0`` and ``config`` override the campaign-wide defaults when given;
    ``channel`` defaults to the classic BPSK/AWGN link.  ``label`` is the
    experiment's identity inside the campaign: it must be unique and is the
    addressing key of the result store.
    """

    label: str
    code: CodeSpec
    decoder: DecoderSpec
    ebn0: tuple[float, ...] | None = None
    config: SimulationConfig | None = None
    channel: ChannelSpec = field(default_factory=ChannelSpec)

    def __post_init__(self) -> None:
        if not self.label or not str(self.label).strip():
            raise ValueError("every experiment needs a non-empty label")
        if self.ebn0 is not None:
            object.__setattr__(self, "ebn0", tuple(float(x) for x in self.ebn0))

    def resolve_ebn0(self, default: Sequence[float]) -> tuple[float, ...]:
        grid = self.ebn0 if self.ebn0 is not None else tuple(default)
        if not grid:
            raise ValueError(
                f"experiment {self.label!r} has no Eb/N0 grid (none of its own "
                "and no campaign default)"
            )
        values = tuple(float(x) for x in grid)
        if len(set(values)) != len(values):
            # A duplicated value would create two jobs racing for one store
            # slot — whichever finished first would win, breaking the
            # any-worker-count determinism guarantee.
            raise ValueError(
                f"experiment {self.label!r} has duplicate Eb/N0 values: {values}"
            )
        return values

    def resolve_config(self, default: SimulationConfig) -> SimulationConfig:
        return self.config if self.config is not None else default

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "label": self.label,
            "code": self.code.as_dict(),
            "decoder": self.decoder.as_dict(),
        }
        if not self.channel.is_default:
            data["channel"] = self.channel.as_dict()
        if self.ebn0 is not None:
            data["ebn0"] = list(self.ebn0)
        if self.config is not None:
            data["config"] = config_to_dict(self.config)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExperimentSpec keys: {sorted(unknown)}")
        return cls(
            label=str(data["label"]),
            code=CodeSpec.from_dict(data["code"]),
            decoder=DecoderSpec.from_dict(data["decoder"]),
            channel=(
                ChannelSpec.from_dict(data["channel"])
                if data.get("channel") is not None
                else ChannelSpec()
            ),
            ebn0=tuple(data["ebn0"]) if data.get("ebn0") is not None else None,
            config=(
                config_from_dict(data["config"])
                if data.get("config") is not None
                else None
            ),
        )


# --------------------------------------------------------------------------- #
def expand_grid(grid: Mapping[str, Any]) -> list[ExperimentSpec]:
    """Expand a compact cartesian grid into labelled experiments.

    ``grid`` is a mapping with:

    * ``codes`` — list of :class:`CodeSpec` dicts (default: one full CCSDS
      C2 code);
    * ``decoders`` — list of :class:`DecoderSpec`-like dicts where
      ``iterations`` and any value inside ``params`` may be a *list*; each
      list is a cartesian axis;
    * ``channels`` — optional list of :class:`ChannelSpec`-like dicts, again
      with list-valued ``params`` as axes (default: the BPSK/AWGN link);
    * ``configs`` — optional list of :class:`SimulationConfig` dicts (each a
      campaign-config override); omitted means "use the campaign default";
    * ``ebn0`` — optional Eb/N0 grid shared by the expanded experiments
      (omitted means "use the campaign default").

    Labels are generated from the varying axes only (the code key is always
    included when several codes are present, the channel key when several
    channels are, the decoder kind always), so a two-alpha sweep reads
    ``nms-it18-alpha1.25`` / ``nms-it18-alpha1.5`` and a two-channel grid
    appends ``…-awgn`` / ``…-bsc``.
    """
    unknown = set(grid) - {"codes", "decoders", "channels", "configs", "ebn0"}
    if unknown:
        raise ValueError(f"unknown grid keys: {sorted(unknown)}")
    codes = [CodeSpec.from_dict(c) for c in grid.get("codes") or [{"family": "ccsds-c2"}]]
    decoder_entries = grid.get("decoders") or [{"kind": "nms"}]
    channel_entries = grid.get("channels") or [{"kind": "awgn"}]
    config_entries = grid.get("configs")
    configs: list[SimulationConfig | None] = (
        [config_from_dict(c) for c in config_entries] if config_entries else [None]
    )
    grid_ebn0 = grid.get("ebn0")
    ebn0 = tuple(float(x) for x in grid_ebn0) if grid_ebn0 is not None else None

    decoders: list[DecoderSpec] = []
    for entry in decoder_entries:
        decoders.extend(_expand_decoder_entry(entry))
    channels: list[ChannelSpec] = []
    for entry in channel_entries:
        channels.extend(_expand_channel_entry(entry))

    experiments: list[ExperimentSpec] = []
    many_codes = len(codes) > 1
    many_channels = len(channels) > 1
    many_configs = len(configs) > 1
    for code, decoder, channel, (config_index, config) in itertools.product(
        codes, decoders, channels, enumerate(configs)
    ):
        parts: list[str] = []
        if many_codes:
            parts.append(code.key)
        parts.append(decoder.key)
        if many_channels:
            parts.append(channel.key)
        if many_configs:
            parts.append(f"cfg{config_index}")
        experiments.append(
            ExperimentSpec(
                label="-".join(parts),
                code=code,
                decoder=decoder,
                channel=channel,
                ebn0=ebn0,
                config=config,
            )
        )
    return experiments


def _expand_decoder_entry(entry: Mapping[str, Any]) -> list[DecoderSpec]:
    """Expand list-valued ``iterations``/``params`` axes of one decoder dict."""
    unknown = set(entry) - {"kind", "iterations", "params"}
    if unknown:
        raise ValueError(f"unknown decoder grid keys: {sorted(unknown)}")
    kind = entry.get("kind", "nms")
    iterations = entry.get("iterations", 18)
    iteration_axis = list(iterations) if isinstance(iterations, (list, tuple)) else [iterations]
    axis_names, axes, params = _param_axes(entry.get("params"))
    specs: list[DecoderSpec] = []
    for iters in iteration_axis:
        for combo in itertools.product(*axes) if axes else [()]:
            combined = dict(params)
            combined.update(zip(axis_names, combo))
            specs.append(DecoderSpec(kind=kind, iterations=int(iters), params=combined))
    return specs


def _expand_channel_entry(entry: Mapping[str, Any]) -> list[ChannelSpec]:
    """Expand list-valued ``params``/``modulator_params`` axes of one channel dict."""
    unknown = set(entry) - {"kind", "params", "modulator", "modulator_params"}
    if unknown:
        raise ValueError(f"unknown channel grid keys: {sorted(unknown)}")
    kind = entry.get("kind", "awgn")
    modulator = entry.get("modulator", "bpsk")
    axis_names, axes, params = _param_axes(entry.get("params"))
    mod_axis_names, mod_axes, mod_params = _param_axes(entry.get("modulator_params"))
    specs: list[ChannelSpec] = []
    for combo in itertools.product(*axes) if axes else [()]:
        combined = dict(params)
        combined.update(zip(axis_names, combo))
        for mod_combo in itertools.product(*mod_axes) if mod_axes else [()]:
            mod_combined = dict(mod_params)
            mod_combined.update(zip(mod_axis_names, mod_combo))
            specs.append(
                ChannelSpec(
                    kind=kind,
                    params=combined,
                    modulator=modulator,
                    modulator_params=mod_combined,
                )
            )
    return specs


def _param_axes(
    raw_params: Mapping[str, Any] | None,
) -> tuple[list[str], list[list[Any]], dict[str, Any]]:
    """Split a params dict into cartesian axes and fixed values.

    A list-valued parameter is an axis — except the fixed-point format
    parameters, where a ``[total, fractional]`` pair is a single value and
    only a list of pairs is an axis.
    """
    params = dict(raw_params or {})
    axis_names: list[str] = []
    axes: list[list[Any]] = []
    for name in sorted(params):
        value = params[name]
        if name in _FORMAT_PARAMS:
            if value and isinstance(value[0], (list, tuple)):
                axis_names.append(name)
                axes.append([list(v) for v in value])
            continue
        if isinstance(value, (list, tuple)):
            axis_names.append(name)
            axes.append(list(value))
    return axis_names, axes, params


# --------------------------------------------------------------------------- #
@dataclass
class CampaignSpec:
    """A named set of experiments with campaign-wide defaults.

    Attributes
    ----------
    name:
        Campaign identifier (also the default result-directory name).
    experiments:
        The expanded experiment list; labels must be unique.
    ebn0:
        Default Eb/N0 grid for experiments without one of their own.
    config:
        Default :class:`SimulationConfig`.
    seed:
        Master seed.  Every experiment receives child stream ``i`` of the
        root :class:`numpy.random.SeedSequence`, and every point child ``j``
        of its experiment — a pure function of the spec, which is what lets
        a resumed campaign reproduce an uninterrupted one bit for bit.
    """

    name: str
    experiments: list[ExperimentSpec] = field(default_factory=list)
    ebn0: tuple[float, ...] = ()
    config: SimulationConfig = field(default_factory=SimulationConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("a campaign needs a non-empty name")
        self.ebn0 = tuple(float(x) for x in self.ebn0)
        self.validate()

    def validate(self) -> None:
        """Check label uniqueness and that every experiment has a grid."""
        if not self.experiments:
            raise ValueError("a campaign needs at least one experiment")
        seen: set[str] = set()
        slugs: set[str] = set()
        for experiment in self.experiments:
            if experiment.label in seen:
                raise ValueError(f"duplicate experiment label {experiment.label!r}")
            seen.add(experiment.label)
            slug = slugify(experiment.label)
            if slug in slugs:
                raise ValueError(
                    f"experiment labels collide after slugification: {slug!r}"
                )
            slugs.add(slug)
            experiment.resolve_ebn0(self.ebn0)  # raises when empty

    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "ebn0": list(self.ebn0),
            "config": config_to_dict(self.config),
            "experiments": [e.as_dict() for e in self.experiments],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        unknown = set(data) - {"name", "seed", "ebn0", "config", "experiments", "grid"}
        if unknown:
            raise ValueError(f"unknown CampaignSpec keys: {sorted(unknown)}")
        ebn0 = tuple(float(x) for x in data.get("ebn0") or ())
        experiments = [
            ExperimentSpec.from_dict(e) for e in data.get("experiments") or []
        ]
        if data.get("grid"):
            experiments.extend(expand_grid(data["grid"]))
        return cls(
            name=str(data.get("name", "campaign")),
            experiments=experiments,
            ebn0=ebn0,
            config=(
                config_from_dict(data["config"])
                if data.get("config") is not None
                else SimulationConfig()
            ),
            seed=int(data.get("seed", 0)),
        )

    def save(self, path: str | Path) -> None:
        """Write the spec as JSON."""
        atomic_write_text(path, json.dumps(self.as_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        """Load a spec from a JSON file (``grid`` sections are expanded)."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------ #
    def total_points(self) -> int:
        """Number of (experiment, Eb/N0) point jobs in the campaign."""
        return sum(len(e.resolve_ebn0(self.ebn0)) for e in self.experiments)


def slugify(label: str) -> str:
    """File-system-safe form of an experiment label."""
    cleaned = "".join(c if c.isalnum() or c in "._-" else "-" for c in label)
    cleaned = cleaned.strip("-.")
    return cleaned or "experiment"
