"""Tests for the pluggable component registry (repro.registry)."""

import pytest

from repro.cli import main
from repro.sim.campaign import ChannelSpec, CodeSpec, DecoderSpec
from repro.registry import (
    KINDS,
    REGISTRY,
    ComponentRegistry,
    DuplicateComponentError,
    Param,
    RegistryError,
    UnknownComponentError,
    component_names,
    get_component,
    iter_components,
    register_channel,
    temporary_component,
)


#: Every name the package registers, by component kind.
BUILTIN_NAMES = {
    "code": {"ccsds-c2", "scaled"},
    "decoder": {
        "layered", "min-sum", "nms", "offset", "quantized", "sum-product",
        "layered-batched", "min-sum-batched", "nms-batched", "offset-batched",
        "sum-product-batched",
    },
    "channel": {"awgn", "bsc"},
    "modulator": {"bpsk"},
}

#: Names that earlier versions registered: the AR4JA code family, the two
#: hard-decision decoders and the Rayleigh channel.
DELETED_NAMES = [
    ("code", "deepspace"), ("decoder", "gallager-b"), ("decoder", "wbf"), ("channel", "rayleigh"),
]
DELETED_IDS = [name for _, name in DELETED_NAMES]


class TestRegistryCore:
    def test_builtin_names_are_registered(self):
        assert set(component_names("code")) >= {"ccsds-c2", "scaled"}
        assert set(component_names("decoder")) >= {
            "nms", "min-sum", "offset", "sum-product", "quantized", "layered",
        }
        assert set(component_names("channel")) >= {"awgn", "bsc"}
        assert "bpsk" in component_names("modulator")

    @pytest.mark.parametrize("kind", KINDS)
    def test_builtin_names_are_exactly_these(self, kind):
        assert set(component_names(kind)) == BUILTIN_NAMES[kind]

    @pytest.mark.parametrize("kind, name", DELETED_NAMES, ids=DELETED_IDS)
    def test_deleted_name_is_unknown(self, kind, name):
        with pytest.raises(UnknownComponentError) as excinfo:
            get_component(kind, name)
        assert str(excinfo.value).endswith(f"choose from {component_names(kind)}")

    @pytest.mark.parametrize("kind, name", DELETED_NAMES, ids=DELETED_IDS)
    def test_spec_naming_a_deleted_name_is_refused(self, kind, name):
        """Specs check their names when they are made, not when they build."""
        make = {
            "code": lambda: CodeSpec(family=name, circulant=31),
            "decoder": lambda: DecoderSpec(name, 8),
            "channel": lambda: ChannelSpec(kind=name),
        }[kind]
        with pytest.raises(ValueError, match=f"unknown {kind} .*'{name}'; choose from"):
            make()

    def test_unknown_name_lists_valid_choices(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            get_component("channel", "carrier-pigeon")
        message = str(excinfo.value)
        for name in component_names("channel"):
            assert name in message
        assert "choose from" in message

    def test_unknown_kind_rejected(self):
        registry = ComponentRegistry()
        with pytest.raises(RegistryError, match="unknown component kind"):
            registry.names("decoders")  # plural typo
        with pytest.raises(RegistryError, match=str(KINDS[0])):
            registry.get("nope", "x")

    def test_duplicate_registration_raises(self):
        registry = ComponentRegistry()
        registry.register("channel", "dup")(lambda: None)
        with pytest.raises(DuplicateComponentError, match="already registered"):
            registry.register("channel", "dup")(lambda: None)
        # ...including against the global registry's built-ins.
        with pytest.raises(DuplicateComponentError):
            register_channel("awgn")(lambda: None)

    def test_unregister_then_reregister(self):
        registry = ComponentRegistry()
        registry.register("modulator", "m")(lambda: "one")
        registry.unregister("modulator", "m")
        assert ("modulator", "m") not in registry
        registry.register("modulator", "m")(lambda: "two")
        assert registry.get("modulator", "m").build() == "two"
        with pytest.raises(UnknownComponentError):
            registry.unregister("modulator", "gone")

    def test_temporary_component_cleans_up_even_on_error(self):
        with pytest.raises(RuntimeError):
            with temporary_component("modulator", "tmp-mod", lambda: None):
                assert ("modulator", "tmp-mod") in REGISTRY
                raise RuntimeError("boom")
        assert ("modulator", "tmp-mod") not in REGISTRY

    def test_summary_defaults_to_docstring_first_line(self):
        registry = ComponentRegistry()

        @registry.register("channel", "documented")
        def build():
            """First line wins.

            Not this one.
            """

        assert registry.get("channel", "documented").summary == "First line wins."

    def test_iter_components_covers_all_kinds_in_order(self):
        kinds = [component.kind for component in iter_components()]
        assert kinds == sorted(kinds, key=KINDS.index)
        channel_only = list(iter_components("channel"))
        assert {component.kind for component in channel_only} == {"channel"}


class TestParamSchema:
    def test_unknown_parameter_listed_with_valid_ones(self):
        component = get_component("decoder", "nms")
        with pytest.raises(RegistryError, match="valid parameters: alpha"):
            component.validate({"allpha": 1.25})

    def test_required_parameter_enforced(self):
        component = get_component("code", "scaled")
        with pytest.raises(RegistryError, match="circulant"):
            component.validate({})
        component.validate({"circulant": 31})  # does not raise

    def test_choices_enforced(self):
        registry = ComponentRegistry()
        registry.register(
            "code", "rated", params=[Param("rate", "str", choices=("1/2", "2/3"))]
        )(lambda rate: rate)
        component = registry.get("code", "rated")
        with pytest.raises(RegistryError, match="must be one of"):
            component.validate({"rate": "9/10"})
        component.validate({"rate": "2/3"})  # does not raise

    def test_open_schema_accepts_anything(self):
        registry = ComponentRegistry()
        registry.register("channel", "open")(lambda **kw: kw)
        registry.get("channel", "open").validate({"anything": 1, "goes": 2})

    def test_param_signature_and_dict_forms(self):
        param = Param("rate", "str", required=True, choices=("1/2", "2/3"), doc="d")
        assert param.signature() == "rate*"
        assert Param("alpha", "float", default=1.25).signature() == "alpha=1.25"
        assert param.as_dict() == {
            "name": "rate", "type": "str", "required": True,
            "choices": ["1/2", "2/3"], "doc": "d",
        }
        with pytest.raises(RegistryError, match="identifier"):
            Param("not a name")


class TestThirdPartyEndToEnd:
    """A component registered via the public decorator works through a campaign."""

    def test_custom_channel_through_campaign_run(self, tmp_path):
        import numpy as np

        from repro.sim import SimulationConfig
        from repro.sim.campaign import (
            CampaignScheduler,
            CampaignSpec,
            ChannelSpec,
            CodeSpec,
            DecoderSpec,
            ExperimentSpec,
            ResultStore,
        )

        class ScaledAWGN:
            """AWGN whose LLRs are scaled by a registered gain parameter."""

            def __init__(self, gain: float = 1.0):
                self.gain = float(gain)

            def llrs(self, symbols, sigma, rng, *, amplitude=1.0):
                arr = np.asarray(symbols, dtype=np.float64)
                received = arr + rng.normal(0.0, sigma, size=arr.shape)
                return self.gain * (2.0 * amplitude / sigma**2) * received

        with temporary_component(
            "channel", "test-scaled-awgn", ScaledAWGN,
            params=[Param("gain", "float", default=1.0)],
        ):
            spec = CampaignSpec(
                name="third-party",
                seed=3,
                ebn0=(2.0, 4.0),
                config=SimulationConfig(
                    max_frames=20, target_frame_errors=4, batch_frames=10,
                    all_zero_codeword=True,
                ),
                experiments=[
                    ExperimentSpec(
                        label="custom",
                        code=CodeSpec(family="scaled", circulant=31),
                        decoder=DecoderSpec("nms", 8),
                        channel=ChannelSpec(
                            kind="test-scaled-awgn", params={"gain": 0.5}
                        ),
                    ),
                ],
            )
            # JSON round-trip keeps the third-party name and params.
            restored = CampaignSpec.from_dict(spec.as_dict())
            assert restored.experiments[0].channel.kind == "test-scaled-awgn"
            serial = CampaignScheduler(
                spec, ResultStore.create(tmp_path / "serial", spec), workers=None
            ).run()
            pooled = CampaignScheduler(
                spec, ResultStore.create(tmp_path / "pooled", spec), workers=2
            ).run()
            assert serial["custom"].points == pooled["custom"].points
            metadata = ResultStore.open(tmp_path / "serial").curve("custom").metadata
            assert metadata["channel"] == {
                "kind": "test-scaled-awgn", "params": {"gain": 0.5}
            }

    def test_custom_decoder_spec_builds_and_validates(self, scaled_code):
        from repro.decode import NormalizedMinSumDecoder
        from repro.sim.campaign import DecoderSpec

        def build(code, max_iterations=18, *, alpha=1.25):
            return NormalizedMinSumDecoder(
                code, max_iterations=max_iterations, alpha=alpha
            )

        with temporary_component(
            "decoder", "test-nms-wrap", build,
            params=[Param("alpha", "float", default=1.25)],
        ):
            spec = DecoderSpec("test-nms-wrap", 7, params={"alpha": 1.5})
            decoder = spec.build(scaled_code)
            assert decoder.max_iterations == 7
            assert decoder.alpha == 1.5
            with pytest.raises(ValueError, match="valid parameters"):
                DecoderSpec("test-nms-wrap", 7, params={"aalpha": 1.5})
        # Outside the with-block the name is gone from spec validation too.
        with pytest.raises(ValueError, match="test-nms-wrap"):
            DecoderSpec("test-nms-wrap", 7)


class TestComponentsCLI:
    def test_list_shows_every_kind_and_name(self, capsys):
        assert main(["components", "list"]) == 0
        out = capsys.readouterr().out
        for kind in KINDS:
            assert kind in out
            for name in component_names(kind):
                assert name in out

    def test_list_kind_filter(self, capsys):
        assert main(["components", "list", "--kind", "channel"]) == 0
        out = capsys.readouterr().out
        assert "bsc" in out
        assert "nms" not in out

    def test_describe_shows_schema(self, capsys):
        assert main(["components", "describe", "decoder", "quantized"]) == 0
        out = capsys.readouterr().out
        assert "message_format" in out
        assert "fixed-point" in out.lower() or "format" in out

    def test_describe_unknown_exits_2_with_choices(self, capsys):
        assert main(["components", "describe", "channel", "nope"]) == 2
        err = capsys.readouterr().err
        assert "choose from" in err
        assert "awgn" in err


class TestBuiltinLoading:
    def test_failed_builtin_import_is_retried_not_cached(self, monkeypatch):
        """A failed builtin import must re-raise on the next lookup instead of
        leaving a silently half-populated registry for the process."""
        import repro.registry as registry_module

        monkeypatch.setattr(registry_module, "_builtins_loaded", False)
        monkeypatch.setattr(
            registry_module, "_BUILTIN_MODULES", ("repro.no_such_builtin_module",)
        )
        with pytest.raises(ModuleNotFoundError):
            component_names("channel")
        # The failure was not cached as success...
        assert registry_module._builtins_loaded is False
        with pytest.raises(ModuleNotFoundError):
            component_names("channel")
        # ...and once the modules import again, lookups recover (monkeypatch
        # restores the real module list; the registry itself kept its state).
        monkeypatch.undo()
        assert "awgn" in component_names("channel")
