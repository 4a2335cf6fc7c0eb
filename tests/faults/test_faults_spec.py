"""``faults:`` spec section and the ``--faults`` CLI parser.

Covers FaultsSpec validation and plan resolution, the spec-tree wiring
(round trip, unknown keys, kind gating) and the fingerprint contract:
a disabled faults section never moves a digest; an enabled one always
does.
"""

import pytest

from repro.api import ExperimentSpec, FaultsSpec
from repro.cli import _parse_faults, main
from repro.errors import ReproError, SpecError


class TestFaultsSpec:
    def test_defaults_are_disabled(self):
        spec = FaultsSpec()
        assert not spec.enabled
        spec.validate()

    def test_any_window_count_enables(self):
        for field in ("stragglers", "slowdowns", "brownouts",
                      "blackouts", "crash_windows"):
            assert FaultsSpec(**{field: 1}).enabled

    @pytest.mark.parametrize("kwargs", [
        dict(stragglers=-1),
        dict(slowdowns=1.5),
        dict(severity=0.0),
        dict(severity=1.5),
        dict(horizon=0.0),
        dict(checkpoint_epochs=-1),
        dict(shed_slo="yes"),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(SpecError):
            FaultsSpec(**kwargs).validate()

    def test_to_plan_disabled_is_none(self):
        assert FaultsSpec().to_plan(seed=1) is None
        assert FaultsSpec(severity=0.9, horizon=10.0).to_plan(seed=1) \
            is None

    def test_to_plan_draws_the_seeded_plan(self):
        spec = FaultsSpec(stragglers=2, brownouts=1, blackouts=1,
                          horizon=5000.0, severity=0.7)
        plan = spec.to_plan(seed=4, cores=8)
        assert len(plan.stragglers) == 2
        assert len(plan.brownouts) == 2      # blackouts ride flagged
        assert plan.has_blackout
        assert plan == spec.to_plan(seed=4, cores=8)
        assert plan != spec.to_plan(seed=5, cores=8)


class TestSpecTree:
    def test_round_trip_preserves_the_section(self):
        spec = ExperimentSpec.from_dict({
            "kind": "control",
            "faults": {"stragglers": 1, "blackouts": 1,
                       "severity": 0.6, "horizon": 9000.0,
                       "checkpoint_epochs": 2, "shed_slo": True},
        })
        assert spec.faults == FaultsSpec(
            stragglers=1, blackouts=1, severity=0.6, horizon=9000.0,
            checkpoint_epochs=2, shed_slo=True)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_faults_key_rejected(self):
        with pytest.raises(SpecError, match="bogus"):
            ExperimentSpec.from_dict({"kind": "control",
                                      "faults": {"bogus": 1}})

    def test_faults_only_on_simulated_service_kinds(self):
        with pytest.raises(SpecError, match="serve/control/stream"):
            ExperimentSpec(kind="sweep",
                           faults=FaultsSpec(stragglers=1)).validate()
        ExperimentSpec(kind="stream",
                       faults=FaultsSpec(stragglers=1)).validate()

    def test_fail_stop_shapes_need_the_control_plane(self):
        for kwargs in (dict(blackouts=1), dict(crash_windows=1)):
            with pytest.raises(SpecError, match="retry path"):
                ExperimentSpec(kind="serve",
                               faults=FaultsSpec(**kwargs)).validate()
            ExperimentSpec(kind="control",
                           faults=FaultsSpec(**kwargs)).validate()

    def test_recovery_knobs_need_the_control_plane(self):
        for kwargs in (dict(checkpoint_epochs=2), dict(shed_slo=True)):
            with pytest.raises(SpecError, match="control-plane knobs"):
                ExperimentSpec(kind="stream",
                               faults=FaultsSpec(**kwargs)).validate()


class TestFingerprint:
    def test_disabled_section_never_moves_the_digest(self):
        base = ExperimentSpec(kind="control").fingerprint()
        tuned = ExperimentSpec(
            kind="control",
            faults=FaultsSpec(severity=0.9, horizon=50.0)).fingerprint()
        assert tuned == base

    def test_enabled_section_always_moves_the_digest(self):
        base = ExperimentSpec(kind="control").fingerprint()
        armed = ExperimentSpec(
            kind="control",
            faults=FaultsSpec(stragglers=1)).fingerprint()
        heavier = ExperimentSpec(
            kind="control",
            faults=FaultsSpec(stragglers=2)).fingerprint()
        assert len({base, armed, heavier}) == 3


class TestCliParser:
    def test_none_and_empty_disable(self):
        assert _parse_faults(None) == FaultsSpec()
        assert _parse_faults("") == FaultsSpec()

    def test_full_spec_with_dashed_keys(self):
        spec = _parse_faults("stragglers=2,slowdowns=1,brownouts=1,"
                             "blackouts=1,crash-windows=1,severity=0.6,"
                             "horizon=9000,checkpoint-epochs=2,"
                             "shed-slo=true")
        assert spec == FaultsSpec(stragglers=2, slowdowns=1, brownouts=1,
                                  blackouts=1, crash_windows=1,
                                  severity=0.6, horizon=9000.0,
                                  checkpoint_epochs=2, shed_slo=True)

    def test_underscored_keys_and_whitespace_accepted(self):
        assert _parse_faults(" crash_windows = 1 , shed_slo = on ") == \
            FaultsSpec(crash_windows=1, shed_slo=True)

    def test_falsy_shed_slo_strings(self):
        assert _parse_faults("shed-slo=0").shed_slo is False
        assert _parse_faults("shed-slo=off").shed_slo is False

    @pytest.mark.parametrize("word,expected", [
        ("TRUE", True), ("Yes", True), ("ON", True), ("1", True),
        ("False", False), ("NO", False), ("Off", False), ("0", False),
    ])
    def test_shed_slo_spellings_are_case_insensitive(self, word,
                                                     expected):
        assert _parse_faults(f"shed-slo={word}").shed_slo is expected

    @pytest.mark.parametrize("word", ["ture", "flase", "2", "y", "",
                                      "enabled"])
    def test_misspelt_shed_slo_rejected(self, word):
        with pytest.raises(ReproError, match="shed-slo"):
            _parse_faults(f"shed-slo={word}")

    def test_misspelt_shed_slo_exits_2(self, capsys):
        assert main(["ctl", "--faults", "shed-slo=ture"]) == 2
        assert "shed-slo" in capsys.readouterr().err

    def test_unknown_key_rejected_with_the_valid_list(self):
        with pytest.raises(ReproError, match="crash-windows"):
            _parse_faults("stragglers=1,bogus=2")

    def test_missing_separator_rejected(self):
        with pytest.raises(ReproError, match="key=value"):
            _parse_faults("stragglers")

    def test_bad_value_rejected(self):
        with pytest.raises(ReproError, match="stragglers"):
            _parse_faults("stragglers=two")

    @pytest.mark.parametrize("text", [
        "stragglers=1,stragglers=2",
        "crash-windows=1,crash_windows=1",
        "shed-slo=on,severity=2,shed_slo=off",
    ])
    def test_repeated_key_rejected(self, text):
        with pytest.raises(ReproError, match="duplicate"):
            _parse_faults(text)

    @pytest.mark.parametrize("command", ["ctl", "stream"])
    def test_repeated_key_exits_2(self, command, capsys):
        assert main([command, "--faults", "stragglers=1,stragglers=2"]) == 2
        assert "duplicate --faults key 'stragglers'" in \
            capsys.readouterr().err
