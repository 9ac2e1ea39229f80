import json
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import build_r1_corpus, make_legacy_metadata_block
from oracles import r1_candidate_oracle
from srcverify._keccak import keccak256
from srcverify.attacklab import (
    EXPECTED_MATRIX,
    GUARDS,
    SCENARIOS,
    ExploitOutcome,
    assert_matrix,
    filter_r1_candidates,
    flip_field,
    run_poc,
    scan_config,
    export_scenario_corpus,
)
from srcverify.chain import MockChain
from srcverify.errors import (
    MatrixMismatchError,
    SetupFailureError,
    UnknownScenarioError,
)
from srcverify.linker import PlaceholderMode
from srcverify.matching import MetadataLabeler
from srcverify.service import (
    HARDENED,
    NAIVE_BLOCKSCOUT_LIKE,
    NAIVE_ETHERSCAN_LIKE,
    NAIVE_SOURCIFY_LIKE,
    PROFILES,
)
from srcverify.simulator import ImmutableStrategy

# each config field's scenario, and each scenario's demonstrating field
TOGGLE_RISKS = {name: guard.scenario for name, guard in GUARDS.items()}
CANONICAL_TOGGLE = {guard.scenario: name for name, guard in GUARDS.items()
                    if guard.canonical}


class TestScenarioRegistry:
    def test_eight_scenarios(self):
        assert sorted(SCENARIOS) == [f"R{i}" for i in range(1, 9)]

    def test_consequences_partition(self):
        for rid in ("R1", "R2", "R3"):
            assert SCENARIOS[rid].consequence == "competitive-verification"
        for rid in ("R4", "R5", "R6", "R7", "R8"):
            assert SCENARIOS[rid].consequence == "source-scam"

    def test_violated_promises(self):
        promises = {s.violates for s in SCENARIOS.values()}
        assert promises == {"only-genuine-sources-verify",
                            "display-matches-live-code",
                            "disclosure-unambiguous"}
        assert SCENARIOS["R8"].violates == "disclosure-unambiguous"

    def test_describe_is_json_ready(self):
        for scenario in SCENARIOS.values():
            desc = scenario.describe()
            assert json.loads(json.dumps(desc)) == desc
            assert desc["id"] == scenario.id
            assert desc["setup"] and desc["attack"] and desc["successPredicate"]


class TestRunPoc:
    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            run_poc("R9", HARDENED)

    def test_lowercase_id_and_profile_name(self):
        outcome = run_poc("r3", "hardened")
        assert outcome.scenario_id == "R3"
        assert outcome.profile == "Hardened"
        assert not outcome.exploited

    def test_outcome_shape(self):
        outcome = run_poc("R5", NAIVE_ETHERSCAN_LIKE)
        assert isinstance(outcome, ExploitOutcome)
        assert outcome.result == "exploited"
        assert outcome.guards == ()
        assert outcome.evidence

    def test_repeat_runs_are_isolated(self):
        # R7 mutates its store; a second run must start clean
        first = run_poc("R7", NAIVE_SOURCIFY_LIKE)
        second = run_poc("R7", NAIVE_SOURCIFY_LIKE)
        assert first.exploited and second.exploited

    def test_export_writes_fixture_files(self, tmp_path):
        run_poc("R2", HARDENED, export_dir=tmp_path)
        assert (tmp_path / "chain.json").is_file()
        requests = list(tmp_path.glob("request-*.json"))
        assert requests
        payload = json.loads(requests[0].read_text())
        assert payload["address"].startswith("0x")
        assert payload["sources"]

    def test_setup_error_surfaces_as_setup_failure(self, monkeypatch):
        # a selfdestruct that never lands makes R4's CREATE2 revival hit
        # live code, so the chain raises AddressOccupiedError during set-up
        monkeypatch.setattr(MockChain, "mock_selfdestruct",
                            lambda self, address: None)
        with pytest.raises(SetupFailureError,
                           match="R4 against Hardened leaked AddressOccupiedError"):
            run_poc("R4", HARDENED)


class TestMatrix:
    def test_all_cells_match_and_finish_quickly(self):
        started = time.monotonic()
        outcomes = assert_matrix()
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        assert len(outcomes) == len(EXPECTED_MATRIX) == 32
        for cell, outcome in outcomes.items():
            expected_result, guard = EXPECTED_MATRIX[cell]
            assert outcome.result == expected_result
            if guard is not None:
                assert guard in outcome.guards

    def test_hardened_blocks_every_scenario(self):
        for rid in SCENARIOS:
            assert EXPECTED_MATRIX[(rid, "Hardened")][0] == "blocked"

    def test_hardened_guard_details(self):
        assert "NoDonor" in run_poc("R1", HARDENED).guards
        r2 = run_poc("R2", HARDENED)
        assert "ForeignReturnData" in r2.guards
        r3 = run_poc("R3", HARDENED)
        assert "EmptyLocalBytecode" in r3.guards
        assert "StaleRecord" in run_poc("R4", HARDENED).guards
        assert "unverified-library" in run_poc("R5", HARDENED).guards
        assert "NoMatch" in run_poc("R6", HARDENED).guards
        r7 = run_poc("R7", HARDENED)
        assert "PathEscape" in r7.guards
        assert "store unchanged: True" in r7.evidence
        assert "FullyQualifiedDisclosure" in run_poc("R8", HARDENED).guards

    def test_mismatch_reporting(self, monkeypatch):
        import srcverify.attacklab as lab
        broken = dict(EXPECTED_MATRIX)
        broken[("R4", "Hardened")] = ("exploited", None)
        monkeypatch.setattr(lab, "EXPECTED_MATRIX", broken)
        with pytest.raises(MatrixMismatchError, match="R4 x Hardened"):
            lab.assert_matrix()


class TestToggles:
    @pytest.mark.parametrize("rid", sorted(CANONICAL_TOGGLE))
    def test_canonical_toggle_reopens_its_class(self, rid):
        flipped = flip_field(HARDENED, CANONICAL_TOGGLE[rid])
        assert run_poc(rid, flipped).exploited

    def test_flip_covers_every_config_field(self):
        from dataclasses import fields
        from srcverify.service import VerifierConfig
        tunable = {f.name for f in fields(VerifierConfig)} - {"name"}
        assert tunable == set(TOGGLE_RISKS)

    def test_each_flip_changes_only_its_mapped_cell(self):
        baseline = {rid: run_poc(rid, HARDENED).exploited for rid in SCENARIOS}
        assert not any(baseline.values())
        for field_name, mapped in TOGGLE_RISKS.items():
            flipped = flip_field(HARDENED, field_name)
            changed = {rid for rid in SCENARIOS
                       if run_poc(rid, flipped).exploited != baseline[rid]}
            allowed = set() if mapped is None else {mapped}
            assert changed <= allowed, (
                f"flipping {field_name} changed {sorted(changed)}, "
                f"allowed {sorted(allowed)}")

    def test_flip_changes_only_its_field(self):
        for config in PROFILES.values():
            for field_name in GUARDS:
                flipped = flip_field(config, field_name)
                restored = replace(
                    flipped, **{field_name: getattr(config, field_name)})
                assert restored == config, (config.name, field_name)

    def test_every_guard_field_varies_across_profiles(self):
        for field_name in GUARDS:
            values = {getattr(config, field_name) for config in PROFILES.values()}
            assert len(values) >= 2, field_name

    def test_flip_is_an_involution(self):
        for field_name in TOGGLE_RISKS:
            twice = flip_field(flip_field(HARDENED, field_name), field_name)
            assert twice == HARDENED, field_name

    def test_flip_moves_off_hardened(self):
        for field_name in TOGGLE_RISKS:
            assert flip_field(HARDENED, field_name) != HARDENED, field_name

    def test_flip_rejects_unknown_enum_field(self):
        with pytest.raises(ValueError):
            flip_field(HARDENED, "policy_unknown")

    def test_flip_enum_fields_toggle_to_naive_values(self):
        assert flip_field(HARDENED, "placeholder_mode").placeholder_mode \
            is PlaceholderMode.REGEX_NAIVE
        assert flip_field(HARDENED, "metadata_labeler").metadata_labeler \
            is MetadataLabeler.DIFFERENTIAL
        back = flip_field(NAIVE_BLOCKSCOUT_LIKE, "metadata_labeler")
        assert back.metadata_labeler is HARDENED.metadata_labeler


class TestScanConfig:
    def test_risk_sets_per_profile(self):
        expected = {
            "Hardened": {"R1"},
            "NaiveEtherscanLike": {"R1", "R4", "R5", "R8"},
            "NaiveSourcifyLike": {"R1", "R2", "R3", "R4", "R5", "R6", "R7"},
            "NaiveBlockscoutLike": {"R1", "R2", "R3", "R4", "R5", "R6",
                                    "R7", "R8"},
        }
        for name, config in PROFILES.items():
            risks = {rid for _, rid, _ in scan_config(config)}
            assert risks == expected[name], name

    def test_rows_per_profile(self):
        rows = {
            "Hardened": [],
            "NaiveEtherscanLike": [
                ("inherit_flagged_donors", "R1"),
                ("recheck_code_hash_on_read", "R4"),
                ("require_verified_libraries", "R5"),
                ("disclose_full_paths", "R8")],
            "NaiveSourcifyLike": [
                ("inherit_flagged_donors", "R1"),
                ("immutable_strategy", "R2"),
                ("strict_creation_prefix", "R3"),
                ("recheck_code_hash_on_read", "R4"),
                ("require_verified_libraries", "R5"),
                ("placeholder_mode", "R6"),
                ("allow_parent_path_refs", "R7")],
            "NaiveBlockscoutLike": [
                ("inherit_flagged_donors", "R1"),
                ("accept_imported_records", "R2"),
                ("strict_creation_prefix", "R3"),
                ("recheck_code_hash_on_read", "R4"),
                ("require_verified_libraries", "R5"),
                ("requirement", "R5"),
                ("metadata_labeler", "R6"),
                ("allow_parent_path_refs", "R7"),
                ("disclose_full_paths", "R8")],
        }
        for name, config in PROFILES.items():
            assert [(f, r) for f, r, _ in scan_config(config)] == [
                ("partial-matching", "R1"), *rows[name]], name

    def test_only_requirement_is_required(self):
        assert len(GUARDS) == 12
        assert {other for guard in GUARDS.values()
                for other in guard.requires} == {"requirement"}

    def test_hardened_reports_only_the_residual(self):
        findings = scan_config(HARDENED)
        assert len(findings) == 1
        flag, rid, note = findings[0]
        assert (flag, rid) == ("partial-matching", "R1")
        assert "partial" in note.lower()

    def test_single_toggle_is_reported_alone(self):
        opened = replace(HARDENED, allow_parent_path_refs=True)
        findings = scan_config(opened)
        assert [(f, r) for f, r, _ in findings] == [
            ("partial-matching", "R1"), ("allow_parent_path_refs", "R7")]

    def test_each_flip_is_linted_as_its_risk(self):
        for field_name, risk in TOGGLE_RISKS.items():
            findings = [(flag, rid) for flag, rid, _ in
                        scan_config(flip_field(HARDENED, field_name))
                        if flag != "partial-matching"]
            assert {rid for _, rid in findings} == (
                set() if risk is None else {risk}), field_name
            assert all(flag == field_name for flag, _ in findings), field_name

    def test_flag_names_are_real_fields(self):
        from dataclasses import fields
        from srcverify.service import VerifierConfig
        known = {f.name for f in fields(VerifierConfig)} | {"partial-matching"}
        for config in PROFILES.values():
            for flag, _, note in scan_config(config):
                assert flag in known
                assert note

    def test_scan_agrees_with_expected_matrix(self):
        # a profile's scan findings must cover every cell it gets exploited on
        for name, config in PROFILES.items():
            risks = {rid for _, rid, _ in scan_config(config)}
            for rid in SCENARIOS:
                if EXPECTED_MATRIX[(rid, name)][0] == "exploited":
                    assert rid in risks, (name, rid)

    @pytest.mark.parametrize("config", [
        replace(NAIVE_ETHERSCAN_LIKE, placeholder_mode=PlaceholderMode.REGEX_NAIVE),
        replace(NAIVE_ETHERSCAN_LIKE,
                immutable_strategy=ImmutableStrategy.SIM_TRUSTED),
        replace(NAIVE_BLOCKSCOUT_LIKE,
                placeholder_mode=PlaceholderMode.REGEX_NAIVE,
                metadata_labeler=MetadataLabeler.PATTERN_SCAN),
    ], ids=["etherscan-regex", "etherscan-trusted-sim", "blockscout-regex"])
    def test_scan_agrees_with_lab_beyond_hardened(self, config):
        # each probe holds a naive guard whose attack the profile's
        # requirement or labeler still blocks
        exploited = {rid for rid in SCENARIOS if run_poc(rid, config).exploited}
        reported = {rid for flag, rid, _ in scan_config(config)
                    if flag != "partial-matching"}
        assert exploited == reported

    @settings(max_examples=100, deadline=None)
    @example(frozenset({"immutable_strategy", "requirement"}))
    @given(st.frozensets(st.sampled_from(sorted(TOGGLE_RISKS))))
    def test_scan_agrees_with_lab_on_flip_subsets(self, flips):
        config = HARDENED
        for field_name in sorted(flips):
            config = flip_field(config, field_name)
        exploited = {rid for rid in SCENARIOS if run_poc(rid, config).exploited}
        reported = {rid for flag, rid, _ in scan_config(config)
                    if flag != "partial-matching"}
        assert exploited == reported, sorted(flips)


class TestCandidateFilter:
    BLOCK = make_legacy_metadata_block(keccak256(b"tail"))

    def keep(self, body: bytes) -> bool:
        return bool(filter_r1_candidates([("0xa", body + self.BLOCK)]))

    def test_plain_body_kept(self):
        assert self.keep(bytes.fromhex("6001600055"))

    def test_empty_body_kept(self):
        assert self.keep(b"")

    def test_push1_zero_kept(self):
        assert self.keep(bytes.fromhex("600000"))

    def test_push2_leading_zero_excluded(self):
        assert not self.keep(bytes.fromhex("61000100"))

    def test_truncated_final_push_excluded(self):
        assert not self.keep(bytes.fromhex("600161"))

    def test_second_boundary_excluded(self):
        assert not self.keep(bytes.fromhex("6001") + self.BLOCK
                             + bytes.fromhex("00"))

    def test_marker_inside_immediate_kept(self):
        assert self.keep(b"\x7f" + self.BLOCK[:32] + b"\x00")

    def test_short_code_excluded(self):
        assert filter_r1_candidates([("0xa", self.BLOCK[:-1])]) == []

    def test_wrong_suffix_excluded(self):
        code = bytes.fromhex("6001") + self.BLOCK[:-2] + b"\x00\x28"
        assert filter_r1_candidates([("0xa", code)]) == []

    def test_planted_corpus_exact_set(self):
        corpus, expected = build_r1_corpus(seed=99, size=400, planted=5)
        kept = filter_r1_candidates(corpus)
        assert [address for address, _ in kept] == expected

    def test_full_agreement_with_oracle(self):
        corpus, _ = build_r1_corpus(seed=7, size=600, planted=6)
        kept = {address for address, _ in filter_r1_candidates(corpus)}
        for address, code in corpus:
            assert (address in kept) == r1_candidate_oracle(code), address


class TestCorpusExport:
    def test_one_folder_per_scenario(self, tmp_path):
        written = export_scenario_corpus(tmp_path)
        assert sorted(p.name for p in written) == [
            f"r{i}" for i in range(1, 9)]
        for directory in written:
            manifest = json.loads((directory / "manifest.json").read_text())
            assert manifest["id"].lower() == directory.name
            assert set(manifest["expected"]) == set(PROFILES)
            assert (directory / "chain.json").is_file()
            assert list(directory.glob("request-*.json"))

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_folder_holds_chain_and_requests(self, tmp_path, profile):
        for directory in export_scenario_corpus(tmp_path, profile=profile):
            assert (directory / "chain.json").is_file(), directory.name
            assert list(directory.glob("request-*.json")), directory.name

    def test_manifest_observed_outcome_matches_expectation(self, tmp_path):
        export_scenario_corpus(tmp_path, profile=NAIVE_SOURCIFY_LIKE)
        manifest = json.loads(
            (tmp_path / "r6" / "manifest.json").read_text())
        assert manifest["observed"]["result"] == "exploited"
        assert manifest["expected"]["NaiveSourcifyLike"]["result"] == "exploited"
