import json
import sys
from pathlib import Path

import pytest

from srcverify._keccak import keccak256
from srcverify.chain import MockChain
from srcverify.cli import build_parser, main
from srcverify.compiler import (
    CompileSettings,
    VerificationRequest,
    make_creation_code,
)
from srcverify.metadata import make_metadata_block

BODY = bytes.fromhex("6080604052600a600055")
RUNTIME = BODY + make_metadata_block(keccak256(b"cli fixture"))
CREATION = make_creation_code(RUNTIME)


@pytest.fixture
def world(tmp_path):
    """Chain fixture, request file, echo compiler, store dir."""
    chain = MockChain()
    address = chain.mock_deploy(RUNTIME, CREATION)
    fixture = tmp_path / "chain.json"
    chain.save_fixture(fixture)

    request = VerificationRequest(
        sources={"contracts/a.sol": "contract A { uint256 v; }\n"},
        settings=CompileSettings(target="contracts/a.sol:A"),
        address=address)
    request_file = tmp_path / "request.json"
    request_file.write_text(request.to_json())

    script = tmp_path / "fake_solc.py"
    script.write_text(
        "import json, sys\n"
        "sys.stdin.read()\n"
        "print(json.dumps({\n"
        f"    'creation': '0x{CREATION.hex()}',\n"
        f"    'runtime': '0x{RUNTIME.hex()}',\n"
        "}).replace(chr(39), chr(34)))\n")
    return {
        "chain": str(fixture),
        "request": str(request_file),
        "store": str(tmp_path / "records"),
        "compiler": f"{sys.executable} {script}",
        "address": "0x" + address.hex(),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        assert set(subparsers.choices) == {
            "verify", "query", "strip-metadata", "simulate", "diff",
            "poc", "scan-config", "filter-r1"}


class TestVerifyAndQuery:
    def test_verify_exact(self, world, capsys):
        code, out, _ = run(capsys, "verify", world["request"],
                           "--profile", "hardened",
                           "--chain", world["chain"],
                           "--store", world["store"],
                           "--compiler", world["compiler"])
        assert code == 0
        payload = json.loads(out)
        assert payload["grade"] == "exact"
        assert payload["address"] == world["address"]
        assert payload["target"] == "contracts/a.sol:A"

    def test_verify_without_compiler_fails(self, world, capsys):
        code, _, err = run(capsys, "verify", world["request"],
                           "--chain", world["chain"],
                           "--store", world["store"])
        assert code == 1
        assert "no compiler configured" in err

    @pytest.mark.parametrize("runs", [1.5, True, "200"])
    def test_verify_refuses_non_integer_optimizer_runs(self, world, capsys,
                                                       runs):
        path = Path(world["request"])
        request = json.loads(path.read_text())
        request["settings"]["optimizerRuns"] = runs
        path.write_text(json.dumps(request))
        code, out, err = run(capsys, "verify", world["request"],
                             "--chain", world["chain"],
                             "--store", world["store"],
                             "--compiler", world["compiler"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: optimizerRuns must be an integer")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fixture", [
        [1, 2],
        {"0x11": 5},
        {"0x" + "11" * 20: {"runtimeCode": "0x", "destroyed": False,
                            "creationTx": {"hash": "0x" + "22" * 32,
                                           "deployer": "0x" + "33" * 20}}},
    ], ids=["list", "entry-not-object", "tx-without-input"])
    def test_verify_refuses_malformed_chain_fixture(self, world, capsys,
                                                    fixture):
        Path(world["chain"]).write_text(json.dumps(fixture))
        code, out, err = run(capsys, "verify", world["request"],
                             "--chain", world["chain"],
                             "--store", world["store"],
                             "--compiler", world["compiler"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,option", [
        ("verify", "request"), ("query", "chain")])
    def test_refuses_json_nested_past_the_recursion_limit(
            self, world, capsys, command, option):
        Path(world[option]).write_text("[" * 100_000 + "]" * 100_000)
        argv = [world["request"] if command == "verify" else world["address"],
                "--chain", world["chain"], "--store", world["store"]]
        code, out, err = run(capsys, command, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_query_round_trip(self, world, capsys):
        run(capsys, "verify", world["request"], "--chain", world["chain"],
            "--store", world["store"], "--compiler", world["compiler"])
        code, out, _ = run(capsys, "query", world["address"],
                           "--chain", world["chain"],
                           "--store", world["store"])
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == "contracts/a.sol:A"
        assert payload["sources"] == ["contracts/a.sol"]
        assert payload["freshness"] == "unchanged"

    def test_query_bare_name_on_naive_profile(self, world, capsys):
        run(capsys, "verify", world["request"], "--chain", world["chain"],
            "--store", world["store"], "--compiler", world["compiler"])
        code, out, _ = run(capsys, "query", world["address"],
                           "--profile", "naive-etherscan-like",
                           "--chain", world["chain"],
                           "--store", world["store"])
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == "A"
        assert payload["freshness"] is None

    def test_strict_query_refuses_vanished_contract(self, world, capsys):
        run(capsys, "verify", world["request"], "--chain", world["chain"],
            "--store", world["store"], "--compiler", world["compiler"])
        code, _, err = run(capsys, "query", world["address"],
                           "--store", world["store"])
        assert code == 1
        assert "never-seen" in err
        code, out, _ = run(capsys, "query", world["address"], "--lenient",
                           "--store", world["store"])
        assert code == 0
        assert json.loads(out)["freshness"] == "never-seen"

    def test_query_unknown_address(self, world, capsys):
        code, _, err = run(capsys, "query", "0x" + "99" * 20,
                           "--store", world["store"])
        assert code == 1
        assert "error" in err


class TestByteTools:
    def test_strip_metadata(self, tmp_path, capsys):
        hexfile = tmp_path / "code.hex"
        hexfile.write_text(RUNTIME.hex())
        code, out, _ = run(capsys, "strip-metadata", str(hexfile))
        assert code == 0
        assert out.strip() == "0x" + BODY.hex()

    def test_strip_metadata_with_spans(self, tmp_path, capsys):
        hexfile = tmp_path / "code.hex"
        hexfile.write_text(RUNTIME.hex())
        code, out, _ = run(capsys, "strip-metadata", str(hexfile), "--spans")
        payload = json.loads(out)
        assert payload["stripped"] == "0x" + BODY.hex()
        assert payload["spans"] == [
            {"start": len(BODY), "end": len(RUNTIME), "kind": "trailing"}]

    def test_simulate_returns_runtime(self, capsys):
        code, out, _ = run(capsys, "simulate", CREATION.hex())
        assert code == 0
        assert out.strip() == "0x" + RUNTIME.hex()

    def test_simulate_revert_fails(self, capsys):
        code, _, err = run(capsys, "simulate", "60006000fd")
        assert code == 1
        assert "revert" in err

    def test_diff_metadata_only(self, capsys):
        other = BODY + make_metadata_block(keccak256(b"other build"))
        code, out, _ = run(capsys, "diff", RUNTIME.hex(), other.hex())
        payload = json.loads(out)
        assert code == 0
        assert not payload["equal"]
        assert payload["equalAfterStrip"]
        assert payload["firstMismatch"] >= len(BODY)
        assert payload["spansA"] == payload["spansB"] \
            == [[len(BODY), len(RUNTIME)]]

    def test_diff_moved_block_is_not_equal_after_strip(self, capsys):
        # each side stripped at its own spans would leave BODY on both
        block = RUNTIME[len(BODY):]
        _, out, _ = run(capsys, "diff", RUNTIME.hex(), (block + BODY).hex())
        payload = json.loads(out)
        assert payload["spansA"] == [[len(BODY), len(RUNTIME)]]
        assert payload["spansB"] == [[0, len(block)]]
        assert not payload["equalAfterStrip"]

    def test_diff_length_difference(self, capsys):
        _, out, _ = run(capsys, "diff", "6080", "608060")
        payload = json.loads(out)
        assert payload["firstMismatch"] == 2
        assert not payload["equalAfterStrip"]


class TestAttackLabCommands:
    def test_poc_blocked_cell(self, capsys):
        code, out, _ = run(capsys, "poc", "R7", "--profile", "hardened")
        payload = json.loads(out)
        assert code == 0
        assert payload["result"] == "blocked"
        assert "PathEscape" in payload["guards"]

    def test_poc_exploited_cell(self, capsys):
        code, out, _ = run(capsys, "poc", "r6",
                           "--profile", "naive-blockscout-like")
        payload = json.loads(out)
        assert code == 0
        assert payload["result"] == "exploited"
        assert payload["consequence"] == "source-scam"

    def test_poc_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "poc", "R99")
        assert code == 1
        assert "unknown scenario" in err

    def test_poc_all_exports_corpus(self, tmp_path, capsys):
        code, out, _ = run(capsys, "poc", "all", "--export", str(tmp_path))
        assert code == 0
        listed = out.strip().splitlines()
        assert len(listed) == 8
        assert (tmp_path / "r4" / "manifest.json").is_file()

    def test_poc_all_without_export(self, capsys):
        code, _, err = run(capsys, "poc", "all")
        assert code == 2
        assert "--export" in err

    def test_scan_config_hardened(self, capsys):
        code, out, _ = run(capsys, "scan-config", "hardened")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("R1  partial-matching:")

    def test_scan_config_naive(self, capsys):
        code, out, _ = run(capsys, "scan-config", "naive-blockscout-like")
        assert code == 0
        risks = {line.split()[0] for line in out.strip().splitlines()}
        assert risks == {f"R{i}" for i in range(1, 9)}

    def test_scan_config_unknown_profile(self, capsys):
        code, _, err = run(capsys, "scan-config", "nope")
        assert code == 1
        assert "unknown profile" in err

    def test_filter_r1(self, tmp_path, capsys):
        from corpus import make_legacy_metadata_block
        block = make_legacy_metadata_block(keccak256(b"x"))
        (tmp_path / "0xaaa.hex").write_text((b"\x60\x01" + block).hex())
        (tmp_path / "0xbbb.hex").write_text(
            (b"\x61\x00\x01" + block).hex())
        code, out, _ = run(capsys, "filter-r1", str(tmp_path))
        assert code == 0
        assert out.strip() == "0xaaa"

    def test_filter_r1_empty_dir(self, tmp_path, capsys):
        code, _, err = run(capsys, "filter-r1", str(tmp_path))
        assert code == 1
        assert "no *.hex files" in err


def artifact_compiler(tmp_path, artifact):
    """A stand-in for solc that prints the given artifact, as JSON."""
    script = tmp_path / "artifact_solc.py"
    script.write_text("import sys\nsys.stdin.read()\n"
                      f"print({json.dumps(json.dumps(artifact))})\n")
    return f"{sys.executable} {script}"


ARTIFACT = {"creation": "0x" + CREATION.hex(), "runtime": "0x" + RUNTIME.hex()}


class TestExternalCompilerArtifact:
    def test_checked_artifact_verifies(self, world, tmp_path, capsys):
        artifact = dict(
            ARTIFACT, constructorParams=[],
            immutableReferences=[{"offset": 2, "length": 1, "name": "v"}])
        code, out, _ = run(capsys, "verify", world["request"],
                           "--chain", world["chain"],
                           "--store", world["store"], "--compiler",
                           artifact_compiler(tmp_path, artifact))
        assert code == 0
        assert json.loads(out)["grade"] == "exact"

    @pytest.mark.parametrize("artifact", [
        [ARTIFACT["creation"], ARTIFACT["runtime"]],
        dict(ARTIFACT, runtime=5),
        dict(ARTIFACT, immutableReferences=[{"offset": 0, "length": "2"}]),
        dict(ARTIFACT, immutableReferences=[{"offset": 0, "length": True}]),
        dict(ARTIFACT, immutableReferences=[{"offset": -4, "length": 2}]),
        dict(ARTIFACT, immutableReferences=[{"offset": 100, "length": 2}]),
        dict(ARTIFACT, immutableReferences=[{"offset": 0, "length": 2,
                                             "name": 7}]),
        dict(ARTIFACT, immutableReferences={"offset": 0, "length": 2}),
        dict(ARTIFACT, linkReferences=[{"offset": len(RUNTIME) - 19,
                                        "libName": "L"}]),
        dict(ARTIFACT, linkReferences=[{"offset": 0, "libName": 5}]),
        dict(ARTIFACT, constructorParams=[5]),
        dict(ARTIFACT, constructorParams="uint256"),
        dict(ARTIFACT, immutableReferences=[{"offset": 0, "length": 4},
                                            {"offset": 2, "length": 4}]),
        dict(ARTIFACT, linkReferences=[{"offset": 10, "libName": "M"},
                                       {"offset": 0, "libName": "L"}]),
        dict(ARTIFACT, runtime="0xzz"),
        dict(ARTIFACT, creation="0x123"),
        dict(ARTIFACT, usesInlineAssembly="false"),
        dict(ARTIFACT, usesInlineAssembly=0),
        dict(ARTIFACT, usesInlineAssembly=""),
        dict(ARTIFACT, usesInlineAssembly=None),
        dict(ARTIFACT, linkReferences=[{"offset": 0, "libName": "L",
                                        "form": "Legacy"}]),
        dict(ARTIFACT, linkReferences=[{"offset": 0, "libName": "L",
                                        "form": None}]),
    ], ids=["list", "runtime-int", "length-str", "length-bool",
            "offset-negative", "offset-past-runtime", "name-int",
            "references-object", "link-past-runtime", "lib-name-int",
            "params-int", "params-str", "immutable-overlap", "link-overlap",
            "runtime-nonhex", "creation-odd", "assembly-str-false",
            "assembly-zero", "assembly-empty", "assembly-null",
            "form-unknown", "form-null"])
    def test_malformed_artifact_is_refused(self, world, tmp_path, capsys,
                                           artifact):
        code, out, err = run(capsys, "verify", world["request"],
                             "--chain", world["chain"],
                             "--store", world["store"], "--compiler",
                             artifact_compiler(tmp_path, artifact))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "unusable compiler output" in err
        assert not Path(world["store"], "exact").exists()

    def test_output_that_is_not_text_is_refused(self, world, tmp_path,
                                                capsys):
        script = tmp_path / "bytes_solc.py"
        script.write_text("import sys\nsys.stdin.read()\n"
                          "sys.stdout.buffer.write(b'{\"creation\": \"\\xff\"}')\n")
        code, out, err = run(capsys, "verify", world["request"],
                             "--chain", world["chain"],
                             "--store", world["store"],
                             "--compiler", f"{sys.executable} {script}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: unusable compiler output")


class TestDamagedStore:
    def test_query_of_a_manifest_with_null_settings_is_an_error(
            self, world, capsys):
        run(capsys, "verify", world["request"], "--chain", world["chain"],
            "--store", world["store"], "--compiler", world["compiler"])
        manifest = Path(world["store"], "exact", world["address"], "record")
        damaged = json.loads(manifest.read_text())
        damaged["settings"] = None
        manifest.write_text(json.dumps(damaged))
        code, out, err = run(capsys, "query", world["address"],
                             "--chain", world["chain"],
                             "--store", world["store"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: manifest of ")
