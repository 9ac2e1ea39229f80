"""Acceptance gate: one test per delivery criterion, one verdict line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
PASSED/FAILED lines; each test also prints a short evidence summary that
shows under -s or on failure.
"""

import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from corpus import build_r1_corpus
from oracles import create2_oracle, encode_arguments, keccak256_oracle, r1_candidate_oracle
from srcverify._keccak import keccak256
from srcverify.abi import parse_params
from srcverify.attacklab import EXPECTED_MATRIX, SCENARIOS, assert_matrix
from srcverify.chain import MockChain, RedeployStatus, create2_address
from srcverify.compiler import (
    CompilationOutput,
    CompileSettings,
    FixtureCompiler,
    VerificationRequest,
    make_creation_code,
)
from srcverify.errors import (
    EmptyLocalBytecodeError,
    ForeignReturnDataError,
    InvalidConstructorArgumentsError,
    PathEscapeError,
    ReplacementDeniedError,
    StaleRecordError,
)
from srcverify.linker import PlaceholderForm, PlaceholderMode, PlaceholderSpan, resolve
from srcverify.matching import Grade, match_creation
from srcverify.metadata import (
    differential_extract,
    make_metadata_block,
    scan_metadata,
    strip_spans,
)
from srcverify.service import (
    HARDENED,
    NAIVE_SOURCIFY_LIKE,
    PROFILES,
    VerifyService,
)
from srcverify.simulator import ImmutableRef, resolve_immutables_by_simulation
from srcverify.store import RecordStore

BODY = bytes.fromhex("6080604052600a600055")


def _world(config, root):
    compiler = FixtureCompiler()
    chain = MockChain()
    store = RecordStore(root / "records")
    return SimpleNamespace(service=VerifyService(config, compiler, chain, store),
                           compiler=compiler, chain=chain, store=store)


def test_criterion_1_exploitability_matrix_exact_cells():
    started = time.monotonic()
    outcomes = assert_matrix()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0

    exploited = {name: {rid for (rid, profile), o in outcomes.items()
                        if profile == name and o.exploited}
                 for name in PROFILES}
    assert exploited["NaiveSourcifyLike"] == {f"R{i}" for i in range(1, 8)}
    assert exploited["NaiveEtherscanLike"] == {"R1", "R4", "R5", "R8"}
    assert exploited["NaiveBlockscoutLike"] == {f"R{i}" for i in range(1, 9)}
    assert exploited["Hardened"] == set()
    for rid in SCENARIOS:
        _, guard = EXPECTED_MATRIX[(rid, "Hardened")]
        assert guard in outcomes[(rid, "Hardened")].guards
    print(f"criterion 1 PASS: 32/32 matrix cells exact in {elapsed:.2f}s")


def test_criterion_2_foreign_return_guard_and_benign_immutables():
    victim_runtime = BODY + make_metadata_block(keccak256(b"victim"))
    creation = make_creation_code(
        victim_runtime, extra=make_metadata_block(keccak256(b"wrapper")))
    claimed = bytes.fromhex("6001600101") + make_metadata_block(keccak256(b"claim"))

    returned = resolve_immutables_by_simulation(
        claimed, [], creation, trust_simulated_return=True)
    assert returned == victim_runtime  # byte-identical foreign bytes
    with pytest.raises(ForeignReturnDataError):
        resolve_immutables_by_simulation(claimed, [], creation)

    rng = random.Random(20260818)
    for case in range(50):
        regions = []
        cursor = 0
        for _ in range(rng.randint(1, 3)):
            offset = cursor + rng.randint(0, 10)
            length = rng.randint(1, 32)
            regions.append((offset, length))
            cursor = offset + length
        size = cursor + rng.randint(4, 40)
        filled = bytearray(rng.randbytes(size))
        template = bytearray(filled)
        refs = []
        for i, (offset, length) in enumerate(regions):
            template[offset:offset + length] = bytes(length)
            refs.append(ImmutableRef(offset, length, f"v{i}"))
        out = resolve_immutables_by_simulation(
            bytes(template), refs, make_creation_code(bytes(filled)))
        assert out == bytes(filled), case
        inside = {i for off, ln in regions for i in range(off, off + ln)}
        deviations = {i for i in range(size) if out[i] != template[i]}
        assert deviations <= inside, case
    print("criterion 2 PASS: foreign return trusted=identical/guarded=raise; "
          "50/50 benign fills deviate only inside immutable regions")


def test_criterion_3_prefix_guards_and_ctor_args_oracle():
    runtime = BODY + make_metadata_block(keccak256(b"pfx"))
    tx = make_creation_code(runtime)

    assert match_creation(b"", tx, None, strict=False).exact_eligible
    with pytest.raises(EmptyLocalBytecodeError):
        match_creation(b"", tx, None)
    assert match_creation(tx[:10], tx, None, strict=False).exact_eligible
    with pytest.raises(InvalidConstructorArgumentsError):
        match_creation(tx[:10], tx, None)

    pool = ["uint256", "int256", "address", "bool", "bytes4", "bytes32", "bytes8"]
    rng = random.Random(777)

    def sample(type_str):
        if type_str == "uint256":
            return rng.randrange(1 << 256)
        if type_str == "int256":
            return rng.randrange(-(1 << 255), 1 << 255)
        if type_str == "address":
            return rng.randbytes(20)
        if type_str == "bool":
            return rng.random() < 0.5
        return rng.randbytes(int(type_str[5:]))

    agreement = 0
    for case in range(200):
        local = rng.randbytes(rng.randint(8, 60))
        types = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        encoded = encode_arguments(types, [sample(t) for t in types])
        expect_valid = case % 2 == 0
        if expect_valid:
            blob = encoded
        elif encoded:
            blob = encoded[:-1] if rng.random() < 0.5 else encoded + b"\xff"
        else:
            blob = b"\xff" * 31  # not a word multiple
        params = parse_params(types)
        try:
            match_creation(local, local + blob, params)
            accepted = True
        except InvalidConstructorArgumentsError:
            accepted = False
        assert accepted == expect_valid, (case, types, blob.hex())
        agreement += 1
    assert agreement == 200
    print("criterion 3 PASS: empty/truncated prefix split naive vs hardened; "
          "200/200 arg encodings judged in agreement with the reference encoder")


def test_criterion_4_metadata_scan_strip_and_differential_masking():
    block = make_metadata_block(keccak256(b"tail"))
    assert block[-2:] == bytes.fromhex("0033")
    code = BODY + block
    spans = scan_metadata(code)
    assert [(s.start, s.end) for s in spans] == [(len(BODY), len(code))]
    stripped = strip_spans(code, spans)
    assert stripped == BODY
    assert strip_spans(stripped, scan_metadata(stripped)) == stripped

    innocent = (bytes.fromhex("6080604052") + b"\xa2"
                + bytes.fromhex("6001600055") + bytes(8)
                + make_metadata_block(keccak256(b"token build")))
    variant = bytearray(innocent[:19] + make_metadata_block(
        keccak256(b"token build with injected lib")))
    variant[9] = 0x01
    sources = {"contracts/token.sol": "contract Token { uint8 fee = 1; }\n"}
    settings = CompileSettings(target="contracts/token.sol:Token")
    compiler = FixtureCompiler()
    baseline = CompilationOutput(
        creation_code=make_creation_code(innocent), runtime_template=innocent)
    compiler.register(sources, settings, baseline)
    from srcverify.metadata import INJECTED_FILENAME, injected_library_source
    injected = dict(sources)
    injected[INJECTED_FILENAME] = injected_library_source("Token")
    compiler.register(injected, settings, CompilationOutput(
        creation_code=make_creation_code(bytes(variant)),
        runtime_template=bytes(variant)))

    spans = differential_extract(
        compiler, sources, settings, baseline, ("runtime",))["runtime"]
    pattern = {(s.start, s.end) for s in scan_metadata(innocent)}
    differential = {(s.start, s.end) for s in spans}
    backdoor_offset = 9  # the deployed code carries 0xff here
    assert differential != pattern
    assert any(start <= backdoor_offset < end for start, end in differential)
    assert not any(start <= backdoor_offset < end for start, end in pattern)
    print("criterion 4 PASS: 0x0033 tail located, strip idempotent, "
          f"differential spans {sorted(differential)} swallow offset 9 "
          f"unlike pattern spans {sorted(pattern)}")


def test_criterion_5_placeholder_rewrite_containment():
    lib = bytes.fromhex("ab" * 20)
    owner_offset = 30
    local = (bytes.fromhex("6080604052") + b"\x73" + bytes(20)
             + bytes.fromhex("601457") + b"\x73" + b"\x22" * 20
             + bytes.fromhex("5b600055f3"))
    onchain = local[:6] + lib + local[26:30] + lib + local[50:]
    span = PlaceholderSpan(6, "$.{37}|2{40}|", "foo", PlaceholderForm.LEGACY)

    naive, bindings = resolve(local, onchain, [span], PlaceholderMode.REGEX_NAIVE)
    assert len(bindings[0].matched_offsets) >= 2
    assert owner_offset in bindings[0].matched_offsets
    assert naive[owner_offset:owner_offset + 20] == lib
    assert naive == onchain  # the spillover is what makes the scam verify

    hardened, _ = resolve(local, onchain, [span], PlaceholderMode.OFFSET_LITERAL)
    assert hardened[6:26] == lib
    assert hardened[:6] == local[:6]
    assert hardened[26:] == local[26:]  # owner constant untouched

    rng = random.Random(4242)
    for case in range(500):
        n = rng.randint(40, 160)
        offset = rng.randint(0, n - 20)
        body = bytearray(rng.randbytes(n))
        body[offset:offset + 20] = bytes(20)
        chain_code = rng.randbytes(n)
        out, _ = resolve(bytes(body), chain_code,
                         [PlaceholderSpan(offset, "lib/l.sol", "L",
                                          PlaceholderForm.LEGACY)],
                         PlaceholderMode.OFFSET_LITERAL)
        assert out[offset:offset + 20] == chain_code[offset:offset + 20], case
        assert out[:offset] == bytes(body[:offset]), case
        assert out[offset + 20:] == bytes(body[offset + 20:]), case
    print("criterion 5 PASS: naive regex rewrote 2 sites incl. the owner "
          "constant; 500/500 offset-mode rewrites stayed inside the span")


CREATE2_SPEC_VECTORS = [
    # (deployer, salt, init code, address) per the published derivation spec
    ("00" * 20, "00" * 32, "00", "4d1a2e2bb4f88f0250f26ffff098b0b30b26bf38"),
    ("deadbeef" + "00" * 16, "00" * 32, "00",
     "b928f69bb1d91cd65274e3c79d8986362984fda3"),
    ("deadbeef" + "00" * 16,
     "000000000000000000000000feed000000000000000000000000000000000000",
     "00", "d04116cdd17bebe565eb2422f2497e06cc1c9833"),
    ("00" * 20, "00" * 32, "deadbeef",
     "70f2b2914a2a4b783faefb75f459a580616fcb5e"),
    ("00" * 16 + "deadbeef",
     "00000000000000000000000000000000000000000000000000000000cafebabe",
     "deadbeef", "60f3f640a8508fc6a86d45df051962668e1e8ac7"),
    ("00" * 20, "00" * 32, "", "e33c0c7f7df4809055c3eba6c09cfe4baf1bd9e0"),
]


def test_criterion_6_create2_flow_and_staleness(tmp_path):
    for deployer, salt, init, want in CREATE2_SPEC_VECTORS:
        d, s, i = bytes.fromhex(deployer), bytes.fromhex(salt), bytes.fromhex(init)
        assert create2_address(d, s, i).hex() == want
        assert create2_oracle(d, s, i).hex() == want
    assert keccak256(b"") == keccak256_oracle(b"")

    w = _world(HARDENED, tmp_path)
    factory = bytes.fromhex("fa" * 20)
    salt = keccak256(b"metamorphic slot")
    v1 = BODY + make_metadata_block(keccak256(b"honest v1"))
    v2 = bytes.fromhex("33ff") + make_metadata_block(keccak256(b"drainer v2"))
    sources = {"vault/vault.sol": "contract Vault { uint256 shares; }\n"}
    settings = CompileSettings(target="vault/vault.sol:Vault")
    output = CompilationOutput(creation_code=make_creation_code(v1),
                               runtime_template=v1)
    w.compiler.register(sources, settings, output)

    first = w.chain.mock_create2_deploy(factory, salt, output.creation_code, v1)
    assert first == create2_address(factory, salt, output.creation_code)
    assert first == create2_oracle(factory, salt, output.creation_code)
    w.service.submit_verification(VerificationRequest(
        sources=sources, settings=settings, address=first))

    w.chain.mock_selfdestruct(first)
    second = w.chain.mock_create2_deploy(factory, salt, output.creation_code, v2)
    assert second == first  # the metamorphic identity

    with pytest.raises(StaleRecordError):
        w.service.query(first)
    view = w.service.query(first, strict=False)
    assert view.freshness is RedeployStatus.CHANGED
    print("criterion 6 PASS: 6/6 spec vectors via engine and oracle, "
          "redeploy address stable, hardened query stamps the record stale")


def _treasury_world(config, tmp_path):
    w = _world(config, tmp_path)
    runtime = BODY + make_metadata_block(keccak256(b"treasury build"))
    sources = {"contracts/treasury.sol": "contract Treasury { address owner; }\n"}
    settings = CompileSettings(target="contracts/treasury.sol:Treasury")
    w.compiler.register(sources, settings, CompilationOutput(
        creation_code=make_creation_code(runtime), runtime_template=runtime))
    victim = w.chain.mock_deploy(runtime, make_creation_code(runtime),
                                 deployer=bytes.fromhex("11" * 20))
    record = w.service.submit_verification(VerificationRequest(
        sources=sources, settings=settings, address=victim))

    shell_runtime = (bytes.fromhex("6002600055")
                     + make_metadata_block(keccak256(b"shell build")))
    evil_path = (f"../../../{record.grade.value}/{record.address}"
                 "/sources/contracts/treasury.sol")
    shell_sources = {
        "contracts/shell.sol": "contract Shell { uint256 x; }\n",
        evil_path: "contract Treasury { address owner = tx.origin; }\n",
    }
    shell_settings = CompileSettings(target="contracts/shell.sol:Shell")
    w.compiler.register(shell_sources, shell_settings, CompilationOutput(
        creation_code=make_creation_code(shell_runtime),
        runtime_template=shell_runtime))
    shell = w.chain.mock_deploy(shell_runtime, make_creation_code(shell_runtime),
                                deployer=bytes.fromhex("bb" * 20))
    request = VerificationRequest(sources=shell_sources,
                                  settings=shell_settings, address=shell)
    return w, record, request, shell


def test_criterion_7_traversal_containment(tmp_path):
    w, victim, request, shell = _treasury_world(HARDENED, tmp_path / "hardened")
    before = w.store.snapshot()
    with pytest.raises(PathEscapeError):
        w.service.submit_verification(request)
    attacker_dir = "0x" + shell.hex()
    outside_before = {k: v for k, v in before.items() if attacker_dir not in k}
    outside_after = {k: v for k, v in w.store.snapshot().items()
                     if attacker_dir not in k}
    assert outside_after == outside_before

    w, victim, request, _ = _treasury_world(NAIVE_SOURCIFY_LIKE,
                                            tmp_path / "naive")
    w.service.submit_verification(request)
    tampered = w.store.verify_integrity(victim.address)
    assert tampered == ["contracts/treasury.sol"]
    print("criterion 7 PASS: hardened left every byte outside the attacker "
          "directory unchanged; naive left the victim file failing its "
          "manifest digest")


def test_criterion_8_candidate_filter_against_planted_corpus():
    from srcverify.attacklab import filter_r1_candidates
    corpus, expected = build_r1_corpus(seed=1337, size=1000, planted=7)
    kept = filter_r1_candidates(corpus)
    assert [address for address, _ in kept] == expected
    kept_set = {address for address, _ in kept}
    agreement = sum((address in kept_set) == r1_candidate_oracle(code)
                    for address, code in corpus)
    assert agreement == 1000
    print("criterion 8 PASS: exactly the 7 planted candidates out of 1000, "
          "1000/1000 agreement with the second implementation")


def test_criterion_9_dapp_end_to_end(tmp_path):
    w = _world(HARDENED, tmp_path)

    lib_runtime = bytes.fromhex("33ff") + make_metadata_block(keccak256(b"lib"))
    lib_sources = {"dapp/lib.sol": "library Lib { /* math */ }\n"}
    lib_settings = CompileSettings(target="dapp/lib.sol:Lib")
    w.compiler.register(lib_sources, lib_settings, CompilationOutput(
        creation_code=make_creation_code(lib_runtime),
        runtime_template=lib_runtime))
    lib_addr = w.chain.mock_deploy(lib_runtime, make_creation_code(lib_runtime))
    w.service.submit_verification(VerificationRequest(
        sources=lib_sources, settings=lib_settings, address=lib_addr))

    rate = 7 * 10 ** 17
    template = (b"\x60\x80" + b"\x73" + bytes(20) + b"\x60\x00" + bytes(32)
                + b"\x55" + make_metadata_block(keccak256(b"main build")))
    filled = bytearray(template)
    filled[25:57] = rate.to_bytes(32, "big")
    deployed = bytearray(filled)
    deployed[3:23] = lib_addr
    sources = {
        "dapp/main.sol": "contract Main { uint256 immutable rate; }\n",
        "dapp/lib.sol": "library Lib { /* math */ }\n",
    }
    settings = CompileSettings(target="dapp/main.sol:Main")
    output = CompilationOutput(
        creation_code=make_creation_code(bytes(filled)),
        runtime_template=template,
        immutable_refs=[ImmutableRef(25, 32, "rate")],
        link_refs=[PlaceholderSpan(3, "dapp/lib.sol", "Lib",
                                   PlaceholderForm.LEGACY)],
        ctor_params=["uint256"])
    w.compiler.register(sources, settings, output)
    tx_input = output.creation_code + encode_arguments(["uint256"], [rate])
    address = w.chain.mock_deploy(bytes(deployed), tx_input)

    record = w.service.submit_verification(VerificationRequest(
        sources=sources, settings=settings, address=address))
    assert record.grade is Grade.EXACT
    assert record.warnings == []

    # same DApp at a second address whose code differs only in the hash
    perturbed_template = template[:-53] + make_metadata_block(
        keccak256(b"main build, different source newline"))
    perturbed_filled = bytearray(perturbed_template)
    perturbed_filled[25:57] = rate.to_bytes(32, "big")
    perturbed_deployed = bytearray(perturbed_filled)
    perturbed_deployed[3:23] = lib_addr
    tx2 = (make_creation_code(bytes(perturbed_filled))
           + encode_arguments(["uint256"], [rate]))
    address2 = w.chain.mock_deploy(bytes(perturbed_deployed), tx2)

    partial = w.service.submit_verification(VerificationRequest(
        sources=sources, settings=settings, address=address2))
    assert partial.grade is Grade.PARTIAL

    exact_sources = {
        "dapp/main.sol": "contract Main { uint256 immutable rate; }\n\n",
        "dapp/lib.sol": "library Lib { /* math */ }\n",
    }
    w.compiler.register(exact_sources, settings, replace_output(
        output, bytes(perturbed_filled), perturbed_template))
    upgraded = w.service.submit_verification(VerificationRequest(
        sources=exact_sources, settings=settings, address=address2))
    assert upgraded.grade is Grade.EXACT
    assert w.store.load(address2).grade is Grade.EXACT

    with pytest.raises(ReplacementDeniedError):
        w.service.submit_verification(VerificationRequest(
            sources=sources, settings=settings, address=address2))
    assert w.store.load(address2).sources == exact_sources
    print("criterion 9 PASS: two-file DApp exact under hardened, hash "
          "perturbation partial, exact-over-partial replaced, reverse denied "
          "(suite time bound: see the pytest summary line)")


def replace_output(output, filled, template):
    return CompilationOutput(
        creation_code=make_creation_code(filled),
        runtime_template=template,
        immutable_refs=list(output.immutable_refs),
        link_refs=list(output.link_refs),
        ctor_params=list(output.ctor_params))
