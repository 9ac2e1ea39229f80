"""Mock chain behaviour and CREATE2 derivation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import create2_oracle, keccak256_oracle
from srcverify.bytecode import code_hash, parse_hex
from srcverify.chain import (
    ChainClient,
    CreationTx,
    LiveCode,
    MockChain,
    RedeployStatus,
    create2_address,
    detect_redeployment,
)
from srcverify.errors import (
    AddressOccupiedError,
    BackendUnavailableError,
    MalformedFixtureError,
    NotFoundError,
)

# published derivation examples for the CREATE2 address formula
CREATE2_VECTORS = [
    ("0x0000000000000000000000000000000000000000",
     "0x0000000000000000000000000000000000000000000000000000000000000000",
     "0x00", "0x4d1a2e2bb4f88f0250f26ffff098b0b30b26bf38"),
    ("0xdeadbeef00000000000000000000000000000000",
     "0x0000000000000000000000000000000000000000000000000000000000000000",
     "0x00", "0xb928f69bb1d91cd65274e3c79d8986362984fda3"),
    ("0xdeadbeef00000000000000000000000000000000",
     "0x000000000000000000000000feed000000000000000000000000000000000000",
     "0x00", "0xd04116cdd17bebe565eb2422f2497e06cc1c9833"),
]

RUNTIME_A = bytes.fromhex("6001600155")
RUNTIME_B = bytes.fromhex("6002600255")
DEPLOYER = bytes.fromhex("11" * 20)
SALT = bytes.fromhex("22" * 32)
INIT = bytes.fromhex("600080f3")


class TestCreate2:
    @pytest.mark.parametrize("deployer,salt,init,expected", CREATE2_VECTORS)
    def test_published_vectors(self, deployer, salt, init, expected):
        got = create2_address(parse_hex(deployer), parse_hex(salt), parse_hex(init))
        assert got == parse_hex(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=20, max_size=20),
           st.binary(min_size=32, max_size=32),
           st.binary(max_size=64))
    def test_agrees_with_oracle(self, deployer, salt, init):
        assert create2_address(deployer, salt, init) == \
            create2_oracle(deployer, salt, init)

    def test_deterministic(self):
        assert create2_address(DEPLOYER, SALT, INIT) == \
            create2_address(DEPLOYER, SALT, INIT)

    def test_salt_changes_address(self):
        other = bytes.fromhex("23") + SALT[1:]
        assert create2_address(DEPLOYER, SALT, INIT) != \
            create2_address(DEPLOYER, other, INIT)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            create2_address(DEPLOYER[:19], SALT, INIT)
        with pytest.raises(ValueError):
            create2_address(DEPLOYER, SALT[:31], INIT)


class TestMockChain:
    def test_deploy_and_read_back(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=b"\x00" + RUNTIME_A)
        assert chain.get_runtime_code(addr) == RUNTIME_A

    def test_never_deployed_reads_empty(self):
        chain = MockChain()
        assert chain.get_runtime_code(bytes(20)) == b""

    def test_creation_input_recorded(self):
        chain = MockChain()
        creation = b"\xfe" + RUNTIME_A
        addr = chain.mock_deploy(RUNTIME_A, creation_input=creation,
                                 deployer=DEPLOYER)
        tx_hash, tx_input, deployer = chain.get_creation_input(addr)
        assert tx_input == creation
        assert deployer == DEPLOYER
        assert len(tx_hash) == 32

    def test_creation_input_is_the_latest_transaction(self):
        chain = MockChain()
        addr = chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_A)
        first = chain.get_creation_input(addr)
        chain.mock_selfdestruct(addr)
        chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_B,
                                  creation_input=INIT + b"\x01")
        latest = chain.get_creation_input(addr)
        assert isinstance(latest, CreationTx)
        assert latest.input == INIT + b"\x01"
        assert latest.deployer == DEPLOYER
        assert latest.hash != first.hash

    def test_creation_input_unknown_address(self):
        with pytest.raises(NotFoundError):
            MockChain().get_creation_input(bytes(20))

    def test_selfdestruct_empties_reads(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        chain.mock_selfdestruct(addr)
        assert chain.get_runtime_code(addr) == b""
        # creation history survives destruction
        assert chain.get_creation_input(addr)[1] == RUNTIME_A

    def test_selfdestruct_requires_live_code(self):
        chain = MockChain()
        with pytest.raises(NotFoundError):
            chain.mock_selfdestruct(bytes(20))

    def test_deploy_at_live_address_occupied(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        with pytest.raises(AddressOccupiedError):
            chain.mock_deploy(RUNTIME_B, creation_input=RUNTIME_B, address=addr)

    def test_create2_deploy_lands_on_derived_address(self):
        chain = MockChain()
        addr = chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_A)
        assert addr == create2_address(DEPLOYER, SALT, INIT)
        assert chain.get_runtime_code(addr) == RUNTIME_A

    def test_create2_different_salts_different_addresses(self):
        chain = MockChain()
        a = chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_A)
        b = chain.mock_create2_deploy(DEPLOYER, bytes(32), INIT, RUNTIME_A)
        assert a != b

    def test_create2_at_live_address_occupied(self):
        chain = MockChain()
        chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_A)
        with pytest.raises(AddressOccupiedError):
            chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_B)

    def test_address_reuse_flow(self):
        # deploy, destroy, then revive the same address with different code
        chain = MockChain()
        addr = chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_A)
        recorded = code_hash(chain.get_runtime_code(addr))
        chain.mock_selfdestruct(addr)
        again = chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_B)
        assert again == addr
        assert chain.get_runtime_code(addr) == RUNTIME_B
        assert detect_redeployment(chain, addr, recorded) is RedeployStatus.CHANGED
        # latest creation wins
        assert chain.get_creation_input(addr)[1] == INIT

    def test_reorg_flag_blocks_reads(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        chain.reorg_in_progress = True
        with pytest.raises(BackendUnavailableError):
            chain.get_runtime_code(addr)
        with pytest.raises(BackendUnavailableError):
            chain.get_creation_input(addr)
        with pytest.raises(BackendUnavailableError):
            detect_redeployment(chain, addr, code_hash(RUNTIME_A))
        chain.reorg_in_progress = False
        assert chain.get_runtime_code(addr) == RUNTIME_A

    def test_fixture_roundtrip(self, tmp_path):
        chain = MockChain()
        a = chain.mock_deploy(RUNTIME_A, creation_input=b"\x01", deployer=DEPLOYER)
        b = chain.mock_deploy(RUNTIME_B, creation_input=b"\x02")
        chain.mock_selfdestruct(b)
        path = tmp_path / "chain.json"
        chain.save_fixture(path)
        loaded = MockChain.load_fixture(path)
        assert loaded.get_runtime_code(a) == RUNTIME_A
        assert loaded.get_runtime_code(b) == b""
        assert loaded.get_creation_input(a)[1] == b"\x01"
        assert loaded.get_creation_input(a)[2] == DEPLOYER

    @pytest.mark.parametrize("payload", [
        "[1, 2]",
        '{"0x11": 5}',
        "not json",
        '{"0x%s": 5}' % ("11" * 20),
        '{"0x%s": {"runtimeCode": 5}}' % ("11" * 20),
        '{"0x%s": {"destroyed": "yes"}}' % ("11" * 20),
        '{"0x%s": {"creationTx": []}}' % ("11" * 20),
        '{"0x%s": {"creationTx": {"hash": "0x%s", "deployer": "0x%s"}}}'
        % ("11" * 20, "22" * 32, "33" * 20),
        '{"0x%s": {"creationTx": {"hash": "0x22", "input": "0x",'
        ' "deployer": "0x%s"}}}' % ("11" * 20, "33" * 20),
    ], ids=["list", "short-address", "not-json", "entry-not-object",
            "code-not-text", "destroyed-not-bool", "tx-not-object",
            "tx-without-input", "short-tx-hash"])
    def test_malformed_fixture_rejected(self, tmp_path, payload):
        path = tmp_path / "chain.json"
        path.write_text(payload)
        with pytest.raises(MalformedFixtureError):
            MockChain.load_fixture(path)


class TestMockIdentifiers:
    """Mock tx hashes and deploy addresses are not EVM-defined, so they cost
    no Keccak; CREATE2 hashes its two preimages and nothing else."""

    def test_deploy_and_tx_hash_use_no_keccak(self, hashed):
        chain = MockChain()
        a = chain.mock_deploy(RUNTIME_A, creation_input=b"\x01")
        b = chain.mock_deploy(RUNTIME_B, creation_input=b"\x02",
                              address=b"\x42" * 20)
        assert a != b and len(a) == 20
        tx_a, tx_b = chain.get_creation_input(a)[0], chain.get_creation_input(b)[0]
        assert tx_a != tx_b and len(tx_a) == len(tx_b) == 32
        assert hashed == []

    def test_create2_hashes_only_its_preimages(self, hashed):
        chain = MockChain()
        addr = chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_A)
        assert addr == create2_oracle(DEPLOYER, SALT, INIT)
        assert hashed == [INIT, b"\xff" + DEPLOYER + SALT + keccak256_oracle(INIT)]


class TestDetectRedeployment:
    def test_unchanged_immediately_after_capture(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        recorded = code_hash(chain.get_runtime_code(addr))
        assert detect_redeployment(chain, addr, recorded) is RedeployStatus.UNCHANGED

    def test_destroyed(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        recorded = code_hash(RUNTIME_A)
        chain.mock_selfdestruct(addr)
        assert detect_redeployment(chain, addr, recorded) is RedeployStatus.DESTROYED

    def test_never_seen(self):
        chain = MockChain()
        status = detect_redeployment(chain, bytes(20), code_hash(RUNTIME_A))
        assert status is RedeployStatus.NEVER_SEEN

    def test_changed_via_plain_redeploy(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        recorded = code_hash(RUNTIME_A)
        chain.mock_selfdestruct(addr)
        chain.mock_deploy(RUNTIME_B, creation_input=RUNTIME_B, address=addr)
        assert detect_redeployment(chain, addr, recorded) is RedeployStatus.CHANGED


class TestCodeHash:
    """read_code, get_code_hash, and the mock's memo of them, never serve a
    stale hash."""

    def test_hash_of_live_code_and_empty_without_code(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        assert chain.read_code(addr).code == RUNTIME_A
        assert chain.read_code(addr).hash == keccak256_oracle(RUNTIME_A)
        assert chain.get_code_hash(addr) == keccak256_oracle(RUNTIME_A)
        assert chain.get_code_hash(addr) == keccak256_oracle(RUNTIME_A)
        assert chain.read_code(bytes(20)).code == b""
        assert chain.get_code_hash(bytes(20)) == b""
        chain.mock_selfdestruct(addr)
        assert chain.read_code(addr).code == b""
        assert chain.get_code_hash(addr) == b""

    def test_live_code_hashes_once_and_only_when_asked(self, hashed):
        live = LiveCode(RUNTIME_A)
        assert hashed == []
        assert live.hash == keccak256_oracle(RUNTIME_A)
        assert live.hash == keccak256_oracle(RUNTIME_A)
        assert hashed == [RUNTIME_A]
        # the hash of exactly the bytes read, so also of no bytes
        assert LiveCode(b"").hash == keccak256_oracle(b"")

    def test_memo_serves_one_hash_per_code(self, hashed):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        hashed.clear()
        first = chain.read_code(addr)
        assert chain.read_code(addr) is first
        assert first.hash == chain.get_code_hash(addr) == \
            keccak256_oracle(RUNTIME_A)
        assert hashed == [RUNTIME_A]

    def test_create2_revive_after_memoised_query_is_changed(self):
        chain = MockChain()
        addr = chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_A)
        recorded = code_hash(RUNTIME_A)
        before = chain.read_code(addr)
        assert detect_redeployment(chain, addr, recorded) is RedeployStatus.UNCHANGED
        chain.mock_selfdestruct(addr)
        chain.mock_create2_deploy(DEPLOYER, SALT, INIT, RUNTIME_B)
        after = chain.read_code(addr)
        assert after is not before
        assert (after.code, after.hash) == (RUNTIME_B, keccak256_oracle(RUNTIME_B))
        assert chain.get_code_hash(addr) == keccak256_oracle(RUNTIME_B)
        assert detect_redeployment(chain, addr, recorded) is RedeployStatus.CHANGED

    def test_destroy_after_memoised_query_is_destroyed(self):
        chain = MockChain()
        addr = chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        recorded = code_hash(RUNTIME_A)
        assert detect_redeployment(chain, addr, recorded) is RedeployStatus.UNCHANGED
        chain.mock_selfdestruct(addr)
        assert chain.read_code(addr).code == b""
        assert detect_redeployment(chain, addr, recorded) is RedeployStatus.DESTROYED

    def test_unknown_address_is_never_seen(self):
        chain = MockChain()
        chain.mock_deploy(RUNTIME_A, creation_input=RUNTIME_A)
        assert chain.read_code(b"\x42" * 20).code == b""
        status = detect_redeployment(chain, b"\x42" * 20, code_hash(RUNTIME_A))
        assert status is RedeployStatus.NEVER_SEEN

    def test_loaded_fixture_hashes_its_code(self, tmp_path, hashed):
        chain = MockChain()
        a = chain.mock_deploy(RUNTIME_A, creation_input=b"\x01")
        b = chain.mock_deploy(RUNTIME_B, creation_input=b"\x02")
        chain.get_code_hash(a)
        chain.mock_selfdestruct(b)
        path = tmp_path / "chain.json"
        chain.save_fixture(path)
        loaded = MockChain.load_fixture(path)
        hashed.clear()
        assert loaded.read_code(a).hash == keccak256_oracle(RUNTIME_A)
        assert hashed == [RUNTIME_A]
        assert loaded.get_code_hash(a) == keccak256_oracle(RUNTIME_A)
        assert loaded.get_code_hash(b) == b""
        assert detect_redeployment(loaded, b, code_hash(RUNTIME_B)) is \
            RedeployStatus.DESTROYED

    def test_default_hashes_runtime_code(self, hashed):
        class MinimalClient(ChainClient):
            def __init__(self, codes):
                self.codes = codes

            def get_runtime_code(self, address):
                return self.codes.get(address, b"")

            def get_creation_input(self, address):
                raise NotFoundError("no creations in this client")

        client = MinimalClient({b"\x01" * 20: RUNTIME_A})
        live = client.read_code(b"\x01" * 20)
        assert isinstance(live, LiveCode)
        assert (live.code, live.hash) == (RUNTIME_A, keccak256_oracle(RUNTIME_A))
        assert client.read_code(b"\x02" * 20).code == b""
        assert client.get_code_hash(b"\x01" * 20) == \
            keccak256_oracle(client.get_runtime_code(b"\x01" * 20))
        assert client.get_code_hash(b"\x02" * 20) == b""
        assert detect_redeployment(client, b"\x01" * 20, code_hash(RUNTIME_A)) \
            is RedeployStatus.UNCHANGED
        # every input hashed was a runtime read through get_runtime_code
        assert set(hashed) == {RUNTIME_A}
