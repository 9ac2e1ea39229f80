"""Chain access: client seam, in-memory mock chain, redeploy detection.

Only the mock backend is implemented; ChainClient is the seam where a real
node RPC would attach.  The mock supports deploy, selfdestruct, and CREATE2
deploy so that the address-reuse attack (destroy, then place different code
at the same address) can be reproduced and detected.
"""

from __future__ import annotations

import hashlib
import json
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from ._keccak import keccak256
from .bytecode import parse_hex, render_hex
from .errors import (
    AddressOccupiedError,
    BackendUnavailableError,
    MalformedFixtureError,
    NotFoundError,
)


def create2_address(deployer: bytes, salt: bytes, init_code: bytes) -> bytes:
    """EVM CREATE2 address: keccak(0xff ++ deployer ++ salt ++ keccak(init))[12:]."""
    if len(deployer) != 20:
        raise ValueError(f"deployer must be 20 bytes, got {len(deployer)}")
    if len(salt) != 32:
        raise ValueError(f"salt must be 32 bytes, got {len(salt)}")
    preimage = b"\xff" + deployer + salt + keccak256(init_code)
    return keccak256(preimage)[12:]


class RedeployStatus(Enum):
    UNCHANGED = "unchanged"
    CHANGED = "changed"
    DESTROYED = "destroyed"
    NEVER_SEEN = "never-seen"


class CreationTx(NamedTuple):
    hash: bytes
    input: bytes
    deployer: bytes


@dataclass
class ChainContract:
    """One account: its runtime as placed by the latest deploy or revival,
    which every read of it serves, hash included."""

    runtime: LiveCode
    creation: CreationTx | None = None  # the latest
    destroyed: bool = False


@dataclass(frozen=True)
class LiveCode:
    """One read of an address's code, carrying the Keccak-256 of exactly
    those bytes, computed at most once and only when first asked for."""

    code: bytes

    @cached_property
    def hash(self) -> bytes:
        return keccak256(self.code)


class ChainClient(ABC):
    @abstractmethod
    def get_runtime_code(self, address: bytes) -> bytes:
        """Current code; empty when absent or destroyed."""

    @abstractmethod
    def get_creation_input(self, address: bytes) -> CreationTx:
        """The most recent creation transaction."""

    def read_code(self, address: bytes) -> LiveCode:
        """The current code with its hash, both of one read.

        This default wraps get_runtime_code.  A node-backed client should
        return the code and the account's codeHash read at one block tag
        (eth_getCode plus eth_getProof, EIP-1186).
        """
        return LiveCode(self.get_runtime_code(address))

    def get_code_hash(self, address: bytes) -> bytes:
        """Keccak-256 of the current code; empty when there is no live code.

        The EXTCODEHASH (EIP-1052) and eth_getProof codeHash (EIP-1186) view.
        """
        live = self.read_code(address)
        return live.hash if live.code else b""


class MockChain(ChainClient):
    """Deterministic in-memory chain.

    Mutators are serialized under a lock; reads are safe between mutations.
    Setting reorg_in_progress makes all reads fail with BackendUnavailable
    until cleared (the only reorg behaviour modeled).

    Transaction hashes and default deploy addresses need only be distinct
    and deterministic, and the EVM does not define them, so they are
    sha2-256; CREATE2 addresses, which it does define, stay Keccak-256.
    """

    def __init__(self) -> None:
        self._contracts: dict[bytes, ChainContract] = {}
        self._lock = threading.Lock()
        self._sequence = 0
        self.reorg_in_progress = False

    def _available(self) -> None:
        if self.reorg_in_progress:
            raise BackendUnavailableError("chain reorganization in progress")

    def get_runtime_code(self, address: bytes) -> bytes:
        self._available()
        contract = self._contracts.get(address)
        if contract is None or contract.destroyed:
            return b""
        return contract.runtime.code

    def read_code(self, address: bytes) -> LiveCode:
        """The account's LiveCode, read through get_runtime_code: a hash
        computed for one read, by a submit say, serves the next, and a
        revival or a reloaded fixture brings a new one.  Other bytes than
        the account's, from a subclass, get a LiveCode of their own."""
        code = self.get_runtime_code(address)
        contract = self._contracts.get(address)
        if contract is not None and contract.runtime.code is code:
            return contract.runtime
        return LiveCode(code)

    def get_creation_input(self, address: bytes) -> CreationTx:
        self._available()
        contract = self._contracts.get(address)
        if contract is None or contract.creation is None:
            raise NotFoundError(f"no creation recorded for 0x{address.hex()}")
        return contract.creation

    def _next_tx_hash(self, address: bytes) -> bytes:
        self._sequence += 1
        return hashlib.sha256(
            b"txn" + self._sequence.to_bytes(8, "big") + address).digest()

    def _place(self, address: bytes, runtime: bytes, creation_input: bytes,
               deployer: bytes) -> bytes:
        existing = self._contracts.get(address)
        if existing is not None and not existing.destroyed:
            raise AddressOccupiedError(f"0x{address.hex()} has live code")
        tx = CreationTx(self._next_tx_hash(address), creation_input, deployer)
        self._contracts[address] = ChainContract(LiveCode(runtime), tx)
        return address

    def mock_deploy(self, runtime: bytes, creation_input: bytes,
                    deployer: bytes = bytes(20),
                    address: bytes | None = None) -> bytes:
        with self._lock:
            if address is None:
                self._sequence += 1
                address = hashlib.sha256(
                    b"deploy" + deployer + self._sequence.to_bytes(8, "big")
                ).digest()[12:]
            return self._place(address, runtime, creation_input, deployer)

    def mock_selfdestruct(self, address: bytes) -> None:
        with self._lock:
            contract = self._contracts.get(address)
            if contract is None or contract.destroyed:
                raise NotFoundError(f"0x{address.hex()} has no live code")
            contract.destroyed = True

    def mock_create2_deploy(self, deployer: bytes, salt: bytes, init_code: bytes,
                            runtime: bytes,
                            creation_input: bytes | None = None) -> bytes:
        """Place runtime at the CREATE2-derived address.

        Mirrors the factory pattern where init code is fixed and the deployed
        runtime is data-driven, so the same (deployer, salt, init) triple can
        revive a destroyed address with arbitrary new code.
        """
        with self._lock:
            address = create2_address(deployer, salt, init_code)
            return self._place(address, runtime,
                               init_code if creation_input is None else creation_input,
                               deployer)

    def save_fixture(self, path: str | Path) -> None:
        payload = {}
        for address, contract in sorted(self._contracts.items()):
            latest = contract.creation
            payload[render_hex(address)] = {
                "runtimeCode": render_hex(contract.runtime.code),
                "creationTx": None if latest is None else {
                    "hash": render_hex(latest.hash),
                    "input": render_hex(latest.input),
                    "deployer": render_hex(latest.deployer),
                },
                "destroyed": contract.destroyed,
            }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")

    @classmethod
    def load_fixture(cls, path: str | Path) -> "MockChain":
        """Rebuild a chain from save_fixture's output.

        Anything not shaped like that output raises MalformedFixtureError.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise MalformedFixtureError(f"chain fixture {path} is not JSON") from exc
        if not isinstance(payload, dict):
            raise MalformedFixtureError(f"chain fixture {path} is not an object")
        chain = cls()
        for address_hex, entry in payload.items():
            where = f"chain fixture entry {address_hex!r}"
            address = _fixture_hex(address_hex, where, 20)
            if not isinstance(entry, dict):
                raise MalformedFixtureError(f"{where} is not an object")
            creation = None
            tx = entry.get("creationTx")
            if tx is not None:
                if not isinstance(tx, dict):
                    raise MalformedFixtureError(f"{where}: creationTx is not an object")
                creation = CreationTx(
                    _fixture_hex(tx.get("hash"), where, 32),
                    _fixture_hex(tx.get("input"), where),
                    _fixture_hex(tx.get("deployer"), where, 20))
            destroyed = entry.get("destroyed", False)
            if not isinstance(destroyed, bool):
                raise MalformedFixtureError(f"{where}: destroyed is not a boolean")
            chain._contracts[address] = ChainContract(
                LiveCode(_fixture_hex(entry.get("runtimeCode", "0x"), where)),
                creation, destroyed)
        return chain


def _fixture_hex(value: object, where: str, length: int | None = None) -> bytes:
    """One hex field of a chain fixture, of length bytes when given."""
    if not isinstance(value, str):
        raise MalformedFixtureError(f"{where}: {value!r} is not a hex string")
    raw = parse_hex(value)
    if length is not None and len(raw) != length:
        raise MalformedFixtureError(
            f"{where}: {value!r} is not {length} bytes")
    return raw


def detect_redeployment(client: ChainClient, address: bytes,
                        recorded_hash: bytes) -> RedeployStatus:
    """Compare the address's current code hash with the recorded one."""
    current = client.get_code_hash(address)
    if not current:
        try:
            client.get_creation_input(address)
        except NotFoundError:
            return RedeployStatus.NEVER_SEEN
        return RedeployStatus.DESTROYED
    if current == recorded_hash:
        return RedeployStatus.UNCHANGED
    return RedeployStatus.CHANGED
