"""Seeded workloads for the srcverify benchmark.

Each workload is built from a seed alone: contract bytes, chain staging,
store pre-population and the operation sequence.  Every operation carries
the outcome that is right by construction, so a run checks the program
while it times it.

The package is imported from the ``src/`` directory next to this one, not
from an installed copy, so the benchmark always measures the working tree.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import importlib
import itertools
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import srcverify  # noqa: E402
from srcverify import attacklab  # noqa: E402
from srcverify.chain import MockChain, RedeployStatus  # noqa: E402
from srcverify.compiler import (  # noqa: E402
    CompilationOutput,
    CompileSettings,
    FixtureCompiler,
    VerificationRequest,
    make_creation_code,
)
from srcverify.linker import PlaceholderForm, PlaceholderSpan  # noqa: E402
from srcverify.metadata import PATTERN_LENGTH, make_metadata_block  # noqa: E402
from srcverify.service import HARDENED, PROFILES, VerifyService  # noqa: E402
from srcverify.simulator import ImmutableRef  # noqa: E402
from srcverify.store import Grade, RecordStore  # noqa: E402

if Path(srcverify.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"srcverify was imported from {srcverify.__file__}, "
                      f"not from {SRC}")

EIP170_CAP = 24_576
CTOR_PARAMS = ["uint256", "address", "string"]


# --- contracts ---

def _push2(value: int) -> bytes:
    return b"\x61" + value.to_bytes(2, "big")


def _ctor(runtime_len: int, imm_a: int, imm_b: int) -> bytes:
    """Constructor: copy the runtime into memory, write arguments 0 and 1
    into the two immutable words, return the runtime."""
    creation_len = CTOR_LEN + runtime_len
    return (_push2(runtime_len) + b"\x80" + _push2(CTOR_LEN) + b"\x60\x00\x39"
            + _push2(creation_len) + b"\x35" + _push2(imm_a) + b"\x52"
            + _push2(creation_len + 32) + b"\x35" + _push2(imm_b) + b"\x52"
            + b"\x60\x00\xf3")


CTOR_LEN = 29


def encode_args(number: int, address: bytes, text: str) -> bytes:
    """Canonical ABI encoding of (uint256, address, string)."""
    data = text.encode()
    return (number.to_bytes(32, "big") + bytes(12) + address
            + (96).to_bytes(32, "big") + len(data).to_bytes(32, "big")
            + data + bytes(-len(data) % 32))


@dataclass
class Contract:
    """One generated submission and what the chain holds for it."""

    request: VerificationRequest
    output: CompilationOutput
    live_runtime: bytes
    creation_input: bytes


def make_contract(rng: random.Random, name: str, runtime_len: int,
                  library: bytes, *, variant: str = "exact",
                  inline_assembly: bool = False) -> Contract:
    """A contract with two constructor-written immutables, one linked
    library and (uint256,address,string) constructor arguments.

    variant "partial" deploys the same code with another metadata hash;
    "mismatch" deploys code that differs by one byte outside metadata.
    """
    body_len = runtime_len - PATTERN_LENGTH
    body = bytearray(rng.randbytes(body_len))
    imm_a, link, imm_b = 1, 40, body_len // 2 + 1
    for opcode, at, width in ((0x7F, imm_a, 32), (0x73, link, 20),
                              (0x7F, imm_b, 32)):
        body[at - 1] = opcode
        body[at:at + width] = bytes(width)
    template = bytes(body) + make_metadata_block(rng.randbytes(32))
    ctor = _ctor(runtime_len, imm_a, imm_b)

    number = rng.getrandbits(256)
    owner = rng.randbytes(20)
    args = encode_args(number, owner, rng.randbytes(rng.randrange(4, 40)).hex())

    deployed = bytearray(template)
    if variant == "partial":
        deployed[body_len:] = make_metadata_block(rng.randbytes(32))
    elif variant == "mismatch":
        at = rng.randrange(imm_b + 32, body_len)
        deployed[at] ^= 0xFF
    elif variant != "exact":
        raise ValueError(f"unknown variant {variant!r}")
    creation_input = ctor + bytes(deployed) + args
    deployed[imm_a:imm_a + 32] = number.to_bytes(32, "big")
    deployed[imm_b:imm_b + 32] = bytes(12) + owner
    deployed[link:link + 20] = library

    path = f"contracts/{name}.sol"
    sources = {
        path: f"contract {name} {{ /* {rng.randbytes(8).hex()} */ }}\n",
        "lib/Lib.sol": "library Lib { function f() public {} }\n",
    }
    output = CompilationOutput(
        creation_code=ctor + template,
        runtime_template=template,
        immutable_refs=[ImmutableRef(imm_a, 32, "number"),
                        ImmutableRef(imm_b, 32, "owner")],
        link_refs=[PlaceholderSpan(link, "lib/Lib.sol", "Lib",
                                   PlaceholderForm.LEGACY)],
        ctor_params=list(CTOR_PARAMS),
        uses_inline_assembly=inline_assembly,
    )
    request = VerificationRequest(
        sources=sources, settings=CompileSettings(target=f"{path}:{name}"))
    return Contract(request, output, bytes(deployed), creation_input)


# --- operations ---

@dataclass
class Op:
    """One timed call and the outcome that is right for it.

    expect is ("grade", Grade) for a stored or served record,
    ("raises", error class name) for a correct refusal, or
    ("cell", (result, required guard)) for an attack-lab cell.
    """

    kind: str           # submit | query | inherit | cell
    cls: str            # kind plus expected verdict; medians are per class
    key: str            # the op's target: an address, or scenario/profile
    call: Callable[[], object]
    expect: tuple
    check_extra: Callable[[object], bool] | None = None


def check(op: Op, result: object, exc: BaseException | None) -> bool:
    """True when the call did exactly what the op expects."""
    want, value = op.expect
    if want == "raises":
        return exc is not None and type(exc).__name__ == value
    if exc is not None:
        return False
    if want == "grade":
        if result.grade is not value:
            return False
        return op.check_extra is None or op.check_extra(result)
    if want == "cell":
        result_name, guard = value
        return result.result == result_name and (
            guard is None or guard in result.guards)
    raise ValueError(f"unknown expectation {want!r}")


def _fresh_view(view) -> bool:
    return view.freshness is RedeployStatus.UNCHANGED


def _no_warnings(record) -> bool:
    return not record.warnings


@dataclass
class Workload:
    """Staged state plus the op stream; close() removes the temp store."""

    name: str
    root: Path
    ops: Iterator[Op]
    digest: str                      # of every generated input
    service: VerifyService | None = None

    def records(self) -> int:
        return 0 if self.service is None else len(
            self.service.store.list_addresses())

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class _Digest:
    """Running hash over generated inputs, for the determinism check."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            self._h.update(part if isinstance(part, bytes) else repr(part).encode())

    def contract(self, c: Contract) -> None:
        self.add(c.creation_input, c.live_runtime, c.output.creation_code,
                 sorted(c.request.sources.items()), c.request.settings.target,
                 c.output.uses_inline_assembly)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _world(root: Path):
    chain = MockChain()
    compiler = FixtureCompiler()
    store = RecordStore(root / "records")
    return VerifyService(HARDENED, compiler, chain, store), compiler, chain


def _stage_library(rng: random.Random, service, compiler, chain, digest):
    """Deploy and verify the library every generated contract links."""
    runtime = rng.randbytes(64) + make_metadata_block(rng.randbytes(32))
    output = CompilationOutput(make_creation_code(runtime), runtime)
    sources = {"lib/Lib.sol": "library Lib { function f() public {} }\n"}
    settings = CompileSettings(target="lib/Lib.sol:Lib")
    compiler.register(sources, settings, output)
    address = chain.mock_deploy(runtime, output.creation_code,
                                deployer=b"\x11" * 20)
    service.submit_verification(VerificationRequest(
        sources=sources, settings=settings, address=address))
    digest.add(runtime)
    return address


def _stratified(rng: random.Random, pattern: list[str]) -> Iterator[str]:
    """Endless labels with pattern's exact shares in every block of its
    length, shuffled within each block."""
    while True:
        block = list(pattern)
        rng.shuffle(block)
        yield from block


def _no_tick() -> None:
    """Builders call tick() between set-up steps; run.py samples its speed
    reference there."""


def _register(compiler, chain, contract: Contract, *, deployer: bytes) -> bytes:
    compiler.register(contract.request.sources, contract.request.settings,
                      contract.output)
    address = chain.mock_deploy(contract.live_runtime, contract.creation_input,
                                deployer=deployer)
    contract.request.address = address
    return address


def _redeploy(chain, contract: Contract, *, deployer: bytes) -> Contract:
    """The same contract deployed again at a new address."""
    address = chain.mock_deploy(contract.live_runtime, contract.creation_input,
                                deployer=deployer)
    return dataclasses.replace(
        contract, request=dataclasses.replace(contract.request, address=address))


def _recycled(pool: list, again: Callable) -> Iterator:
    """The staged items, then again(item) for each, round after round.

    Pools are staged for a run at the ROADMAP's target speeds; a faster
    program goes on with the same inputs at new addresses, keeping every
    expected outcome and the chain's memory nearly flat.
    """
    yield from pool
    while True:
        for item in pool:
            yield again(item)


# --- cap-24k ---

CAP_POOL = 600       # 20 s at the ROADMAP's target: submit 40 ms, query 1 ms
CAP_PATTERN = ["exact"] * 9 + ["partial"] * 9 + ["mismatch"] * 2


def build_cap_24k(seed: int, root: Path, *, pool: int = CAP_POOL,
                  tick=_no_tick) -> Workload:
    """Hardened submits at the EIP-170 size cap, each followed by a query."""
    rng = random.Random(seed)
    digest = _Digest()
    service, compiler, chain = _world(root)
    library = _stage_library(rng, service, compiler, chain, digest)
    variants = _stratified(rng, CAP_PATTERN)
    staged = []
    for i in range(pool):
        variant = next(variants)
        contract = make_contract(rng, f"Cap{i}", EIP170_CAP, library,
                                 variant=variant)
        _register(compiler, chain, contract, deployer=b"\x22" * 20)
        digest.contract(contract)
        staged.append((variant, contract))
        tick()

    def again(item):
        variant, contract = item
        return variant, _redeploy(chain, contract, deployer=b"\x22" * 20)

    def ops() -> Iterator[Op]:
        for variant, contract in _recycled(staged, again):
            address = contract.request.address
            if variant == "mismatch":
                yield Op("submit", "submit.no-match", address.hex(),
                         lambda r=contract.request: service.submit_verification(r),
                         ("raises", "NoMatchError"))
                yield Op("query", "query.not-verified", address.hex(),
                         lambda a=address: service.query(a),
                         ("raises", "NotVerifiedError"))
                continue
            grade = Grade.EXACT if variant == "exact" else Grade.PARTIAL
            yield Op("submit", f"submit.{grade.value}", address.hex(),
                     lambda r=contract.request: service.submit_verification(r),
                     ("grade", grade), _no_warnings)
            yield Op("query", f"query.{grade.value}", address.hex(),
                     lambda a=address: service.query(a),
                     ("grade", grade), _fresh_view)

    return Workload("cap-24k", root, ops(), digest.hexdigest(), service)


# --- explorer-1k ---

EXPLORER_RECORDS = 1000
EXPLORER_POOL = 500   # submits and clones for 20 s with a code-hash index
EXPLORER_MIX = (["query"] * 15 + ["query-unknown"] + ["submit"] * 2
                + ["inherit"] * 2)
ZIPF_S = 1.0
_GOLDEN = 0.6180339887498949


def _explorer_size(rank: int) -> int:
    """Log-uniform 256 B..4 KiB (median 1 KiB), fixed per popularity rank
    so that every seed puts the same sizes on the hot addresses."""
    q = ((rank + 1) * _GOLDEN) % 1.0
    return int(256 * 16 ** q)


def _explorer_role(rank: int) -> str:
    """Fixed per rank for the same reason: 5% destroyed, 5% revived with
    other code, 10% flagged inline assembly, the rest plain."""
    if rank % 20 == 7:
        return "destroyed"
    if rank % 20 == 17:
        return "changed"
    if rank % 10 == 4:
        return "flagged"
    return "plain"


def build_explorer_1k(seed: int, root: Path, *, records: int = EXPLORER_RECORDS,
                      pool: int = EXPLORER_POOL, tick=_no_tick) -> Workload:
    """Read-heavy explorer traffic over a pre-populated store."""
    rng = random.Random(seed)
    digest = _Digest()
    service, compiler, chain = _world(root)
    library = _stage_library(rng, service, compiler, chain, digest)
    factory = b"\x33" * 20
    init_code = bytes.fromhex("600a600c600039600a6000f3")

    stored = []  # (address, role, contract, salt) by popularity rank
    for rank in range(records):
        role = _explorer_role(rank)
        contract = make_contract(rng, f"Ex{rank}", _explorer_size(rank), library,
                                 inline_assembly=role == "flagged")
        compiler.register(contract.request.sources, contract.request.settings,
                          contract.output)
        salt = None
        if role in ("destroyed", "changed"):
            salt = rng.randbytes(32)
            address = chain.mock_create2_deploy(
                factory, salt, init_code, contract.live_runtime,
                creation_input=contract.creation_input)
        else:
            address = chain.mock_deploy(contract.live_runtime,
                                        contract.creation_input,
                                        deployer=b"\x44" * 20)
        contract.request.address = address
        service.submit_verification(contract.request)
        digest.contract(contract)
        stored.append((address, role, contract, salt))
        tick()

    for address, role, contract, salt in stored:
        if role in ("destroyed", "changed"):
            chain.mock_selfdestruct(address)
        if role == "changed":
            other = rng.randbytes(len(contract.live_runtime))
            chain.mock_create2_deploy(factory, salt, init_code, other)
            digest.add(other)

    fresh = []
    for i in range(pool):
        contract = make_contract(rng, f"New{i}",
                                 _explorer_size(rng.randrange(records)), library)
        _register(compiler, chain, contract, deployer=b"\x55" * 20)
        digest.contract(contract)
        fresh.append(contract)
        tick()

    def clone_of(item):
        _, role, donor = item
        clone = chain.mock_deploy(donor.live_runtime, b"\x00",
                                  deployer=b"\x66" * 20)
        return clone, role, donor

    donors = [(address, role, contract) for address, role, contract, _ in stored
              if role in ("plain", "flagged")]
    clones = []
    for _ in range(pool):
        address, role, contract = donors[rng.randrange(len(donors))]
        clones.append(clone_of((address, role, contract)))
        digest.add(address)
        tick()

    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(records)))
    total = cumulative[-1]
    unknown = [rng.randbytes(20) for _ in range(64)]
    digest.add(*unknown)

    def ops() -> Iterator[Op]:
        kinds = _stratified(rng, EXPLORER_MIX)
        fresh_it = _recycled(fresh, lambda contract: _redeploy(
            chain, contract, deployer=b"\x55" * 20))
        clone_it = _recycled(clones, clone_of)
        while True:
            kind = next(kinds)
            if kind == "query":
                rank = bisect.bisect_left(cumulative, rng.random() * total)
                address, role, _, _ = stored[min(rank, records - 1)]
                call = (lambda a=address: service.query(a))
                if role in ("destroyed", "changed"):
                    yield Op("query", f"query.{role}", address.hex(), call,
                             ("raises", "StaleRecordError"))
                else:
                    yield Op("query", "query.exact", address.hex(), call,
                             ("grade", Grade.EXACT), _fresh_view)
            elif kind == "query-unknown":
                address = unknown[rng.randrange(len(unknown))]
                yield Op("query", "query.not-verified", address.hex(),
                         lambda a=address: service.query(a),
                         ("raises", "NotVerifiedError"))
            elif kind == "submit":
                contract = next(fresh_it)
                yield Op("submit", "submit.exact",
                         contract.request.address.hex(),
                         lambda r=contract.request: service.submit_verification(r),
                         ("grade", Grade.EXACT), _no_warnings)
            else:
                clone, role, donor = next(clone_it)
                call = (lambda a=clone: service.inherit_identical_runtime(a))
                if role == "flagged":
                    yield Op("inherit", "inherit.no-donor", clone.hex(), call,
                             ("raises", "NoDonorError"))
                else:
                    sources = donor.request.sources
                    yield Op("inherit", "inherit.exact", clone.hex(), call,
                             ("grade", Grade.EXACT),
                             lambda rec, s=sources: rec.sources == s and any(
                                 w.startswith("inherited-from:")
                                 for w in rec.warnings))

    return Workload("explorer-1k", root, ops(), digest.hexdigest(), service)


# --- attack-matrix ---

def _import_afresh(name: str) -> None:
    """Import the package again from its files, as a fresh process would,
    then put back the copy already loaded, which the workload uses."""
    def ours():
        return [key for key in sys.modules
                if key == "srcverify" or key.startswith("srcverify.")]

    loaded = {key: sys.modules.pop(key) for key in ours()}
    try:
        importlib.import_module(name)
    finally:
        for key in ours():
            del sys.modules[key]
        sys.modules.update(loaded)


def build_attack_matrix(seed: int, root: Path, *, tick=_no_tick) -> Workload:
    """Every (scenario x profile) cell through run_poc, in a seeded order
    per pass.

    Each cell stages its own scenario inside its timing, so nothing is
    staged ahead.  What a fresh process waits for before its first cell is
    loading the package and its attack lab, and set-up does just that, so
    that work moved to import time shows in set-up.
    """
    _import_afresh("srcverify.attacklab")
    rng = random.Random(seed)
    cells = [(sid, profile) for sid in sorted(attacklab.SCENARIOS)
             for profile in PROFILES]

    def ops() -> Iterator[Op]:
        while True:
            order = list(cells)
            rng.shuffle(order)
            for sid, profile in order:
                expected = attacklab.EXPECTED_MATRIX[(sid, profile)]
                yield Op("cell", f"cell.{sid}.{profile}", f"{sid}/{profile}",
                         lambda s=sid, p=profile: attacklab.run_poc(s, p),
                         ("cell", expected))

    digest = _Digest()
    digest.add(seed, cells)
    return Workload("attack-matrix", root, ops(), digest.hexdigest())


BUILDERS = {
    "cap-24k": build_cap_24k,
    "explorer-1k": build_explorer_1k,
    "attack-matrix": build_attack_matrix,
}
