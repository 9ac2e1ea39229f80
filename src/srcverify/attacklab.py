"""Executable exploit scenarios against the verifier profiles.

Eight scenarios (R1..R8) each stage a deception in a fresh Lab (a mock
chain, fixture compiler, record store and a VerifyService built from the
profile under test), run the attacker's submissions through the service,
and evaluate an observable predicate:

  R1-R3  a record ends up holding sources the deployer never wrote
  R4-R7  what the service stores or displays diverges from live chain or
         store state
  R8     the disclosed identity admits two readings

assert_matrix() replays every (scenario, profile) cell and compares it
against the expected exploitability table.  GUARDS records, per config
field, the scenario its naive value reopens; scan_config() (the static
counterpart) and flip_field() both read it.
filter_r1_candidates() narrows a bytecode corpus to codes whose trailing
0.4-era metadata block makes them replayable by a hand-written twin.

A scenario body stages through Lab.deploy and Lab.request and returns a
Verdict: evidence, plus the causes that blocked the attack (the
VerifierError a guard raised, or a guard name), none if it was exploited.
run_poc alone turns a Verdict into an ExploitOutcome with guard names, and
saves the exported chain.json once the body has returned.  Every scenario
runs in its own Lab, so scenarios can run in parallel.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field, replace
from hashlib import sha256
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .bytecode import disassemble
from .chain import MockChain
from .compiler import (
    CompilationOutput,
    CompileSettings,
    FixtureCompiler,
    VerificationRequest,
    make_creation_code,
)
from .errors import (
    MatrixMismatchError,
    NoDonorError,
    SetupFailureError,
    StaleRecordError,
    UnknownScenarioError,
    VerifierError,
)
from .linker import PlaceholderForm, PlaceholderMode, PlaceholderSpan
from .matching import MetadataLabeler, Requirement
from .metadata import (
    INJECTED_FILENAME,
    LEGACY_BLOCK_LENGTH,
    LEGACY_MARKER,
    injected_library_source,
    make_metadata_block,
)
from .service import (
    HARDENED,
    NAIVE_SOURCIFY_LIKE,
    PROFILES,
    UNVERIFIED_LIBRARY_WARNING,
    VerifierConfig,
    VerifyService,
    get_profile,
)
from .simulator import ImmutableStrategy
from .store import RecordStore

COMPETITIVE_VERIFICATION = "competitive-verification"
SOURCE_SCAM = "source-scam"

DISCLOSURE_GUARD = "FullyQualifiedDisclosure"


@dataclass(frozen=True)
class PocScenario:
    """One replayable deception, described and executable."""

    id: str
    title: str
    consequence: str            # who profits: competitive-verification / source-scam
    violates: str               # which service promise the success breaks
    setup: str
    attack: str
    success_predicate: str
    run: Callable[["Lab"], "Verdict"] = field(repr=False, compare=False)

    def describe(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "consequence": self.consequence,
            "violates": self.violates,
            "setup": self.setup,
            "attack": self.attack,
            "successPredicate": self.success_predicate,
        }


@dataclass(frozen=True)
class ExploitOutcome:
    """What one scenario did against one profile."""

    scenario_id: str
    profile: str
    exploited: bool
    guards: tuple[str, ...] = ()
    evidence: str = ""

    @property
    def result(self) -> str:
        return "exploited" if self.exploited else "blocked"


class Verdict(NamedTuple):
    """What a scenario body observed against the profile under test.

    The attack was blocked exactly when causes names what blocked it: each
    cause is a VerifierError a guard raised, or a guard's name.
    """

    evidence: str
    causes: tuple[VerifierError | str, ...] = ()


def _guard_names(causes: tuple[VerifierError | str, ...]) -> tuple[str, ...]:
    """Each guard once: an error names its class and its own causes' classes."""
    names = []
    for cause in causes:
        if isinstance(cause, str):
            names.append(cause)
            continue
        for exc in (cause, *getattr(cause, "causes", ())):
            names.append(type(exc).__name__.removesuffix("Error"))
    return tuple(dict.fromkeys(names))


class Lab:
    """One scenario's world: a fresh chain, compiler, store and a service
    under the profile being tested, and the folder requests export to."""

    def __init__(self, config: VerifierConfig, root: Path, export: Path | None):
        self.config = config
        self.root = root
        self.export = export
        self.chain = MockChain()
        self.compiler = FixtureCompiler()
        self.store = RecordStore(root / "records")
        self.service = VerifyService(config, self.compiler, self.chain, self.store)

    def deploy(self, runtime: bytes, deployer: bytes) -> bytes:
        """Place runtime on the chain behind the fixture constructor."""
        return self.chain.mock_deploy(runtime, make_creation_code(runtime),
                                      deployer=deployer)

    def request(self, sources: dict[str, str], target: str,
                output: CompilationOutput, address: bytes, *,
                export_as: str | None = None) -> VerificationRequest:
        """Make sources compile to output, and ask to verify them at address.

        With export_as the request is also written to the export folder.
        """
        settings = CompileSettings(target=target)
        self.compiler.register(sources, settings, output)
        request = VerificationRequest(sources=sources, settings=settings,
                                      address=address)
        if export_as is not None and self.export is not None:
            (self.export / f"request-{export_as}.json").write_text(
                request.to_json(), encoding="utf-8")
        return request


# --- scenario bodies ---

_BODY = bytes.fromhex("6080604052600a600055")
_VICTIM = bytes.fromhex("11" * 20)
_ATTACKER = bytes.fromhex("bb" * 20)


def _metadata(label: bytes) -> bytes:
    """A metadata block whose digest is sha2-256 of label.

    Digests (and the R4 salt) need only be distinct 32-byte values; sha2-256
    is also what solc puts in its IPFS metadata multihash.
    """
    return make_metadata_block(sha256(label).digest())


def _compiled(runtime: bytes, **extra) -> CompilationOutput:
    """Output whose creation code is the fixture constructor for runtime."""
    return CompilationOutput(creation_code=make_creation_code(runtime),
                             runtime_template=runtime, **extra)


def _run_r1(lab: Lab) -> Verdict:
    """Hand-assembled twin earns a partial match, inheritance labels the victim."""
    victim_runtime = _BODY + _metadata(b"victim project build")
    forged_runtime = _BODY + _metadata(b"hand-assembled twin")
    victim = lab.deploy(victim_runtime, _VICTIM)
    twin = lab.deploy(victim_runtime, _ATTACKER)

    sources = {"asm/twin.sol": "contract Twin { /* verbatim runtime bytes */ }\n"}
    request = lab.request(
        sources, "asm/twin.sol:Twin",
        _compiled(forged_runtime, uses_inline_assembly=True), twin,
        export_as="twin")
    try:
        twin_record = lab.service.submit_verification(request)
    except VerifierError as exc:
        return Verdict(f"twin submission rejected: {exc}", (exc,))
    try:
        lab.service.inherit_identical_runtime(victim)
    except NoDonorError as exc:
        return Verdict(
            "victim address stays unlabeled; the twin's record is quarantined "
            f"behind warnings {twin_record.warnings}", (exc,))
    labeled = lab.store.load(victim)
    assert labeled.sources == sources
    return Verdict(
        f"victim 0x{victim.hex()} auto-labeled grade={labeled.grade.value} with "
        "attacker sources after a metadata-swap partial match on the twin")


def _run_r2(lab: Lab) -> Verdict:
    """Constructor that returns someone else's runtime bytes."""
    victim_runtime = _BODY + _metadata(b"victim defi build")
    victim = lab.deploy(victim_runtime, _VICTIM)

    claimed = bytes.fromhex("6001600101") + _metadata(b"forwarder claim")
    request = lab.request(
        {"exploit/forwarder.sol":
         "contract Forwarder { constructor() { /* early return */ } }\n"},
        "exploit/forwarder.sol:Forwarder",
        CompilationOutput(
            creation_code=make_creation_code(
                victim_runtime, extra=_metadata(b"forwarder wrapper")),
            runtime_template=claimed),
        victim, export_as="forwarder")
    try:
        record = lab.service.submit_verification(request)
    except VerifierError as exc:
        if not lab.config.accept_imported_records:
            return Verdict(
                "foreign constructor return rejected and no import path exists",
                (exc,))
    else:
        return Verdict(
            f"attacker sources stored for victim 0x{victim.hex()} at grade "
            f"{record.grade.value}; the claimed template never matched the chain")

    sidecar = RecordStore(lab.root / "sidecar")
    VerifyService(NAIVE_SOURCIFY_LIKE, lab.compiler, lab.chain,
                  sidecar).submit_verification(request)
    lab.service.import_store(sidecar)
    assert lab.store.load(victim).sources == request.sources
    return Verdict(
        "direct submission failed but the poisoned record was adopted "
        "wholesale from a naive sidecar store")


def _run_r3(lab: Lab) -> Verdict:
    """Abstract contract with zero local bytecode claims a live deployment."""
    victim_runtime = _BODY + _metadata(b"victim wallet build")
    victim = lab.deploy(victim_runtime, _VICTIM)
    request = lab.request(
        {"abstract/hollow.sol":
         "abstract contract Hollow { function f() external virtual; }\n"},
        "abstract/hollow.sol:Hollow",
        CompilationOutput(creation_code=b"", runtime_template=b""),
        victim, export_as="hollow")
    try:
        record = lab.service.submit_verification(request)
    except VerifierError as exc:
        return Verdict(f"empty local bytecode rejected: {exc}", (exc,))
    return Verdict(
        f"zero-byte compilation graded {record.grade.value} for victim "
        f"0x{victim.hex()}; every byte of the creation tx passed as 'arguments'")


def _run_r4(lab: Lab) -> Verdict:
    """Metamorphic redeploy: same address, different code, stale record."""
    factory = bytes.fromhex("fa" * 20)
    salt = sha256(b"metamorphic slot").digest()
    v1 = _BODY + _metadata(b"honest vault v1")
    v2 = bytes.fromhex("33ff") + _metadata(b"drainer v2")
    output = _compiled(v1)
    address = lab.chain.mock_create2_deploy(factory, salt, output.creation_code, v1)
    request = lab.request(
        {"vault/vault.sol": "contract Vault { uint256 shares; }\n"},
        "vault/vault.sol:Vault", output, address, export_as="vault")
    record = lab.service.submit_verification(request)

    lab.chain.mock_selfdestruct(address)
    revived = lab.chain.mock_create2_deploy(factory, salt, output.creation_code, v2)
    if revived != address:
        raise SetupFailureError("create2 revival produced a different address")

    try:
        view = lab.service.query(address)
    except StaleRecordError as exc:
        lenient = lab.service.query(address, strict=False)
        return Verdict(
            f"read-time recheck stamped the record {lenient.freshness.value} "
            "and refused to serve it as current", (exc,))
    assert lab.chain.get_code_hash(address) != record.code_hash_at_verification
    return Verdict(
        f"query serves the v1 sources with no staleness signal "
        f"(freshness={view.freshness}) although the code at 0x{address.hex()} "
        "was destroyed and replaced")


def _run_r5(lab: Lab) -> Verdict:
    """Linked library address hosts code nobody verified; no one is told."""
    lib_runtime = bytes.fromhex("33ff") + _metadata(b"scam math lib")
    library = lab.chain.mock_deploy(lib_runtime, bytes.fromhex("00"),
                                    deployer=_ATTACKER)

    template = (b"\x60\x80" + b"\x73" + bytes(20) + b"\x00"
                + _metadata(b"vault with lib"))
    linked = bytearray(template)
    linked[3:23] = library
    output = _compiled(template, link_refs=[PlaceholderSpan(
        3, "lib/safemath.sol", "SafeMath", PlaceholderForm.LEGACY)])
    # the mock records the unlinked creation as tx input: the factory-style
    # deploy keeps the creation leg byte-identical on every profile
    address = lab.chain.mock_deploy(bytes(linked), output.creation_code)
    request = lab.request(
        {"contracts/vault.sol": "contract Vault { /* uses SafeMath */ }\n",
         "lib/safemath.sol": "library SafeMath { /* looks audited */ }\n"},
        "contracts/vault.sol:Vault", output, address, export_as="vault")
    try:
        record = lab.service.submit_verification(request)
    except VerifierError as exc:
        return Verdict(f"submission rejected outright: {exc}", (exc,))
    flagged = [w for w in record.warnings
               if w.startswith(UNVERIFIED_LIBRARY_WARNING)]
    if flagged:
        return Verdict(
            f"record stored but the binding is called out: {flagged[0]}",
            (UNVERIFIED_LIBRARY_WARNING,))
    return Verdict(
        f"record binds library at 0x{library.hex()} whose live code was never "
        "verified, and carries no warning about it")


def _run_r6(lab: Lab) -> Verdict:
    """Comparison-masking abuse: regex spillover and differential mislabel."""
    # arm one: a link table whose placeholder text is a regex that also
    # matches the owner constant, so naive linking rewrites both sites
    controller = bytes.fromhex("ab" * 20)
    local = (bytes.fromhex("6080604052") + b"\x73" + bytes(20)
             + bytes.fromhex("601457") + b"\x73" + b"\x22" * 20
             + bytes.fromhex("5b600055f3"))
    onchain = (bytes.fromhex("6080604052") + b"\x73" + controller
               + bytes.fromhex("601457") + b"\x73" + controller
               + bytes.fromhex("5b600055f3"))
    puzzle = lab.deploy(onchain, _ATTACKER)
    request = lab.request(
        {"contracts/puzzle.sol":
         "contract Puzzle { address constant OWNER = "
         "0x2222222222222222222222222222222222222222; }\n"},
        "contracts/puzzle.sol:Puzzle",
        _compiled(local, link_refs=[PlaceholderSpan(
            6, "$.{37}|2{40}|", "foo", PlaceholderForm.LEGACY)]),
        puzzle, export_as="puzzle")
    try:
        record = lab.service.submit_verification(request)
    except VerifierError as exc:
        spillover_refused = exc
    else:
        return Verdict(
            f"stored source displays owner 0x22..22 but live code at "
            f"0x{puzzle.hex()} holds 0x{controller.hex()} at that site "
            f"(grade {record.grade.value}, regex placeholder spillover)")

    # arm two: a stray 0xa2 in real code drags a 53-byte window into the
    # differential metadata span, masking the backdoor byte at offset 9
    innocent = (bytes.fromhex("6080604052") + b"\xa2"
                + bytes.fromhex("6001600055") + bytes(8)
                + _metadata(b"token build"))
    backdoored = bytearray(innocent)
    backdoored[9] = 0xFF
    variant = bytearray(innocent[:19] + _metadata(b"token build with injected lib"))
    variant[9] = 0x01
    token = lab.deploy(bytes(backdoored), _ATTACKER)
    request = lab.request(
        {"contracts/token.sol": "contract Token { uint8 fee = 1; }\n"},
        "contracts/token.sol:Token", _compiled(innocent), token,
        export_as="token")
    injected = dict(request.sources)
    injected[INJECTED_FILENAME] = injected_library_source("Token")
    lab.compiler.register(injected, request.settings, _compiled(bytes(variant)))
    try:
        record = lab.service.submit_verification(request)
    except VerifierError as exc:
        return Verdict(
            "both masking arms failed: spans stay anchored to declared offsets "
            "and scanned patterns", (spillover_refused, exc))
    return Verdict(
        f"differential labeling masked the 0xff byte at offset 9; live "
        f"token at 0x{token.hex()} diverges from the stored source "
        f"(grade {record.grade.value})")


def _run_r7(lab: Lab) -> Verdict:
    """Source path that climbs out of its record and rewrites a foreign one."""
    treasury_runtime = _BODY + _metadata(b"treasury build")
    treasury = lab.deploy(treasury_runtime, _VICTIM)
    victim_record = lab.service.submit_verification(lab.request(
        {"contracts/treasury.sol": "contract Treasury { address owner; }\n"},
        "contracts/treasury.sol:Treasury", _compiled(treasury_runtime),
        treasury))

    shell_runtime = bytes.fromhex("6002600055") + _metadata(b"shell build")
    evil_path = (f"../../../{victim_record.grade.value}/"
                 f"{victim_record.address}/sources/contracts/treasury.sol")
    shell = lab.deploy(shell_runtime, _ATTACKER)
    request = lab.request(
        {"contracts/shell.sol": "contract Shell { uint256 x; }\n",
         evil_path: "contract Treasury { address owner = tx.origin; }\n"},
        "contracts/shell.sol:Shell", _compiled(shell_runtime), shell,
        export_as="shell")

    before = lab.store.snapshot()
    try:
        lab.service.submit_verification(request)
    except VerifierError as exc:
        untouched = lab.store.snapshot() == before
        return Verdict(f"path rejected at intake; store unchanged: {untouched}",
                       (exc,))
    tampered = lab.store.verify_integrity(treasury)
    assert tampered == ["contracts/treasury.sol"]
    assert "tx.origin" in lab.store.load(treasury).sources["contracts/treasury.sol"]
    return Verdict(
        f"foreign record 0x{treasury.hex()} now serves attacker text; its "
        f"manifest digests flag {tampered} as tampered")


def _run_r8(lab: Lab) -> Verdict:
    """Two same-named contracts, one bare display name."""
    runtime = _BODY + _metadata(b"token pair build")
    address = lab.deploy(runtime, _ATTACKER)
    request = lab.request(
        {"contracts/token.sol": "contract Token { function mint() internal {} }\n",
         "test/token.sol": "contract Token { function mint() public {} }\n"},
        "test/token.sol:Token", _compiled(runtime), address, export_as="token")

    record = lab.service.submit_verification(request)
    view = lab.service.query(address)
    same_named = [p for p, body in record.sources.items()
                  if "contract Token" in body]
    assert len(same_named) == 2
    if ":" in view.displayed_target:
        return Verdict(f"view pins the identity to {view.displayed_target!r}",
                       (DISCLOSURE_GUARD,))
    return Verdict(
        f"view names the contract {view.displayed_target!r} and serves "
        f"{len(view.source_files)} file(s) for {len(same_named)} "
        "same-named declarations; a reader cannot tell which one is live")


SCENARIOS: dict[str, PocScenario] = {
    scenario.id: scenario for scenario in (
        PocScenario(
            id="R1",
            title="metadata-swap twin plus inheritance",
            consequence=COMPETITIVE_VERIFICATION,
            violates="only-genuine-sources-verify",
            setup="victim and attacker deployments share one runtime; the "
                  "attacker's fixture output equals it with a swapped "
                  "metadata hash and is flagged as hand-written assembly",
            attack="verify the attacker's twin (partial match), then inherit "
                   "the record onto the victim address",
            success_predicate="the victim address holds a record whose "
                              "sources the deployer never submitted",
            run=_run_r1),
        PocScenario(
            id="R2",
            title="constructor returns foreign runtime",
            consequence=COMPETITIVE_VERIFICATION,
            violates="only-genuine-sources-verify",
            setup="a victim contract is live; the attacker's creation code "
                  "returns the victim's runtime while claiming an unrelated "
                  "template",
            attack="submit the forwarder source for the victim address; if "
                   "refused, poison a naive sidecar and import its records",
            success_predicate="the victim address holds a record with the "
                              "attacker's sources",
            run=_run_r2),
        PocScenario(
            id="R3",
            title="empty local bytecode prefix",
            consequence=COMPETITIVE_VERIFICATION,
            violates="only-genuine-sources-verify",
            setup="a victim contract is live; the attacker's source is "
                  "abstract and compiles to zero bytes",
            attack="submit the abstract source for the victim address",
            success_predicate="the victim address holds a record although "
                              "nothing was compared",
            run=_run_r3),
        PocScenario(
            id="R4",
            title="destroy and redeploy behind a verified record",
            consequence=SOURCE_SCAM,
            violates="display-matches-live-code",
            setup="a factory places honest code at a create2 address and it "
                  "verifies; the factory then destroys it and revives the "
                  "address with different code",
            attack="query the verified record after the swap",
            success_predicate="the old sources are served with no staleness "
                              "signal while live code differs",
            run=_run_r4),
        PocScenario(
            id="R5",
            title="unverified linked library",
            consequence=SOURCE_SCAM,
            violates="display-matches-live-code",
            setup="the main contract links a library address that hosts "
                  "never-verified attacker code",
            attack="verify the main contract with a benign-looking library "
                   "source file",
            success_predicate="the record stores without any unverified-"
                              "library warning",
            run=_run_r5),
        PocScenario(
            id="R6",
            title="comparison masking via placeholders or differential spans",
            consequence=SOURCE_SCAM,
            violates="display-matches-live-code",
            setup="arm one plants a regex-shaped link table entry next to an "
                  "owner constant; arm two plants a stray block-head byte so "
                  "differential labeling swallows a code window",
            attack="verify attacker deployments whose live bytes differ from "
                   "the claimed template only inside the masked regions",
            success_predicate="a record stores although live code diverges "
                              "from the template outside real metadata",
            run=_run_r6),
        PocScenario(
            id="R7",
            title="path traversal into a foreign record",
            consequence=SOURCE_SCAM,
            violates="display-matches-live-code",
            setup="a victim record is stored; the attacker submits sources "
                  "whose virtual path climbs into the victim's directory",
            attack="verify the attacker's own contract with the crafted path",
            success_predicate="the victim record's source file changes and "
                              "no longer matches its manifest digest",
            run=_run_r7),
        PocScenario(
            id="R8",
            title="ambiguous bare-name disclosure",
            consequence=SOURCE_SCAM,
            violates="disclosure-unambiguous",
            setup="one submission carries two files that both declare the "
                  "same contract name; the deceptive one is the real target",
            attack="verify, then query the record",
            success_predicate="the view cannot tell a reader which of the "
                              "two declarations is the live one",
            run=_run_r8),
    )
}


def run_poc(scenario_id: str, profile: str | VerifierConfig,
            export_dir: str | Path | None = None) -> ExploitOutcome:
    """Stage one scenario against one profile on fresh state."""
    scenario = SCENARIOS.get(scenario_id.upper())
    if scenario is None:
        raise UnknownScenarioError(
            f"unknown scenario {scenario_id!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}")
    config = profile if isinstance(profile, VerifierConfig) else get_profile(profile)
    export = Path(export_dir) if export_dir is not None else None
    if export is not None:
        export.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"poc-{scenario.id.lower()}-") as tmp:
        try:
            lab = Lab(config, Path(tmp), export)
            verdict = scenario.run(lab)
            if export is not None:
                lab.chain.save_fixture(export / "chain.json")
        except VerifierError as exc:
            raise SetupFailureError(
                f"{scenario.id} against {config.name} leaked {type(exc).__name__}: "
                f"{exc}") from exc
        except OSError as exc:
            raise SetupFailureError(f"{scenario.id} could not stage: {exc}") from exc
    return ExploitOutcome(scenario.id, config.name, not verdict.causes,
                          _guard_names(verdict.causes), verdict.evidence)


# --- the expected exploitability table ---

_E = "NaiveEtherscanLike"
_S = "NaiveSourcifyLike"
_B = "NaiveBlockscoutLike"
_H = "Hardened"

EXPECTED_MATRIX: dict[tuple[str, str], tuple[str, str | None]] = {
    ("R1", _E): ("exploited", None),
    ("R1", _S): ("exploited", None),
    ("R1", _B): ("exploited", None),
    ("R1", _H): ("blocked", "NoDonor"),
    ("R2", _E): ("blocked", "NotAPrefix"),
    ("R2", _S): ("exploited", None),
    ("R2", _B): ("exploited", None),
    ("R2", _H): ("blocked", "ForeignReturnData"),
    ("R3", _E): ("blocked", "EmptyLocalBytecode"),
    ("R3", _S): ("exploited", None),
    ("R3", _B): ("exploited", None),
    ("R3", _H): ("blocked", "EmptyLocalBytecode"),
    ("R4", _E): ("exploited", None),
    ("R4", _S): ("exploited", None),
    ("R4", _B): ("exploited", None),
    ("R4", _H): ("blocked", "StaleRecord"),
    ("R5", _E): ("exploited", None),
    ("R5", _S): ("exploited", None),
    ("R5", _B): ("exploited", None),
    ("R5", _H): ("blocked", UNVERIFIED_LIBRARY_WARNING),
    ("R6", _E): ("blocked", "NotAPrefix"),
    ("R6", _S): ("exploited", None),
    ("R6", _B): ("exploited", None),
    ("R6", _H): ("blocked", "NoMatch"),
    ("R7", _E): ("blocked", "PathEscape"),
    ("R7", _S): ("exploited", None),
    ("R7", _B): ("exploited", None),
    ("R7", _H): ("blocked", "PathEscape"),
    ("R8", _E): ("exploited", None),
    ("R8", _S): ("blocked", DISCLOSURE_GUARD),
    ("R8", _B): ("exploited", None),
    ("R8", _H): ("blocked", DISCLOSURE_GUARD),
}


def assert_matrix() -> dict[tuple[str, str], ExploitOutcome]:
    """Run all 32 cells and compare against the expected table."""
    outcomes: dict[tuple[str, str], ExploitOutcome] = {}
    deviations: list[str] = []
    for scenario_id in sorted(SCENARIOS):
        for profile in PROFILES.values():
            outcome = run_poc(scenario_id, profile)
            outcomes[(scenario_id, profile.name)] = outcome
            expected_result, required_guard = EXPECTED_MATRIX[
                (scenario_id, profile.name)]
            if outcome.result != expected_result:
                deviations.append(
                    f"{scenario_id} x {profile.name}: expected "
                    f"{expected_result}, got {outcome.result} "
                    f"(guards={list(outcome.guards)})")
            elif required_guard is not None and required_guard not in outcome.guards:
                deviations.append(
                    f"{scenario_id} x {profile.name}: blocked, but guard "
                    f"{required_guard} missing from {list(outcome.guards)}")
    if deviations:
        raise MatrixMismatchError(
            "exploitability matrix deviates:\n" + "\n".join(deviations))
    return outcomes


# --- the guard table ---

class Guard(NamedTuple):
    """What one config field guards, and how its naive setting reads."""

    scenario: str | None     # the scenario the naive value reopens
    naive: object            # the field's naive value
    note: str = ""           # scan_config's finding for the naive value
    canonical: bool = False  # the field flipped to demonstrate the scenario
    # the values other fields must hold for the naive value to count
    requires: Mapping[str, object] = {}


# Keyed by config field, in scan_config's order.
GUARDS: dict[str, Guard] = {
    "inherit_flagged_donors": Guard(
        "R1", True,
        "runtime-hash inheritance accepts donors whose match came from "
        "hand-written assembly, auto-labeling every identical deployment",
        canonical=True),
    "immutable_strategy": Guard(
        "R2", ImmutableStrategy.SIM_TRUSTED,
        "simulated constructor return is compared against the chain "
        "without checking it against the compiled template",
        requires={"requirement": Requirement.EITHER},
        canonical=True),
    "accept_imported_records": Guard(
        "R2", True,
        "records imported from another instance are adopted wholesale, "
        "extending any upstream exploit"),
    "strict_creation_prefix": Guard(
        "R3", False,
        "zero local bytes prefix-match any creation transaction, and "
        "trailing bytes pass unchecked as constructor arguments",
        canonical=True),
    "recheck_code_hash_on_read": Guard(
        "R4", False,
        "queries serve stored sources without comparing the live code "
        "hash, so destroy-and-redeploy goes unnoticed", canonical=True),
    "require_verified_libraries": Guard(
        "R5", False,
        "library bindings to never-verified addresses are stored "
        "without a warning", canonical=True),
    "requirement": Guard(
        "R5", Requirement.CREATION_ONLY,
        "the runtime leg never runs, so library bindings in the live code "
        "go unchecked"),
    "placeholder_mode": Guard(
        "R6", PlaceholderMode.REGEX_NAIVE,
        "placeholder text is compiled as an unescaped regex, so crafted "
        "link names rewrite code sites beyond the declared span",
        requires={"requirement": Requirement.EITHER}),
    "metadata_labeler": Guard(
        "R6", MetadataLabeler.DIFFERENTIAL,
        "differential span expansion anchors on a bare block-head byte "
        "and can swallow real code into the masked region", canonical=True),
    "allow_parent_path_refs": Guard(
        "R7", True,
        "virtual source paths pass through unsanitized and can rewrite "
        "a foreign record's files", canonical=True),
    "disclose_full_paths": Guard(
        "R8", False,
        "views show bare contract names and basenames, which collide "
        "when two files declare the same name", canonical=True),
    "allow_record_replacement": Guard(None, False),
}

_RESIDUAL_NOTE = (
    "partial-matching", "R1",
    "a hand-crafted twin can still earn a metadata-stripped partial match; "
    "the hardened stance surfaces it (inline-assembly warning, donor "
    "refusal) rather than eliminating it")


def scan_config(config: VerifierConfig) -> list[tuple[str, str, str]]:
    """Map enabled unsafe toggles to the vulnerability class each reproduces."""
    return [_RESIDUAL_NOTE] + [
        (name, guard.scenario, guard.note) for name, guard in GUARDS.items()
        if guard.scenario is not None and getattr(config, name) == guard.naive
        and all(getattr(config, other) == value
                for other, value in guard.requires.items())]


def flip_field(config: VerifierConfig, field_name: str) -> VerifierConfig:
    """Toggle one config field between its hardened and naive setting."""
    if field_name not in GUARDS:
        raise ValueError(f"{field_name!r} is not a tunable config field")
    naive = GUARDS[field_name].naive
    flipped = (getattr(HARDENED, field_name)
               if getattr(config, field_name) == naive else naive)
    return replace(config, **{field_name: flipped})


# --- the 0.4-era candidate filter ---

_LEGACY_HEAD = LEGACY_MARKER + b"\x58\x20"
_LEGACY_TAIL = b"\x00\x29"


def _is_r1_candidate(code: bytes) -> bool:
    if len(code) < LEGACY_BLOCK_LENGTH:
        return False
    block_start = len(code) - LEGACY_BLOCK_LENGTH
    if not code.startswith(_LEGACY_HEAD, block_start):
        return False
    if not code.endswith(_LEGACY_TAIL):
        return False
    body = code[:block_start]
    instructions = disassemble(body)
    for ins in instructions:
        if ins.truncated:
            # the final push would swallow the trailing block as data
            return False
        if ins.is_push and ins.opcode - 0x60 + 1 >= 2 and \
                ins.immediate[:1] == b"\x00":
            return False
        if body.startswith(LEGACY_MARKER, ins.offset):
            return False
    return True


def filter_r1_candidates(
        corpus: list[tuple[str, bytes]]) -> list[tuple[str, bytes]]:
    """Keep codes a hand-written twin could replay.

    A candidate ends with exactly one well-formed 0.4-era trailing metadata
    block, contains no second block head at any instruction boundary, and
    has no multi-byte push whose immediate starts with a zero octet (the
    optimizer never emits those, so the body cannot be regenerated).
    Decoding walks real instructions so push immediates are never misread
    as opcodes.
    """
    return [(address, code) for address, code in corpus
            if _is_r1_candidate(code)]


# --- scenario corpus on disk ---

def export_scenario_corpus(root: str | Path,
                           profile: str | VerifierConfig = HARDENED) -> list[Path]:
    """Write one folder per scenario: chain fixture, requests, manifest."""
    root = Path(root)
    written = []
    for scenario_id in sorted(SCENARIOS):
        scenario = SCENARIOS[scenario_id]
        directory = root / scenario_id.lower()
        outcome = run_poc(scenario_id, profile, export_dir=directory)
        manifest = scenario.describe()
        manifest["expected"] = {
            name: {"result": result, "guard": guard}
            for (sid, name), (result, guard) in EXPECTED_MATRIX.items()
            if sid == scenario_id
        }
        manifest["observed"] = {
            "profile": outcome.profile,
            "result": outcome.result,
            "guards": list(outcome.guards),
        }
        (directory / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        written.append(directory)
    return written
