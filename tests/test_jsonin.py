"""The readers of outside JSON: a request, a chain fixture and a compiler's
artifact each return their object or raise their own VerifierError, whatever
the document."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srcverify.chain import MockChain
from srcverify.compiler import (
    CompilationOutput,
    VerificationRequest,
    _artifact,
)
from srcverify.errors import (
    CompilerFailureError,
    MalformedFixtureError,
    MalformedRequestError,
)

ADDRESS = "0x" + "11" * 20

# every key the three readers look up, and an address a fixture is keyed by
NAMES = ["sources", "settings", "address", "libraries", "compilerVersion",
         "optimizerRuns", "evmVersion", "target", "creation", "runtime",
         "immutableReferences", "linkReferences", "offset", "length", "name",
         "filePath", "libName", "form", "constructorParams",
         "usesInlineAssembly", "runtimeCode", "creationTx", "hash", "input",
         "deployer", "destroyed", "a.sol", ADDRESS]

texts = st.sampled_from(["", "0x", "0xzz", "0x123", ADDRESS, "0x" + "22" * 32,
                         "legacy", "hash", "uint256", "a.sol", "a.sol:A"]
                        ) | st.text(max_size=6)
documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(NAMES), inner,
                                     max_size=5)),
    max_leaves=24)


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fixture") / "chain.json"


def read_fixture(text, path):
    path.write_text(text, encoding="utf-8")
    return MockChain.load_fixture(path)


# each reader, what it returns and the one error it raises
READERS = {
    "request": (lambda text, path: VerificationRequest.from_json(text),
                VerificationRequest, MalformedRequestError),
    "fixture": (read_fixture, MockChain, MalformedFixtureError),
    "artifact": (lambda text, path: _artifact(text), CompilationOutput,
                 CompilerFailureError),
}


def returns_or_refuses(reader: str, text: str, path) -> None:
    read, made, refusal = READERS[reader]
    try:
        result = read(text, path)
    except refusal:
        return
    assert isinstance(result, made)


@pytest.mark.parametrize("reader", READERS)
@given(document=documents)
def test_only_the_readers_own_error_leaves(fixture_path, reader, document):
    returns_or_refuses(reader, json.dumps(document), fixture_path)


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("text", [
    DEEP,
    '{"sources": %s, "runtime": %s}' % (DEEP, DEEP),
    '{"%s": {"runtimeCode": %s}}' % (ADDRESS, DEEP),
], ids=["document", "request-and-artifact-field", "fixture-field"])
def test_nesting_past_the_recursion_limit_is_refused(fixture_path, reader,
                                                     text):
    read, _, refusal = READERS[reader]
    with pytest.raises(refusal):
        read(text, fixture_path)


@pytest.mark.parametrize("reader", READERS)
def test_integer_past_the_digit_limit_is_no_bare_value_error(fixture_path,
                                                             reader):
    # where the digit limit is off (PYTHONINTMAXSTRDIGITS=0, or a Python
    # before 3.10.7) it parses, and the reader takes or refuses it like any
    # integer
    runs = "9" * 5_000
    returns_or_refuses(
        reader, '{"sources": {"a.sol": "x"}, "settings": {"optimizerRuns": '
        '%s}, "creation": "0x", "runtime": "0x", "%s": {"destroyed": %s}}'
        % (runs, ADDRESS, runs), fixture_path)
