"""Unit tests for client endpoint addressing (repro.runtime.ipc)."""

import pytest

from repro.runtime.ipc import (
    TcpEndpoint,
    UnixEndpoint,
    parse_endpoint,
)
from repro.spread.client_api import SpreadClient


# ----------------------------------------------------------------------
# Endpoint types
# ----------------------------------------------------------------------


def test_unix_endpoint_requires_path():
    assert UnixEndpoint("/tmp/x.sock").path == "/tmp/x.sock"
    with pytest.raises(ValueError):
        UnixEndpoint("")


def test_tcp_endpoint_validates_host_and_port():
    endpoint = TcpEndpoint("example.com", 4803)
    assert (endpoint.host, endpoint.port) == ("example.com", 4803)
    with pytest.raises(ValueError):
        TcpEndpoint("", 4803)
    with pytest.raises(ValueError):
        TcpEndpoint("h", 0)
    with pytest.raises(ValueError):
        TcpEndpoint("h", 70000)
    with pytest.raises(ValueError):
        TcpEndpoint("h", True)


def test_endpoint_str_round_trips_through_parse():
    for endpoint in (UnixEndpoint("/tmp/x.sock"), TcpEndpoint("h", 1)):
        assert parse_endpoint(str(endpoint)) == endpoint


# ----------------------------------------------------------------------
# parse_endpoint
# ----------------------------------------------------------------------


def test_parse_bare_path_is_unix():
    assert parse_endpoint("/tmp/ring.sock") == UnixEndpoint("/tmp/ring.sock")


def test_parse_specs():
    assert parse_endpoint("unix:///tmp/a.sock") == UnixEndpoint("/tmp/a.sock")
    assert parse_endpoint("tcp://127.0.0.1:4803") == TcpEndpoint("127.0.0.1", 4803)
    assert parse_endpoint(("h", 99)) == TcpEndpoint("h", 99)
    endpoint = TcpEndpoint("h", 1)
    assert parse_endpoint(endpoint) is endpoint


def test_parse_rejects_malformed_specs():
    with pytest.raises(ValueError):
        parse_endpoint("tcp://nohost")
    with pytest.raises(ValueError):
        parse_endpoint("tcp://h:notaport")
    with pytest.raises(ValueError):
        parse_endpoint(("h", 1, 2))
    with pytest.raises(ValueError):
        parse_endpoint(42)


# ----------------------------------------------------------------------
# Client constructors
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cls", [SpreadClient])
def test_clients_require_an_endpoint(cls):
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("cls", [SpreadClient])
def test_clients_accept_endpoint_specs(cls):
    assert cls("/tmp/d.sock").endpoint == UnixEndpoint("/tmp/d.sock")
    assert cls(TcpEndpoint("h", 9)).endpoint == TcpEndpoint("h", 9)
    assert cls("tcp://h:9").endpoint == TcpEndpoint("h", 9)


def test_spread_client_positional_name_preserved():
    client = SpreadClient("/tmp/d.sock", "alice")
    assert client.private_name == "alice"
    assert client.endpoint == UnixEndpoint("/tmp/d.sock")
