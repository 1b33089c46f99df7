"""Unit tests for URI/identifier helpers."""

import re
import threading

import pytest

from repro.errors import ValidationError
from repro.identifiers import (
    callback_uri,
    is_valid_identifier,
    new_id,
    normalize_uri,
    parse_callback_uri,
    require_identifier,
    slugify,
    uri_host,
)


class TestNewId:
    def test_has_prefix(self):
        assert new_id("inst").startswith("inst-")

    def test_is_unique(self):
        assert new_id() != new_id()

    def test_default_prefix(self):
        assert new_id().startswith("id-")

    def test_format_is_prefix_and_twelve_lowercase_hex_digits(self):
        for prefix in ("inst", "req", "trc", "id"):
            assert re.match(r"^{}-[0-9a-f]{{12}}$".format(prefix), new_id(prefix))

    def test_unique_across_threads(self):
        batches = [[] for _ in range(4)]

        def draw(batch):
            batch.extend(new_id("inst") for _ in range(2000))

        threads = [threading.Thread(target=draw, args=(batch,)) for batch in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        ids = [value for batch in batches for value in batch]
        assert len(set(ids)) == len(ids) == 8000


class TestSlugify:
    def test_lowercases_and_hyphenates(self):
        assert slugify("Internal Review") == "internal-review"

    def test_strips_punctuation(self):
        assert slugify("  EU / Review!  ") == "eu-review"

    def test_empty_text_produces_generated_id(self):
        assert slugify("   ") != ""

    def test_idempotent(self):
        once = slugify("Final Assembly")
        assert slugify(once) == once


class TestIdentifierValidation:
    def test_accepts_simple_ids(self):
        assert is_valid_identifier("phase_1")
        assert is_valid_identifier("http://example.org/a/chr") is True

    def test_rejects_empty_and_spaces(self):
        assert not is_valid_identifier("")
        assert not is_valid_identifier("two words")

    def test_require_identifier_raises(self):
        with pytest.raises(ValidationError):
            require_identifier("bad id", "phase id")

    def test_require_identifier_returns_value(self):
        assert require_identifier("ok-1") == "ok-1"


class TestNormalizeUri:
    def test_lowercases_scheme_and_host(self):
        assert normalize_uri("HTTP://Docs.Example.ORG/Doc1") == "http://docs.example.org/Doc1"

    def test_drops_default_ports(self):
        assert normalize_uri("http://example.org:80/x") == "http://example.org/x"
        assert normalize_uri("https://example.org:443/x") == "https://example.org/x"

    def test_keeps_non_default_port(self):
        assert "8080" in normalize_uri("http://example.org:8080/x")

    def test_empty_path_becomes_root(self):
        assert normalize_uri("http://example.org").endswith("/")

    def test_trailing_slash_removed(self):
        assert normalize_uri("http://example.org/wiki/Page/") == "http://example.org/wiki/Page"

    def test_opaque_uri_passes_through(self):
        assert normalize_uri("urn:deliverable:d1.1") == "urn:deliverable:d1.1"

    def test_fragment_preserved(self):
        assert normalize_uri("http://w.org/page#section").endswith("#section")

    def test_rejects_empty(self):
        # Repeated: the memoised part sits behind the check, so every call raises.
        for uri in ("   ", "", "  ", ""):
            with pytest.raises(ValidationError):
                normalize_uri(uri)

    def test_repeated_calls_agree(self):
        uri = " HTTP://Docs.Example.org:80/d/1/ "
        assert normalize_uri(uri) == normalize_uri(uri) == "http://docs.example.org/d/1"

    def test_uri_host(self):
        assert uri_host("https://Docs.Google.com/d/1") == "docs.google.com"
        assert uri_host("urn:x") == ""


class TestCallbackUri:
    def test_round_trip(self):
        uri = callback_uri("urn:gelee:runtime", "inst-1", "review", "call-9")
        assert parse_callback_uri(uri) == ("inst-1", "review", "call-9")

    def test_base_trailing_slash_ignored(self):
        uri = callback_uri("http://host/api/", "i", "p", "c")
        assert "//callbacks" not in uri.replace("http://", "")

    def test_parse_rejects_non_callback(self):
        with pytest.raises(ValidationError):
            parse_callback_uri("http://host/api/other/i/p/c")

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ValidationError):
            parse_callback_uri("http://host/callbacks/i/p")
