"""URI and identifier helpers.

The paper identifies every managed artifact ("resource") by a URI and every
lifecycle model, action type, instance and user by an identifier.  This module
centralises generation, normalisation and light validation of those
identifiers so the rest of the kernel can treat them as opaque strings.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from urllib.parse import urlparse, urlunparse

from .errors import ValidationError

_SLUG_RE = re.compile(r"[^a-z0-9]+")
_ID_RE = re.compile(r"^[A-Za-z0-9_.:\-/]+$")


def new_id(prefix: str = "id") -> str:
    """Return a globally unique identifier with a readable prefix.

    Example: ``new_id("inst")`` -> ``"inst-6f1a2c3d4e5f"``.  The 12 hex
    digits are 48 random bits, as many as the leading 12 digits of a
    ``uuid4`` carry, read straight from ``os.urandom``.
    """
    return prefix + "-" + os.urandom(6).hex()


def slugify(text: str) -> str:
    """Turn a human-readable name into a phase/action id.

    Mirrors the paper's Table I where the phase "Internal review" has the id
    ``internalreview``-style slug; we keep hyphens for readability.
    """
    slug = _SLUG_RE.sub("-", text.strip().lower()).strip("-")
    return slug or new_id("item")


def is_valid_identifier(value: str) -> bool:
    """Return True when ``value`` is a non-empty, URL-safe identifier."""
    return bool(value) and bool(_ID_RE.match(value))


def require_identifier(value: str, what: str = "identifier") -> str:
    """Validate an identifier and return it, raising :class:`ValidationError` otherwise."""
    if not is_valid_identifier(value):
        raise ValidationError(["{} {!r} is not a valid identifier".format(what, value)])
    return value


def normalize_uri(uri: str) -> str:
    """Normalise a resource URI for identity comparison.

    The paper allows several lifecycles (and several running instances) to be
    attached to the *same* URI, so URI identity matters: scheme and host are
    lowercased, default ports dropped, empty paths become ``/`` and trailing
    slashes on non-root paths are removed.  Fragments are preserved because a
    fragment can address a sub-resource (e.g. a wiki section).
    """
    if not uri or not uri.strip():
        raise ValidationError(["resource URI must be a non-empty string"])
    return _normalize_stripped(uri.strip())


@lru_cache(maxsize=4096)
def _normalize_stripped(uri: str) -> str:
    """The pure part of :func:`normalize_uri`, memoised: every action call
    normalises its instance's artifact URI again."""
    parsed = urlparse(uri)
    if not parsed.scheme:
        # Allow opaque identifiers such as "urn:deliverable:d1.1" or plain ids.
        return uri
    scheme = parsed.scheme.lower()
    netloc = parsed.netloc.lower()
    for default_port, schemes in ((":80", ("http",)), (":443", ("https",))):
        if netloc.endswith(default_port) and scheme in schemes:
            netloc = netloc[: -len(default_port)]
    path = parsed.path or "/"
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/")
    return urlunparse((scheme, netloc, path, parsed.params, parsed.query, parsed.fragment))


def uri_host(uri: str) -> str:
    """Return the lowercase host part of a URI, or '' for opaque URIs."""
    return urlparse(uri).netloc.lower()


def callback_uri(base: str, instance_id: str, phase_id: str, action_call_id: str) -> str:
    """Build the callback URI handed to an action invocation.

    The paper specifies that actions receive "a link to the object and a
    callback URI" and later report status to that callback.  The structure is
    our own (the paper does not prescribe one); it is parsed back by
    :func:`parse_callback_uri`.
    """
    base = base.rstrip("/")
    return "{}/callbacks/{}/{}/{}".format(base, instance_id, phase_id, action_call_id)


def parse_callback_uri(uri: str):
    """Split a callback URI into ``(instance_id, phase_id, action_call_id)``."""
    marker = "/callbacks/"
    position = uri.find(marker)
    if position < 0:
        raise ValidationError(["{!r} is not a callback URI".format(uri)])
    tail = uri[position + len(marker):]
    parts = [part for part in tail.split("/") if part]
    if len(parts) != 3:
        raise ValidationError(["callback URI {!r} must have instance/phase/call parts".format(uri)])
    return parts[0], parts[1], parts[2]
