"""JSON text with the bytes of json.dumps(obj, sort_keys=True, indent=2).

With indent set, CPython's json runs its pure-Python encoder; encode
writes the same text for the value types ghlcert outputs, and hands any
other subtree to json.dumps.  The certificate writer
(certify.Certificate.json_pieces) and the CLI's other commands both use it.
"""

from __future__ import annotations

import contextlib
import json
import sys

encode_str = json.encoder.encode_basestring_ascii
encode_int = int.__repr__
_STR_KEYS = {str}
_DECIMALS = ["0"]


def decimals(m: int) -> list:
    """The process's table of decimal strings, str(i) at index i, grown to
    the largest m asked for.  Shared by every caller: read only."""
    if len(_DECIMALS) <= m:
        _DECIMALS.extend(map(encode_int, range(len(_DECIMALS), m + 1)))
    return _DECIMALS


def encode(obj, pad: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it when it
    sits after pad, a newline and its indentation.  Plain str, int, bool,
    None, lists and str-keyed dicts are written here, with the str and int
    members of a container inline; any other subtree (a float, a tuple, a
    subclass, a dict with other keys) is written by json.dumps itself,
    re-indented.  That is exact because json escapes every newline inside
    a string, so each newline it writes is layout."""
    t = type(obj)
    if t is list:
        if not obj:
            return "[]"
        inner = pad + "  "
        parts = []
        for v in obj:
            tv = type(v)
            if tv is int:
                parts.append(encode_int(v))
            elif tv is str:
                parts.append(encode_str(v))
            else:
                parts.append(encode(v, inner))
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if t is dict and set(map(type, obj)) <= _STR_KEYS:
        if not obj:
            return "{}"
        inner = pad + "  "
        parts = []
        for k in sorted(obj):
            v = obj[k]
            tv = type(v)
            if tv is int:
                parts.append(encode_str(k) + ": " + encode_int(v))
            elif tv is str:
                parts.append(encode_str(k) + ": " + encode_str(v))
            else:
                parts.append(encode_str(k) + ": " + encode(v, inner))
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if t is str:
        return encode_str(obj)
    if t is int:
        return encode_int(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)


@contextlib.contextmanager
def unlimited_int_digits():
    """Let int-to-str conversion write integers of any length inside the
    block, then restore the previous cap.  CPython (3.11, and 3.10 from
    3.10.7) refuses to convert an int of more than 4,300 digits by default;
    a binomial seed passes that at n = 14,300, and the coefficients of a
    q = 1/3 instance near n = 1,350.  Interpreters without the cap
    (no sys.set_int_max_str_digits) need nothing."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
