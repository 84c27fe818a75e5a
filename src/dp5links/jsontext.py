"""The report's JSON text in one pass: a module of its own, since compiling the
largest module, report.py, sets the peak memory of importing the package.  The
string encoder is json.encoder's C one, taken alone to spare a cold start the json package."""

from _json import encode_basestring_ascii as _quote

_is_str = str.__instancecheck__  # isinstance(x, str), callable by map


def _write_json(x, out: list[str], nl: str) -> None:
    """Append x as json.dumps(x, indent=2, sort_keys=True) writes it at the indent nl holds;
    dicts with str keys, lists, tuples, str, int, bool and None only, else TypeError."""
    t, inner = type(x), nl + "  "
    if t is str:
        out.append(_quote(x))
    elif t is dict:
        out.append("{")
        for i, (k, v) in enumerate(sorted(x.items())):
            if type(k) is not str:
                raise TypeError(f"a report key must be str, not {type(k).__name__}")
            out.append(("," if i else "") + inner + _quote(k) + ": ")
            _write_json(v, out, inner)
        out.append(nl + "}" if x else "}")
    elif (t is list or t is tuple) and x and all(map(_is_str, x)):  # most lists of a report
        out.append("[" + inner + ("," + inner).join(map(_quote, x)) + nl + "]")
    elif t is list or t is tuple:
        out.append("[")
        for i, v in enumerate(x):
            out.append(("," if i else "") + inner)
            _write_json(v, out, inner)
        out.append(nl + "]" if x else "]")
    elif t is int:
        out.append(int.__repr__(x))
    elif t is bool or x is None:
        out.append("null" if x is None else "true" if x else "false")
    else:
        raise TypeError(f"a report cannot hold {t.__name__}")


def json_text(x) -> str:
    """json.dumps(x, indent=2, sort_keys=True) in one pass, for what a report holds."""
    out: list[str] = []
    _write_json(x, out, "\n")
    return "".join(out)
