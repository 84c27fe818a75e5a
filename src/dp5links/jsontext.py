"""The report's JSON text in one pass: a module of its own, since compiling the
largest module, report.py, sets the peak memory of importing the package.  The
string encoder is json.encoder's C one, taken alone to spare a cold start the json package."""

from _json import encode_basestring_ascii as _quote

_is_str = str.__instancecheck__  # isinstance(x, str), callable by map


def _write_json(x, write, nl: str) -> None:
    """Write x through write, fragment by fragment, as json.dumps(x, indent=2,
    sort_keys=True) writes it at the indent nl holds; dicts with str keys,
    lists, tuples, str, int, bool and None only, else TypeError."""
    t, inner = type(x), nl + "  "
    if t is str:
        write(_quote(x))
    elif t is dict:
        write("{")
        for i, (k, v) in enumerate(sorted(x.items())):
            if type(k) is not str:
                raise TypeError(f"a report key must be str, not {type(k).__name__}")
            write(("," if i else "") + inner + _quote(k) + ": ")
            _write_json(v, write, inner)
        write(nl + "}" if x else "}")
    elif (t is list or t is tuple) and x and all(map(_is_str, x)):  # most lists of a report
        write("[" + inner + ("," + inner).join(map(_quote, x)) + nl + "]")
    elif t is list or t is tuple:
        write("[")
        for i, v in enumerate(x):
            write(("," if i else "") + inner)
            _write_json(v, write, inner)
        write(nl + "]" if x else "]")
    elif t is int:
        write(int.__repr__(x))
    elif t is bool or x is None:
        write("null" if x is None else "true" if x else "false")
    else:
        raise TypeError(f"a report cannot hold {t.__name__}")


def write_json(x, fh) -> None:
    """Write json.dumps(x, indent=2, sort_keys=True) to the text file fh as it
    is produced, for what a report holds; the whole text is never held."""
    _write_json(x, fh.write, "\n")
