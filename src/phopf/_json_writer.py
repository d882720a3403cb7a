"""The writer of serialize.write_document, in a module of its own so that a
command that writes nothing does not compile it."""

from json.encoder import encode_basestring

_NESTED = (dict, list, tuple)
# the text of a scalar by its exact type; a subclass of str or int (a Count)
# goes to _scalar
_TEXT = {str: encode_basestring, int: int.__repr__, bool: {True: "true", False: "false"}.get,
         type(None): lambda x: "null"}


def _scalar(x):
    if isinstance(x, (str, int)):
        return (encode_basestring if isinstance(x, str) else int.__repr__)(x)
    raise TypeError("a document holds strings, ints, true, false and null, not %r" % (x,))


def write_json(fh, node, indent="\n", head=""):
    """Write `head`, then node as json.dump writes it with indent=2 and
    ensure_ascii=False; `indent` is the newline and the indentation of the
    line node starts on.  A scalar, an empty container or a list of scalars
    is one string and one fh.write, and no larger text is ever held."""
    if not isinstance(node, _NESTED):
        return fh.write(head + _TEXT.get(type(node), _scalar)(node))
    keyed = isinstance(node, dict)
    if not node:
        return fh.write(head + ("{}" if keyed else "[]"))
    sep = ",%s  " % indent
    if not keyed:
        try:  # a row of strings is encoded in one C loop
            row = sep.join(map(encode_basestring, node) if type(node[0]) is str
                           else [_TEXT[type(x)](x) for x in node])
        except (KeyError, TypeError):
            row = None if any(isinstance(x, _NESTED) for x in node) else \
                sep.join([_TEXT.get(type(x), _scalar)(x) for x in node])
        if row is not None:
            return fh.write("%s[%s%s%s]" % (head, sep[1:], row, indent))
    fh.write(head + ("{" if keyed else "["))
    head = sep[1:]
    for key, value in node.items() if keyed else enumerate(node):
        # encode_basestring raises TypeError on a key that is not a string
        write_json(fh, value, sep[1:], head + (encode_basestring(key) + ": " if keyed else ""))
        head = sep
    fh.write(indent + ("}" if keyed else "]"))
