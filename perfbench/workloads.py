"""The benchmark's workloads: seeded input documents, the phopf command list
each workload runs, and the invariants every command's output must meet.

Inputs are written once per set-up with the phopf library itself; the
commands only ever see the written documents.  A seed picks the Sweedler
parameters from small nonzero rationals and a relabelling of the group
elements behind the kZ12, kQ8 and kS3 documents.  Dimensions and nnz do not
depend on the seed, so neither does the amount of work."""

import os
import random
import shutil

from phopf import (GF, QQ, dual_regular_action,
                   group_algebra, named_group, regular_bicomodule,
                   sweedler_h4, sweedler_k_bicomodule, sweedler_k_bimodule,
                   trivialize_right, write_document)

DEFAULT_SEED = 1


# ---------------------------------------------------------------------------
# seeded choices


def small_rational(rng):
    """A nonzero rational n/d with |n| <= 5 and 1 <= d <= 4, as a string."""
    num = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    den = rng.randint(1, 4)
    return "%d/%d" % (num, den) if den != 1 else str(num)


def cyclic_group(n):
    return (["e"] + ["g%d" % k for k in range(1, n)],
            [[(i + j) % n for j in range(n)] for i in range(n)])


def relabelled(group, rng):
    """(labels, table) of a group with its elements listed in a seeded order:
    element a of the builtin table becomes index perm[a]."""
    labels, table = cyclic_group(int(group[1:])) if group.startswith("Z") \
        else named_group(group)
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    new_labels = [None] * n
    new_table = [[None] * n for _ in range(n)]
    for a in range(n):
        new_labels[perm[a]] = labels[a]
        for b in range(n):
            new_table[perm[a]][perm[b]] = perm[table[a][b]]
    return new_labels, new_table


def kg(group, field, rng):
    labels, table = relabelled(group, rng)
    return group_algebra(table, field, labels, name="k" + group)


# ---------------------------------------------------------------------------
# documents


def _write(outdir, hopf, structures):
    """Write hopf.json plus one file per (kind, structure), each structure
    referring to the shared hopf.json."""
    os.makedirs(outdir, exist_ok=True)
    write_document(hopf.to_json(), os.path.join(outdir, "hopf.json"))
    for kind, s in structures:
        write_document(s.to_json(hopf_ref="hopf.json"),
                       os.path.join(outdir, "%s.json" % kind))


def _dual_pair(group, field, rng, outdir):
    """The kG* bimodule on kG (dual regular action from the left, trivial
    from the right) and the regular kG* bicomodule."""
    h = kg(group, field, rng)
    bim = trivialize_right(dual_regular_action(h))
    bic = regular_bicomodule(bim.hopf)
    _write(outdir, bim.hopf, [("bimodule", bim), ("bicomodule", bic)])


def _setup_globalize(rng):
    labels, table = cyclic_group(4)
    _write("kz4", *_regular(group_algebra(table, QQ, labels, name="kZ4")))
    _write("h4", *_regular(sweedler_h4(QQ)))
    b = sweedler_k_bimodule(QQ, small_rational(rng), small_rational(rng))
    _write("sweedler_rs", b.hopf, [("bimodule", b)])
    b = sweedler_k_bicomodule(QQ, small_rational(rng), small_rational(rng))
    _write("sweedler_tu", b.hopf, [("bicomodule", b)])


def _regular(h):
    b = regular_bicomodule(h)
    return b.hopf, [("bicomodule", b)]


def _setup_check(rng):
    act = dual_regular_action(kg("Z12", QQ, rng))
    _write("kz12", act.hopf, [("action", act)])
    _dual_pair("Q8", QQ, rng, "kq8")


def _setup_smash(rng):
    _dual_pair("Q8", GF(7), rng, "kq8")
    _dual_pair("S3", GF(7), rng, "ks3")


def _setup_tiny(rng):
    _write("h4", *_regular(sweedler_h4(QQ)))
    act = dual_regular_action(kg("Z2", QQ, rng))
    _write("kz2", act.hopf, [("action", act)])
    _dual_pair("Z2", GF(7), rng, "kz2_gf7")


# ---------------------------------------------------------------------------
# invariants on a command's --format json output


def _bools(node):
    if isinstance(node, bool):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from _bools(v)
    elif isinstance(node, list):
        for v in node:
            yield from _bools(v)


def all_laws_pass(doc):
    bad = []
    if not doc.get("laws"):
        bad.append("no laws checked")
    if doc.get("failures") or doc.get("passed") is not True:
        bad.append("a law failed")
    return bad


def globalized(dim_b, ambient_dim, bridge):
    def expect(doc):
        bad = []
        if (doc.get("dim_b"), doc.get("ambient_dim")) != (dim_b, ambient_dim):
            bad.append("dims %r/%r, expected %d/%d"
                       % (doc.get("dim_b"), doc.get("ambient_dim"), dim_b, ambient_dim))
        cert = doc.get("certificate")
        if not cert or not all(_bools(cert)) or cert.get("witnesses"):
            bad.append("certificate flag false")
        psi = doc.get("psi")
        if bridge and (not psi or not all(_bools(psi))):
            bad.append("psi flag false")
        if doc.get("degenerate_dim") != 0:
            bad.append("degenerate_dim %r" % doc.get("degenerate_dim"))
        return bad
    return expect


def smashed(dim):
    def expect(doc):
        bad = []
        if doc.get("certificate", {}).get("associative") is not True:
            bad.append("not associative")
        if len(doc.get("basis", ())) != dim:
            bad.append("smash dim %d, expected %d" % (len(doc.get("basis", ())), dim))
        return bad
    return expect


def example_written(doc):
    return [] if doc.get("files") else ["no files written"]


# ---------------------------------------------------------------------------
# the workloads


class Command:
    """One phopf invocation: argv after the program name, the files it
    writes (digested with its stdout), and its output invariants."""

    def __init__(self, argv, expect, writes=()):
        self.argv = list(argv) + ["--format", "json"]
        self.expect = expect
        self.writes = list(writes)

    @property
    def name(self):
        return " ".join(a for a in self.argv[:3] if not a.startswith("-"))


def _glob(kind, src, out, dims, bridge):
    return Command(["globalize", kind, src, "-o", out], globalized(*dims, bridge),
                   [os.path.join(out, "globalization.json")])


def _smash(pair, out, dim):
    return Command(["smash", pair + "/bimodule.json", pair + "/bicomodule.json",
                    "-o", out], smashed(dim), [out])


WORKLOADS = {
    "globalize": (_setup_globalize, [
        _glob("bicomodule", "kz4/bicomodule.json", "out/kz4", (4, 64), True),
        _glob("bicomodule", "h4/bicomodule.json", "out/h4", (4, 64), True),
        _glob("bimodule", "sweedler_rs/bimodule.json", "out/sweedler_rs", (4, 16), False),
        _glob("bicomodule", "sweedler_tu/bicomodule.json", "out/sweedler_tu", (4, 16), True),
    ]),
    "check": (_setup_check, [
        Command(["check", "action", "kz12/action.json"], all_laws_pass),
        Command(["check", "bimodule", "kq8/bimodule.json"], all_laws_pass),
        Command(["check", "bicomodule", "kq8/bicomodule.json"], all_laws_pass),
        Command(["check", "hopf", "kq8/hopf.json"], all_laws_pass),
    ]),
    "smash": (_setup_smash, [
        Command(["example", "regular-bicomodule", "--group", "Q8", "--field", "gf7",
                 "-o", "out/example_q8"], example_written,
                ["out/example_q8/hopf.json", "out/example_q8/bicomodule.json"]),
        _smash("kq8", "out/smash_q8.json", 64),
        _smash("ks3", "out/smash_s3.json", 36),
        Command(["check", "algebra", "out/smash_q8.json"], all_laws_pass),
        Command(["check", "algebra", "out/smash_s3.json"], all_laws_pass),
    ]),
    # H4 and kZ2 only: small enough for the benchmark's own test.
    "tiny": (_setup_tiny, [
        _glob("bicomodule", "h4/bicomodule.json", "out/h4", (4, 64), True),
        Command(["check", "action", "kz2/action.json"], all_laws_pass),
        _smash("kz2_gf7", "out/smash_z2.json", 4),
        Command(["check", "algebra", "out/smash_z2.json"], all_laws_pass),
    ]),
}


def set_up(workload, seed, workdir):
    """Write the workload's input documents into a fresh `workdir`."""
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        WORKLOADS[workload][0](random.Random(seed))
    finally:
        os.chdir(cwd)
    return WORKLOADS[workload][1]
