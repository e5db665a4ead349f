import glob
import os

from mutants import MUTANTS, SRC


def test_each_mutant_edits_one_place_in_src():
    # the mutant gate (tests/mutants.py, its own CI job) applies each edit
    # where its old text occurs: a refactor that moves or rewrites that
    # code must update the list, so that no mutant silently stops applying
    texts = {}
    for path in glob.glob(os.path.join(SRC, "raydiss", "*.py")):
        with open(path, encoding="utf-8") as f:
            texts[os.path.relpath(path, SRC).replace(os.sep, "/")] = f.read()
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert sum(t.count(m.old) for t in texts.values()) == 1, m.name
        assert texts[m.path].count(m.old) == 1, m.name
        assert all(os.path.isfile(os.path.join(SRC, "..", t))
                   for t in m.tests), m.name
