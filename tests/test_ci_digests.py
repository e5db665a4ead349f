import json
import os
import re
import subprocess
import sys

from test_audit import THREE_TERM_SHO

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, ".github", "compare_digests.py")

AGREED = {"damped_sho.csv": "a1", "damped_sho.audit.json": "b2",
          "pendulum_drag_2dof.rk4.csv": "c3"}


def _compare(tmp_path, *entries):
    """Exit code and output of the comparison over fabricated entries,
    each a {file: digest} written as one entry's sha256sum listing."""
    paths = []
    for i, digests in enumerate(entries):
        d = tmp_path / f"digests-{i}"
        d.mkdir()
        (d / "digests.txt").write_text("".join(
            f"{h}  {name}\n" for name, h in digests.items()))
        paths.append(str(d / "digests.txt"))
    p = subprocess.run([sys.executable, SCRIPT, *paths], capture_output=True,
                       text=True, check=False)
    return p.returncode, p.stdout, p.stderr


def test_agreeing_entries_pass_and_general_mode_is_only_listed(tmp_path):
    # only the general-mode run with a graded-rule (tanh) addend is
    # listed without comparing
    tanh = [{"pendulum_tanh.csv": h, "pendulum_tanh.audit.json": h}
            for h in ("d4", "e5", "f6")]
    rc, out, err = _compare(tmp_path, *({**AGREED, **g} for g in tanh))
    assert (rc, err) == (0, "")
    assert "pendulum_tanh.csv: listed only" in out
    assert all(f"    {h}  " in out for h in ("d4", "e5", "f6"))


def test_a_differing_closed_form_general_mode_digest_fails(tmp_path):
    # the general-mode pendulum's R is closed-form: compared like the rest
    entries = [{**AGREED, "pendulum_general.csv": h} for h in ("d4", "d4",
                                                               "e5")]
    rc, out, err = _compare(tmp_path, *entries)
    assert rc == 1
    assert "pendulum_general.csv: compared" in out
    assert err == "digests differ between entries: pendulum_general.csv\n"


def test_a_differing_homogeneous_sum_digest_fails(tmp_path):
    rc, out, err = _compare(tmp_path, AGREED, AGREED,
                            {**AGREED, "damped_sho.audit.json": "x9"})
    assert rc == 1
    assert "damped_sho.audit.json: compared" in out
    assert err == "digests differ between entries: damped_sho.audit.json\n"


def test_a_missing_digest_fails(tmp_path):
    rc, out, err = _compare(tmp_path, AGREED, dict(list(AGREED.items())[1:]))
    assert rc == 1
    assert "    missing  " in out
    assert err == "digests differ between entries: damped_sho.csv\n"


def test_the_digested_three_term_run_is_the_audit_tests_config():
    # the "Output digests" step runs the multi-term D that test_audit
    # checks, so the matrix compares what that test pins down
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"),
              encoding="utf-8") as f:
        m = re.search(r"cat > three_terms.json <<'JSON'\n(.*?)\n *JSON\n",
                      f.read(), re.S)
    assert json.loads(m.group(1)) == THREE_TERM_SHO
