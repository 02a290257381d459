"""The reachability plugin's check fails on a ``def`` nothing calls.

Importing :mod:`tests.harness.reachability` installs its collector for
the rest of the process, so the check runs in a subprocess: it imports
the plugin, then a seeded module, and calls all but one of its defs.
"""

import json
import os
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SEEDED = '''\
def used():
    return 1


def never_called():
    return 2


class Box:
    @staticmethod
    def method():
        return 3
'''

SCRIPT = textwrap.dedent(
    """
    import importlib.util, json, sys
    from tests.harness import reachability

    root = sys.argv[1]
    spec = importlib.util.spec_from_file_location("seeded", root + "/seeded.py")
    seeded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(seeded)
    seeded.used()
    seeded.Box.method()
    entered = reachability.entered_keys()
    print(json.dumps([
        reachability.report(root, entered, {}),
        reachability.report(root, entered, {"seeded.py::never_called": "seeded"}),
        reachability.report(
            root, entered, {"seeded.py::never_called": "seeded", "seeded.py::used": "seeded"}
        ),
        len(reachability.parse_allowlist(reachability.ALLOWLIST)),
    ]))
    """
)


def test_check_reports_a_seeded_def_that_is_never_called(tmp_path):
    (tmp_path / "seeded.py").write_text(SEEDED)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
    )
    plain, allowed, stale, allowlist_size = json.loads(out.stdout)
    assert plain == ["never entered: seeded.py::never_called (line 5, 2 lines)"]
    assert allowed == []
    assert stale == ["stale allowlist entry: seeded.py::used"]
    # Every entry has a reason (parsing raises otherwise), and the list
    # stays short.
    assert allowlist_size <= 30
