"""How streams loads scipy.special's ndtri, ndtr and kolmogorov and numpy's
C Philox, and what else the commands leave unloaded.

Each test runs a new interpreter, since this one may hold scipy.special or
numpy.random already.  By default the ufuncs load without scipy.special's
__init__, whose array-API layer loads numpy.f2py and numpy.testing, and the
C Philox, at the first row longer than streams.CROSSOVER_DRAWS, without
numpy.random's, which loads the Generator and RandomState modules.  A
caller that imported either package first gets its objects, and a refused
private import falls back to the package.  Every route gives the same bits.
No command loads numpy.ma (np.unique would, through np.ma.is_masked) or
fractions (only stieltjes.cantor_eval, an oracle no command calls, uses it).
"""

import json
import os
import subprocess
import sys

import pytest

#: Modules that no command may load: the first three only scipy.special's
#: package __init__ brings in, the two numpy.random ones only numpy.random's.
HEAVY = ("scipy.special", "numpy.f2py", "numpy.testing", "numpy.random.mtrand",
         "numpy.random._generator", "numpy.ma", "fractions")

PRELUDE = f"""\
import json, sys
import scipy

def loaded():
    found = [name for name in {HEAVY!r} if name in sys.modules]
    # vars(), not getattr(): scipy's module __getattr__ would import the package
    return found + ["scipy.special attribute"] * ("special" in vars(scipy))
"""

LEAN = PRELUDE + """\
import yehsim
from yehsim import cli, stats, streams

left = {"import": loaded()}
config, out = sys.argv[1:]
for command in (["simulate"], ["verify", "--suite", "all"], ["expand"]):
    code = cli.main([*command, "--config", config, "--out", out])
    assert code in (0, 1), (command, code)
    left[command[0]] = loaded()
left["C Philox"] = "numpy.random._philox" in sys.modules
import numpy.random
import scipy.special
same = [scipy.special.ndtri is streams.ndtri, scipy.special.ndtr is stats.ndtr,
        scipy.special.kolmogorov is stats.kolmogorov,
        numpy.random.Philox is streams._philox_class()]
print(json.dumps([left, same]))
"""

# A finder that refuses the private module while the stand-in for its
# package stands; a None in sys.modules would block the package's own import
# of it too.
REFUSE = """\
class Refuse:
    hits = 0

    def find_spec(self, name, path, target=None):
        if name == {module!r} and not hasattr(
                sys.modules.get(name.rpartition(".")[0]), "__file__"):
            Refuse.hits += 1
            raise ImportError("refused under the stand-in")

sys.meta_path.insert(0, Refuse())
"""

#: Per route, what runs before the package loads.
ROUTES = {
    "stub": "",
    "package": "import scipy.special\n",
    "fallback": REFUSE.format(module="scipy.special._ufuncs"),
    "numpy-package": "import numpy.random\n",
    "numpy-fallback": REFUSE.format(module="numpy.random._philox"),
}

BITS = """\
import hashlib
import numpy as np
from yehsim import ks_test, normal_matrix

digests = {}
for seed, rows, draws, first in [(7, 5, 3, 0), (7, 3, 1024, 2**40), (2**64 - 1, 2, 101, 9)]:
    matrix = normal_matrix(seed, rows, draws, first)
    digests[f"{seed}-{rows}-{draws}-{first}"] = hashlib.sha256(matrix.tobytes()).hexdigest()
report = ks_test(normal_matrix(11, 1, 500)[0] * 1.1 + 0.05, 0.0, 1.0)
ks = [report.statistic.hex(), report.p_value.hex()]
hits = Refuse.hits if "Refuse" in globals() else None
packages = [name for name in ("scipy.special", "numpy.random") if name in sys.modules]
print(json.dumps([digests, ks, packages, hits]))
"""


def run_script(script: str, *argv) -> list:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_stay_lean(tmp_path):
    # neither the import nor any command leaves a package __init__ behind,
    # though the grid's rows of 128 draws take the C Philox, and a later
    # import of either package gives the very objects the package uses
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mc": {"paths": 40, "seed": 3}, "grid": {"points": 129},
                                  "series": {"N": 8}}))
    left, same = run_script(LEAN, str(config), str(tmp_path / "out"))
    assert left == {"import": [], "simulate": [], "verify": [], "expand": [], "C Philox": True}
    assert same == [True, True, True, True]


@pytest.fixture(scope="module")
def stub_route():
    return run_script(PRELUDE + ROUTES["stub"] + BITS)


# scipy.special's package __init__ loads numpy.random's too
@pytest.mark.parametrize("route,packages", [
    pytest.param("package", ["scipy.special", "numpy.random"], id="package"),
    pytest.param("fallback", ["scipy.special", "numpy.random"], id="fallback"),
    pytest.param("numpy-package", ["numpy.random"], id="numpy-package"),
    pytest.param("numpy-fallback", ["numpy.random"], id="numpy-fallback"),
])
def test_every_route_gives_the_same_bits(stub_route, route, packages):
    digests, ks, loaded, hits = run_script(PRELUDE + ROUTES[route] + BITS)
    assert stub_route[2] == []
    assert loaded == packages
    assert hits == (1 if route.endswith("fallback") else None)
    assert [digests, ks] == stub_route[:2]
