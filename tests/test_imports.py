"""What a fresh interpreter loads: the dense path leaves scipy.sparse and
scipy's solver stack (ARPACK and SuperLU in ``scipy.sparse.linalg``,
``scipy.linalg`` beneath it, and ``scipy.io``) unloaded. The first sparse
call (an encode, a sparse-mode generate) loads scipy.sparse on demand, a
generic solve nothing more, and the first Lanczos norm the solver stack.

Each case runs in its own ``python -c`` process, since this test process has
long since imported all four.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from odeql.encoder import TaylorParams, encode
from odeql.instances import GenSpec, generate
from odeql.numerics import lanczos_norm

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "scipy.io")
# 300 x 300 CSR, past DENSE_CUTOFF, so norm2 would take Lanczos too
MATRIX = ('sp.diags([np.linspace(0.1, 1.0, 300), 0.5j * np.ones(299)], [0, 1], '
          'format="csr", dtype=complex)')
PRELUDE = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(SRC)!r})
def loaded():
    return [name for name in {DEFERRED!r} if name in sys.modules]
"""
# each sets `value`, an array; its first call in a process loads scipy.sparse
FIRST_SPARSE_CALLS = {
    "encode": "inst = generate(GenSpec(N=8, kappa_V=3.0, b_mode='random', seed=1, "
              "unit_norm=True))\nvalue = encode(inst.A, inst.x_in, inst.b, "
              "TaylorParams(m=2, k=5, p=2, h=0.5)).matrix.data",
    "sparse generate": "value = generate(GenSpec(N=16, kappa_V=None, sparsity=3, "
                       "seed=2)).A.data",
}


def _fresh(body: str):
    """The JSON value that body prints last, run after PRELUDE in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", PRELUDE + body], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_the_dense_path_loads_no_solver_stack():
    stages = _fresh("""
seen = {"import": loaded()}
import odeql
from odeql import cli, pipeline, suites
from odeql.instances import GenSpec, generate
seen["import odeql"] = loaded()
inst = generate(GenSpec(N=8, kappa_V=3.0, b_mode="random", seed=1, unit_norm=True))
pipeline.run(inst, pipeline.RunConfig(T=2.0, epsilon=1e-6, seed=0))
seen["run"] = loaded()
assert suites.run_suite("lemma1")["passed"]
seen["lemma1"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--gen", "N=8,kappa=3,b=random", "--T", "2", "--epsilon", "1e-6"])
seen["cli run"] = loaded() + ([] if code == 0 else [f"exit {code}"])
print(json.dumps(seen))
""")
    assert stages == {stage: [] for stage in ("import", "import odeql", "run", "lemma1",
                                              "cli run")}


def test_the_generic_solve_loads_no_solver_stack():
    # the cross-check is sparse products on C: encode loads scipy.sparse, and
    # generic_solve adds neither ARPACK nor SuperLU at N < DENSE_CUTOFF
    stages = _fresh("""
from odeql.encoder import TaylorParams, encode
from odeql.instances import GenSpec, generate
from odeql.solver import generic_solve
inst = generate(GenSpec(N=8, kappa_V=3.0, b_mode="random", seed=1, unit_norm=True))
system = encode(inst.A, inst.x_in, inst.b, TaylorParams(m=2, k=5, p=2, h=0.5))
seen = {"encode": loaded()}
generic_solve(system)
seen["generic_solve"] = loaded()
print(json.dumps(seen))
""")
    assert stages == {"encode": ["scipy.sparse"], "generic_solve": ["scipy.sparse"]}


@pytest.mark.parametrize("call", FIRST_SPARSE_CALLS)
def test_the_first_sparse_call_loads_scipy_sparse_on_demand(call):
    # the positive control of the dense path's guard: scipy.sparse resolves
    # when nothing has imported it, and the value is this process's, bit for bit
    before, value, after = _fresh(f"""
from odeql.encoder import TaylorParams, encode
from odeql.instances import GenSpec, generate
before = loaded()
{FIRST_SPARSE_CALLS[call]}
print(json.dumps([before, value.tobytes().hex(), loaded()]))
""")
    scope = {"TaylorParams": TaylorParams, "encode": encode, "GenSpec": GenSpec,
             "generate": generate}
    exec(FIRST_SPARSE_CALLS[call], scope)
    assert before == []
    assert after == ["scipy.sparse"]
    assert value == scope["value"].tobytes().hex()


def test_the_first_lanczos_norm_loads_arpack_on_demand():
    # the positive control: sp.linalg resolves when nothing has imported it,
    # and the value is the one this process computes, bit for bit
    before, value, after = _fresh(f"""
import numpy as np
import scipy.sparse as sp
from odeql.numerics import lanczos_norm
before = loaded()
value = lanczos_norm({MATRIX})
print(json.dumps([before, value.hex(), loaded()]))
""")
    assert before == ["scipy.sparse"]
    assert "scipy.sparse.linalg" in after
    assert value == lanczos_norm(eval(MATRIX, {"np": np, "sp": sp})).hex()
